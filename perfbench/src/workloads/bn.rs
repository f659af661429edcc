//! `bn-infer` and `bn-large`: Bayesian-network MAR, Pr(e) and MPE reduced
//! to weighted model counting on circuits compiled once (PAPER.md §2),
//! answered in process by the default engine a user gets.
//!
//! The networks are fixed by the workload (their cost is what the
//! workload is about, and a seed-dependent network would swing the cost
//! of a run by orders of magnitude); the seed draws the evidence and the
//! request stream.

use std::sync::Arc;
use std::time::Instant;

use trl_bayesnet::{BayesNet, BnEncoding};
use trl_engine::{Engine, PreparedCircuit, Query, QueryAnswer};
use trl_nnf::LitWeights;

use super::{
    drive, replay_codec, replay_compile, replay_kernels, ClosedLoop, Opts, Outcome, Submitted,
};
use crate::gen::{sampled_evidence, Digest, Rng, Zipf};
use crate::layers::bayesnet::{self as bnl, Evidence};
use crate::layers::engine::{self as eng, Counters};
use crate::layers::nnf;
use crate::measure::{release_freed_memory, Tracer};
use crate::oracle::expect_close;

/// The query kinds a BN request mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// All posterior marginals (`Query::Marginals`).
    Mar,
    /// Pr(e) (`Query::Wmc`).
    Pr,
    /// MPE (`Query::MaxWeight`).
    Mpe,
}

/// How answers are checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OracleKind {
    /// Variable elimination: Pr(e) and posteriors by `BayesNet`, MPE by
    /// min-degree max-product elimination.
    VariableElimination,
    /// The scalar `trl-nnf` passes plus the identity that each variable's
    /// marginals sum to Pr(e) (elimination takes about a minute per query
    /// on the large network).
    ScalarPasses,
}

/// A BN workload's definition.
pub struct BnConfig {
    /// Workload name.
    pub name: &'static str,
    /// `(seed, variables, determinism)` of each `random_network` (at most
    /// three parents), in Zipf rank order.
    pub nets: &'static [(u64, usize, f64)],
    /// Queries per request.
    pub batch: usize,
    /// Kinds drawn uniformly for each query (a kind listed twice is drawn
    /// twice as often).
    pub kinds: &'static [Kind],
    /// Draw one kind per request instead of per query.
    pub homogeneous: bool,
    /// Evidence sets drawn per network.
    pub evidence_sets: usize,
    /// Evidence variables per set, `min..=max`.
    pub evidence_vars: (usize, usize),
    /// Answer oracle.
    pub oracle: OracleKind,
}

/// Nine networks whose tapes span about 1.5k to 23k nodes, all below the
/// layered-sweep threshold of 65,536 nodes, and all resident. An odd
/// count puts the median cold start inside one network's samples rather
/// than between two networks' compile times.
pub const BN_INFER: BnConfig = BnConfig {
    name: "bn-infer",
    nets: &[
        (12, 70, 0.5),
        (1, 50, 0.5),
        (36, 70, 0.5),
        (7, 70, 0.5),
        (27, 70, 0.5),
        (1, 80, 0.5),
        (8, 90, 0.5),
        (30, 80, 0.5),
        (7, 90, 0.5),
    ],
    batch: 8,
    kinds: &[Kind::Mar, Kind::Pr, Kind::Mpe],
    homogeneous: false,
    evidence_sets: 4,
    evidence_vars: (2, 6),
    oracle: OracleKind::VariableElimination,
};

/// One 200-variable network whose tape (about 69k nodes) is past the
/// layered-sweep threshold: the only traffic that dispatches the
/// `SweepPool`. Each request is all MAR or all Pr(e): one kernel group is
/// one layered sweep, which occupies an executor worker and a pool worker;
/// a mixed batch would run two sweeps at once and put three busy threads
/// on a 2-CPU host. Three requests in four are MAR, so the median request
/// lies inside the MAR latency mode rather than between the two modes.
pub const BN_LARGE: BnConfig = BnConfig {
    name: "bn-large",
    nets: &[(2, 200, 0.7)],
    batch: 4,
    kinds: &[Kind::Mar, Kind::Mar, Kind::Mar, Kind::Pr],
    homogeneous: true,
    evidence_sets: 16,
    evidence_vars: (4, 12),
    oracle: OracleKind::ScalarPasses,
};

/// Engine node budget: every network stays resident.
const BUDGET_NODES: usize = 1 << 24;

/// One request: a network and `(kind, evidence set)` per query.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Network index (Zipf rank).
    pub net: usize,
    /// The queries.
    pub items: Vec<(Kind, usize)>,
}

/// The seeded inputs: networks, evidence pools and the request stream.
pub struct Stream {
    cfg: &'static BnConfig,
    /// The networks, in rank order.
    pub nets: Vec<BayesNet>,
    /// Per network, its evidence sets.
    pub evidence: Vec<Vec<Evidence>>,
    zipf: Zipf,
    rng: Rng,
}

impl Stream {
    /// Builds the inputs of `seed`.
    pub fn new(cfg: &'static BnConfig, seed: u64) -> Self {
        let nets: Vec<BayesNet> = cfg
            .nets
            .iter()
            .map(|&(s, n, det)| bnl::random_network(s, n, 3, det))
            .collect();
        let mut ev_rng = Rng::derive(seed, 1);
        let evidence = nets
            .iter()
            .map(|bn| {
                (0..cfg.evidence_sets)
                    .map(|_| {
                        let (lo, hi) = cfg.evidence_vars;
                        let k = lo + ev_rng.below(hi - lo + 1);
                        sampled_evidence(bn, &mut ev_rng, k)
                    })
                    .collect()
            })
            .collect();
        Stream {
            cfg,
            zipf: Zipf::new(nets.len(), 1.0),
            nets,
            evidence,
            rng: Rng::derive(seed, 2),
        }
    }

    /// The next request.
    pub fn next_spec(&mut self) -> Spec {
        let net = self.zipf.sample(&mut self.rng);
        let kinds = self.cfg.kinds;
        let request_kind = kinds[self.rng.below(kinds.len())];
        let items = (0..self.cfg.batch)
            .map(|_| {
                let kind = if self.cfg.homogeneous {
                    request_kind
                } else {
                    kinds[self.rng.below(kinds.len())]
                };
                (kind, self.rng.below(self.cfg.evidence_sets))
            })
            .collect();
        Spec { net, items }
    }
}

/// Digest of the first `requests` requests (and the evidence they use).
pub fn stream_digest(cfg: &'static BnConfig, seed: u64, requests: usize) -> u64 {
    let mut s = Stream::new(cfg, seed);
    let mut d = Digest::default();
    for _ in 0..requests {
        let spec = s.next_spec();
        d.word(spec.net as u64);
        for (kind, ev) in spec.items {
            d.word(kind as u64);
            for &(v, x) in &s.evidence[spec.net][ev] {
                d.word(v as u64);
                d.word(x as u64);
            }
        }
    }
    d.finish()
}

/// Oracle values of one (network, evidence set).
#[derive(Clone, Debug, Default)]
pub struct Expected {
    /// Pr(e).
    pub pr: f64,
    /// `(v, Pr(v = 1 | e))` for the checked variables (variable
    /// elimination).
    pub posterior_true: Vec<(usize, f64)>,
    /// max joint probability consistent with e (variable elimination).
    pub mpe: f64,
    /// The scalar marginals pass (scalar-pass oracle).
    pub scalar_marginals: Vec<(f64, f64)>,
}

struct Net {
    bn: BayesNet,
    enc: BnEncoding,
    evidence: Vec<Evidence>,
    weights: Vec<LitWeights>,
    expected: Vec<Expected>,
    circuit: Option<Arc<PreparedCircuit>>,
    key: u64,
}

/// A BN workload bound to a live engine.
pub struct BnLoop {
    cfg: &'static BnConfig,
    stream: Stream,
    nets: Vec<Net>,
    engine: Option<Arc<Engine>>,
    last: Option<(Spec, Vec<QueryAnswer>)>,
    last_queries: Vec<Query>,
    last_latency_us: f64,
}

fn make_query(kind: Kind, w: &LitWeights) -> Query {
    match kind {
        Kind::Mar => Query::Marginals(w.clone()),
        Kind::Pr => Query::Wmc(w.clone()),
        Kind::Mpe => Query::MaxWeight(w.clone()),
    }
}

/// Checks one answer against the oracle values of its evidence set.
pub fn check_answer(
    cfg: &BnConfig,
    bn: &BayesNet,
    enc: &BnEncoding,
    evidence: &Evidence,
    expected: &Expected,
    kind: Kind,
    answer: &QueryAnswer,
) -> Result<(), String> {
    match (kind, answer) {
        (Kind::Pr, QueryAnswer::Wmc(p)) => expect_close("Pr(e)", *p, expected.pr, 0.0),
        (Kind::Mar, QueryAnswer::Marginals { wmc, marginals }) => {
            expect_close("Pr(e) of MAR", *wmc, expected.pr, 0.0)?;
            match cfg.oracle {
                OracleKind::VariableElimination => {
                    for &(v, want) in &expected.posterior_true {
                        let got = marginals[bnl::indicator(enc, v, 1)].0 / wmc;
                        expect_close(&format!("Pr(X{v}=1|e)"), got, want, 1.0)?;
                    }
                }
                OracleKind::ScalarPasses => {
                    if marginals.len() != expected.scalar_marginals.len() {
                        return Err("marginal vector length differs from the scalar pass".into());
                    }
                    for (i, (got, want)) in
                        marginals.iter().zip(&expected.scalar_marginals).enumerate()
                    {
                        expect_close(&format!("marginal {i}+"), got.0, want.0, expected.pr)?;
                        expect_close(&format!("marginal {i}-"), got.1, want.1, expected.pr)?;
                    }
                }
            }
            for v in 0..bn.num_vars() {
                let sum: f64 = (0..bn.cardinality(v))
                    .map(|x| marginals[bnl::indicator(enc, v, x)].0)
                    .sum();
                expect_close(&format!("sum of X{v} marginals"), sum, *wmc, 0.0)?;
            }
            Ok(())
        }
        (Kind::Mpe, QueryAnswer::MaxWeight(Some((value, model)))) => {
            expect_close("MPE value", *value, expected.mpe, 0.0)?;
            let inst = bnl::decode(enc, model);
            if evidence.iter().any(|&(v, x)| inst[v] != x) {
                return Err("MPE instantiation contradicts the evidence".into());
            }
            expect_close(
                "joint of the MPE instantiation",
                bnl::joint(bn, &inst),
                *value,
                0.0,
            )
        }
        _ => Err(format!("{kind:?} query answered with {answer:?}")),
    }
}

/// Variables whose posterior elimination checks, per evidence set: every
/// `POSTERIOR_STRIDE`-th one, offset by the set's index, so the sets of a
/// network cover all its variables between them. (One elimination per
/// variable per set takes tens of seconds on these networks; every
/// variable's marginals are also checked against Pr(e) by their sum.)
fn posterior_vars(n: usize, set: usize) -> impl Iterator<Item = usize> {
    (set % POSTERIOR_STRIDE..n).step_by(POSTERIOR_STRIDE)
}

const POSTERIOR_STRIDE: usize = 4;

/// Computes the oracle values of every evidence set, on two threads.
fn oracle_values(
    cfg: &BnConfig,
    bn: &BayesNet,
    prepared: Option<&PreparedCircuit>,
    evidence: &[Evidence],
    weights: &[LitWeights],
) -> Vec<Expected> {
    let one = |i: usize| -> Expected {
        let e = &evidence[i];
        match cfg.oracle {
            OracleKind::VariableElimination => Expected {
                pr: bnl::ve_pr_evidence(bn, e),
                posterior_true: posterior_vars(bn.num_vars(), i)
                    .map(|v| (v, bnl::ve_posterior(bn, v, e)[1]))
                    .collect(),
                mpe: bnl::mpe_value_min_degree(bn, e),
                scalar_marginals: Vec::new(),
            },
            OracleKind::ScalarPasses => {
                let p = prepared.expect("scalar oracle needs the circuit");
                let pr = nnf::scalar_wmc(p, &weights[i]);
                let (_, scalar_marginals) = nnf::scalar_marginals(p, &weights[i]);
                Expected {
                    pr,
                    scalar_marginals,
                    ..Expected::default()
                }
            }
        }
    };
    let n = evidence.len();
    std::thread::scope(|s| {
        let odd = s.spawn(|| (1..n).step_by(2).map(one).collect::<Vec<_>>());
        let even: Vec<Expected> = (0..n).step_by(2).map(one).collect();
        let odd = odd.join().expect("oracle thread panicked");
        let mut all = Vec::with_capacity(n);
        let (mut e, mut o) = (even.into_iter(), odd.into_iter());
        for i in 0..n {
            all.push(if i % 2 == 0 { e.next() } else { o.next() }.expect("one value per set"));
        }
        all
    })
}

impl BnLoop {
    fn engine(&self) -> &Engine {
        self.engine.as_ref().expect("set up before use")
    }
}

impl ClosedLoop for BnLoop {
    /// Builds the engine and compiles every network; returns the set-up
    /// time (engine construction, compiles, `warm()`) and each network's
    /// cold start (compile, warm, first answers), ms.
    fn set_up(&mut self) -> Result<(f64, Vec<f64>), String> {
        // The previous set-up's engine is dropped (its workers joined)
        // before the next one is built.
        self.engine = None;
        release_freed_memory();
        let t = Instant::now();
        let engine = eng::default_engine(BUDGET_NODES);
        let mut setup = t.elapsed().as_secs_f64();
        let mut cold = Vec::new();
        for net in &mut self.nets {
            let t = Instant::now();
            let (key, circuit) = eng::compile(&engine, &net.enc.cnf);
            nnf::warm(&circuit);
            setup += t.elapsed().as_secs_f64();
            let first: Vec<Query> = self
                .cfg
                .kinds
                .iter()
                .map(|&k| make_query(k, &net.weights[0]))
                .collect();
            eng::run_batch(&engine, &circuit, first)?;
            cold.push(t.elapsed().as_secs_f64() * 1e3);
            net.key = key;
            net.circuit = Some(circuit);
        }
        self.engine = Some(engine);
        Ok((setup, cold))
    }

    fn prepare(&mut self, out: &mut Outcome, traced: bool) -> Result<(), String> {
        let t = Instant::now();
        let cfg = self.cfg;
        for net in &mut self.nets {
            net.expected = oracle_values(
                cfg,
                &net.bn,
                net.circuit.as_deref(),
                &net.evidence,
                &net.weights,
            );
        }
        out.notes.push(format!(
            "{}: {} networks, tape nodes {:?}; oracle values of {} evidence sets in {:.2} s",
            cfg.name,
            self.nets.len(),
            self.nets
                .iter()
                .map(|n| nnf::tape_nodes(n.circuit.as_ref().expect("set up")))
                .collect::<Vec<_>>(),
            self.nets.len() * cfg.evidence_sets,
            t.elapsed().as_secs_f64()
        ));
        if traced {
            for (i, net) in self.nets.iter().enumerate() {
                replay_compile(&mut out.tracer, u64::MAX - i as u64, None, &net.enc.cnf);
            }
        }
        Ok(())
    }

    fn submit(&mut self, trace: Option<(&mut Tracer, u64)>) -> Submitted {
        let spec = self.stream.next_spec();
        let net = &self.nets[spec.net];
        let circuit = net.circuit.as_ref().expect("set up");
        let queries: Vec<Query> = spec
            .items
            .iter()
            .map(|&(k, ev)| make_query(k, &net.weights[ev]))
            .collect();
        let n = queries.len();
        if trace.is_some() {
            self.last_queries = queries.clone();
        }
        let start = Instant::now();
        let result = eng::run_batch(self.engine(), circuit, queries);
        let end = Instant::now();
        if let Some((tracer, id)) = trace {
            let root = tracer.span("request", start, end, None, id);
            tracer.span("engine.run_batch", start, end, Some(root), id);
        }
        self.last_latency_us = (end - start).as_secs_f64() * 1e6;
        let error = match result {
            Ok(answers) => {
                self.last = Some((spec, answers));
                None
            }
            Err(e) => {
                self.last = None;
                Some(e)
            }
        };
        Submitted {
            latency_us: self.last_latency_us,
            queries: n,
            cold: false,
            error,
        }
    }

    fn check(&mut self) -> Result<(), String> {
        let (spec, answers) = self.last.as_ref().ok_or("no answers")?;
        if answers.len() != spec.items.len() {
            return Err(format!(
                "{} answers to {} queries",
                answers.len(),
                spec.items.len()
            ));
        }
        let net = &self.nets[spec.net];
        for (&(kind, ev), answer) in spec.items.iter().zip(answers) {
            check_answer(
                self.cfg,
                &net.bn,
                &net.enc,
                &net.evidence[ev],
                &net.expected[ev],
                kind,
                answer,
            )
            .map_err(|e| format!("{} net {} evidence {ev}: {e}", self.cfg.name, spec.net))?;
        }
        Ok(())
    }

    fn replay(&mut self, tracer: &mut Tracer, request: u64) -> Result<(), String> {
        let (spec, answers) = self.last.as_ref().ok_or("no answers to replay")?;
        let net = &self.nets[spec.net];
        let circuit = net.circuit.as_ref().expect("set up");
        let root = tracer.open("replay", None, request);
        let dispatched = replay_kernels(
            tracer,
            request,
            Some(root),
            self.engine(),
            circuit,
            &self.last_queries,
        );
        tracer.station(
            "engine.executor.residual_us",
            self.last_latency_us - dispatched,
        );
        let (found, us) = tracer.timed("engine.registry.lookup", Some(root), request, || {
            eng::compile(self.engine(), &net.enc.cnf)
        });
        if found.0 == net.key {
            tracer.station("engine.registry.lookup_us", us);
        }
        let codec = replay_codec(
            tracer,
            request,
            Some(root),
            net.key,
            &self.last_queries,
            answers,
        );
        tracer.close(root, request);
        codec.map(|_| ())
    }

    fn counters(&self) -> Counters {
        eng::counters(self.engine())
    }
}

/// Runs a BN workload.
pub fn run(cfg: &'static BnConfig, opts: &Opts) -> Result<Outcome, String> {
    let mut stream = Stream::new(cfg, opts.seed);
    let nets: Vec<Net> = std::mem::take(&mut stream.nets)
        .into_iter()
        .zip(std::mem::take(&mut stream.evidence))
        .map(|(bn, evidence)| {
            let enc = bnl::encode(&bn);
            let weights = evidence
                .iter()
                .map(|e| bnl::evidence_weights(&enc, e))
                .collect();
            Net {
                bn,
                enc,
                evidence,
                weights,
                expected: Vec::new(),
                circuit: None,
                key: 0,
            }
        })
        .collect();
    let mut out = Outcome::default();
    let mut w = BnLoop {
        cfg,
        stream,
        nets,
        engine: None,
        last: None,
        last_queries: Vec::new(),
        last_latency_us: 0.0,
    };
    drive(&mut w, opts, &mut out)?;
    Ok(out)
}
