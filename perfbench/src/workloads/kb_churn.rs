//! `kb-churn`: knowledge bases arriving and leaving. The registry's node
//! budget holds about a quarter of a formula library; about four requests
//! in five reuse a Zipf-popular library formula and one in five brings a
//! formula never seen before. Every request calls `Engine::compile` and
//! then answers a batch of four (two WMC, two counts under evidence), so
//! registry misses, inserts and evictions happen beside its hits, with the
//! compiler, smoothing and tape build on the request path.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use trl_core::{PartialAssignment, Var};
use trl_engine::{Engine, PreparedCircuit, Query, QueryAnswer};
use trl_nnf::LitWeights;
use trl_prop::Cnf;

use super::{
    drive, replay_codec, replay_compile, replay_kernels, ClosedLoop, Opts, Outcome, Submitted,
};
use crate::gen::{random_3cnf, Digest, Rng, Zipf};
use crate::layers::compiler::SddOracle;
use crate::layers::engine::{self as eng, Counters};
use crate::layers::nnf;
use crate::measure::{release_freed_memory, Tracer};
use crate::oracle::{expect_close, identical};

/// Formulas in the popular library, and the fixed seed they are drawn from.
const LIBRARY: usize = 3_200;
const LIBRARY_SEED: u64 = 0x6b62_6368_7572_6e00;
/// Variables and clauses of every formula (clause/variable ratio 3.33:
/// satisfiable, with about a millisecond of compile each).
const VARS: usize = 30;
const CLAUSES: usize = 100;
/// The registry budget: about a quarter of the library's compiled nodes
/// (about 540 arena nodes per formula).
const BUDGET_NODES: usize = 430_000;
/// Library formulas set-up compiles (the most popular quarter).
const RESIDENT: usize = LIBRARY / 4;
/// Popularity skew of the library. With the budget holding the top
/// quarter, about three requests in ten miss (the fresh fifth plus popular
/// formulas pushed out), so the hit mode holds the median request.
const ZIPF_S: f64 = 1.2;
/// One request in this many brings a never-seen formula.
const FRESH_EVERY: usize = 5;
/// Query variants per formula: repeated (formula, variant) pairs must get
/// bit-identical answers whether the formula was resident or recompiled.
const VARIANTS: usize = 4;
/// Formulas (half from the library, half fresh) whose answers are checked
/// against the SDD compiler, and the most requests kept for that check.
const SDD_SAMPLE: usize = 4;
const SDD_REQUESTS: usize = 32;

/// A formula: a library rank or the n-th never-seen one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FormulaId {
    /// Rank in the library (0 most popular).
    Library(usize),
    /// The n-th fresh formula of the stream.
    Fresh(u64),
}

/// One request.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Its formula.
    pub formula: FormulaId,
    /// Which query variant of that formula.
    pub variant: usize,
}

/// The seeded inputs.
pub struct Stream {
    seed: u64,
    /// The library, in popularity order.
    pub library: Vec<Cnf>,
    zipf: Zipf,
    rng: Rng,
    fresh: u64,
}

impl Stream {
    /// Builds the inputs of `seed`. The library is the same for every
    /// seed (its most popular formulas set the cost of most hits, and a
    /// seed-drawn library would move that cost from run to run); the seed
    /// draws the request order, the query variants and the fresh formulas.
    pub fn new(seed: u64) -> Self {
        let mut lib_rng = Rng::new(LIBRARY_SEED);
        Stream {
            seed,
            library: (0..LIBRARY)
                .map(|_| random_3cnf(&mut lib_rng, VARS, CLAUSES))
                .collect(),
            zipf: Zipf::new(LIBRARY, ZIPF_S),
            rng: Rng::derive(seed, 12),
            fresh: 0,
        }
    }

    /// The next request.
    pub fn next_spec(&mut self) -> Spec {
        let formula = if self.rng.below(FRESH_EVERY) == 0 {
            self.fresh += 1;
            FormulaId::Fresh(self.fresh - 1)
        } else {
            FormulaId::Library(self.zipf.sample(&mut self.rng))
        };
        Spec {
            formula,
            variant: self.rng.below(VARIANTS),
        }
    }

    /// The CNF of a formula.
    pub fn cnf(&self, id: FormulaId) -> Cnf {
        match id {
            FormulaId::Library(i) => self.library[i].clone(),
            FormulaId::Fresh(n) => {
                random_3cnf(&mut Rng::derive(self.seed, 1_000 + n), VARS, CLAUSES)
            }
        }
    }

    /// The queries of a (formula, variant): two WMC under random
    /// normalized weights, two counts under one to three evidence literals.
    pub fn queries(&self, spec: Spec) -> Vec<Query> {
        let salt = match spec.formula {
            FormulaId::Library(i) => i as u64,
            FormulaId::Fresh(n) => (1 << 40) + n,
        };
        let mut rng = Rng::derive(self.seed ^ salt.wrapping_mul(31), 100 + spec.variant as u64);
        let mut out = Vec::with_capacity(4);
        for _ in 0..2 {
            let mut w = LitWeights::unit(VARS);
            for v in 0..VARS as u32 {
                let p = 0.05 + 0.9 * rng.uniform();
                w.set(Var(v).positive(), p);
                w.set(Var(v).negative(), 1.0 - p);
            }
            out.push(Query::Wmc(w));
        }
        for _ in 0..2 {
            let mut pa = PartialAssignment::new(VARS);
            for _ in 0..1 + rng.below(3) {
                pa.assign(Var(rng.below(VARS) as u32).literal(rng.coin()));
            }
            out.push(Query::ModelCountUnder(pa));
        }
        out
    }
}

/// Digest of the first `requests` requests and their formulas.
pub fn stream_digest(seed: u64, requests: usize) -> u64 {
    let mut s = Stream::new(seed);
    let mut d = Digest::default();
    for _ in 0..requests {
        let spec = s.next_spec();
        let (tag, n) = match spec.formula {
            FormulaId::Library(i) => (0, i as u64),
            FormulaId::Fresh(n) => (1, n),
        };
        d.word(tag);
        d.word(n);
        d.word(spec.variant as u64);
        for clause in s.cnf(spec.formula).clauses() {
            for l in clause.literals() {
                d.word(u64::from(l.code()));
            }
        }
    }
    d.finish()
}

/// Checks the answers of one request without an oracle of its own: types
/// and counts, and ranges (counts within 2^n, WMC of normalized weights
/// within [0, 1]).
pub fn check_shape(queries: &[Query], answers: &[QueryAnswer]) -> Result<(), String> {
    if answers.len() != queries.len() {
        return Err(format!(
            "{} answers to {} queries",
            answers.len(),
            queries.len()
        ));
    }
    for (q, a) in queries.iter().zip(answers) {
        match (q, a) {
            (Query::Wmc(_), QueryAnswer::Wmc(x)) if (0.0..=1.0 + 1e-9).contains(x) => {}
            (Query::ModelCountUnder(_), QueryAnswer::ModelCount(n)) if *n <= 1u128 << VARS => {}
            _ => return Err(format!("{} answered with {a:?}", q.kind())),
        }
    }
    Ok(())
}

/// Checks answers against the SDD compiler's counts.
pub fn check_with_sdd(
    sdd: &mut SddOracle,
    queries: &[Query],
    answers: &[QueryAnswer],
) -> Result<(), String> {
    for (q, a) in queries.iter().zip(answers) {
        match (q, a) {
            (Query::Wmc(w), QueryAnswer::Wmc(x)) => {
                expect_close("WMC vs SDD", *x, sdd.wmc(w), 0.0)?
            }
            (Query::ModelCountUnder(pa), QueryAnswer::ModelCount(n)) => {
                let want = sdd.count_under(pa);
                if *n != want {
                    return Err(format!("count under evidence: got {n}, SDD {want}"));
                }
            }
            _ => return Err(format!("{} answered with {a:?}", q.kind())),
        }
    }
    Ok(())
}

struct Last {
    spec: Spec,
    cnf: Cnf,
    queries: Vec<Query>,
    answers: Vec<QueryAnswer>,
    circuit: Arc<PreparedCircuit>,
    key: u64,
    cold: bool,
    compile_us: f64,
    batch_us: f64,
}

/// The workload bound to a live engine.
pub struct ChurnLoop {
    stream: Stream,
    engine: Option<Arc<Engine>>,
    last: Option<Last>,
    /// First answers per (formula, variant).
    seen: HashMap<(FormulaId, usize), Vec<QueryAnswer>>,
    /// Requests kept for the SDD check after the measured phase.
    sampled: Vec<(FormulaId, Cnf, Vec<Query>, Vec<QueryAnswer>)>,
    sampled_formulas: Vec<FormulaId>,
}

impl ChurnLoop {
    fn engine(&self) -> &Engine {
        self.engine.as_ref().expect("set up before use")
    }
}

impl ClosedLoop for ChurnLoop {
    /// Builds the engine and compiles the most popular quarter of the
    /// library; returns the set-up time.
    fn set_up(&mut self) -> Result<(f64, Vec<f64>), String> {
        self.engine = None;
        release_freed_memory();
        let t = Instant::now();
        let engine = eng::default_engine(BUDGET_NODES);
        for cnf in &self.stream.library[..RESIDENT] {
            let (_, circuit) = eng::compile(&engine, cnf);
            nnf::warm(&circuit);
        }
        self.engine = Some(engine);
        Ok((t.elapsed().as_secs_f64(), Vec::new()))
    }

    fn submit(&mut self, trace: Option<(&mut Tracer, u64)>) -> Submitted {
        let spec = self.stream.next_spec();
        let cnf = self.stream.cnf(spec.formula);
        let queries = self.stream.queries(spec);
        let kept = queries.clone();
        let start = Instant::now();
        let (key, circuit) = eng::compile(self.engine(), &cnf);
        let compiled = Instant::now();
        let cold = !nnf::is_warm(&circuit);
        let result = eng::run_batch(self.engine(), &circuit, queries);
        let end = Instant::now();
        if let Some((tracer, id)) = trace {
            let root = tracer.span("request", start, end, None, id);
            tracer.span("engine.compile", start, compiled, Some(root), id);
            tracer.span("engine.run_batch", compiled, end, Some(root), id);
        }
        let latency_us = (end - start).as_secs_f64() * 1e6;
        let (answers, error) = match result {
            Ok(a) => (a, None),
            Err(e) => (Vec::new(), Some(e)),
        };
        self.last = Some(Last {
            spec,
            cnf,
            queries: kept,
            answers,
            circuit,
            key,
            cold,
            compile_us: (compiled - start).as_secs_f64() * 1e6,
            batch_us: (end - compiled).as_secs_f64() * 1e6,
        });
        Submitted {
            latency_us,
            queries: 4,
            cold,
            error,
        }
    }

    fn check(&mut self) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no answers")?;
        check_shape(&last.queries, &last.answers)?;
        let key = (last.spec.formula, last.spec.variant);
        match self.seen.get(&key) {
            Some(first) => {
                if !first
                    .iter()
                    .zip(&last.answers)
                    .all(|(a, b)| identical(a, b))
                {
                    return Err(format!("{:?}: answers changed between requests", last.spec));
                }
            }
            None => {
                self.seen.insert(key, last.answers.clone());
            }
        }
        let formula = last.spec.formula;
        let fresh = matches!(formula, FormulaId::Fresh(_));
        if !self.sampled_formulas.contains(&formula)
            && self
                .sampled_formulas
                .iter()
                .filter(|f| matches!(f, FormulaId::Fresh(_)) == fresh)
                .count()
                < SDD_SAMPLE / 2
        {
            self.sampled_formulas.push(formula);
        }
        if self.sampled_formulas.contains(&formula) && self.sampled.len() < SDD_REQUESTS {
            self.sampled.push((
                formula,
                last.cnf.clone(),
                last.queries.clone(),
                last.answers.clone(),
            ));
        }
        Ok(())
    }

    fn replay(&mut self, tracer: &mut Tracer, request: u64) -> Result<(), String> {
        let last = self.last.as_ref().ok_or("no answers to replay")?;
        let root = tracer.open("replay", None, request);
        if last.cold {
            replay_compile(tracer, request, Some(root), &last.cnf);
        } else {
            tracer.station("engine.registry.lookup_us", last.compile_us);
        }
        let dispatched = replay_kernels(
            tracer,
            request,
            Some(root),
            self.engine(),
            &last.circuit,
            &last.queries,
        );
        tracer.station("engine.executor.residual_us", last.batch_us - dispatched);
        let codec = replay_codec(
            tracer,
            request,
            Some(root),
            last.key,
            &last.queries,
            &last.answers,
        );
        tracer.close(root, request);
        codec.map(|_| ())
    }

    fn counters(&self) -> Counters {
        eng::counters(self.engine())
    }
}

/// Runs `kb-churn`.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut w = ChurnLoop {
        stream: Stream::new(opts.seed),
        engine: None,
        last: None,
        seen: HashMap::new(),
        sampled: Vec::new(),
        sampled_formulas: Vec::new(),
    };
    drive(&mut w, opts, &mut out)?;
    let resident = w.counters().retained_nodes;
    let t = Instant::now();
    let mut sdds: HashMap<FormulaId, SddOracle> = HashMap::new();
    for (formula, cnf, queries, answers) in &w.sampled {
        let sdd = sdds.entry(*formula).or_insert_with(|| SddOracle::new(cnf));
        if let Err(e) = check_with_sdd(sdd, queries, answers) {
            out.tally
                .fail_after_the_fact(format!("kb-churn {formula:?} SDD oracle: {e}"));
        }
    }
    let checked = w.sampled.len();
    out.notes.push(format!(
        "kb-churn: {LIBRARY} library formulas ({RESIDENT} compiled at set-up), budget {BUDGET_NODES} nodes, \
         {} resident nodes at the end; {checked} requests over {} formulas re-checked against SDDs in {:.2} s",
        resident,
        w.sampled_formulas.len(),
        t.elapsed().as_secs_f64()
    ));
    Ok(out)
}
