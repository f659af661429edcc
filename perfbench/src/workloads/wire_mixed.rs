//! `wire-mixed`: an in-process server on loopback (one reactor, one
//! engine worker) and one client connection that keeps four pipelined
//! frames of eight queries in flight. The library of small formulas spans
//! more than the CPU caches and each query's kernel work is tiny, so the
//! protocol, the reactor and the hand-off to the executor dominate. One
//! frame in eight carries role-2/3 queries (PSDD, path space, classifier).

use std::sync::Arc;
use std::time::{Duration, Instant};

use trl_core::{Assignment, PartialAssignment, Var};
use trl_engine::{Artifact, Engine, Query, QueryAnswer};
use trl_nnf::LitWeights;
use trl_prop::Cnf;
use trl_server::ServerHandle;

use super::{
    engine_rates, replay_codec, replay_compile, replay_kernels, setup_reps, Opts, Outcome,
    MIN_SAMPLES, WARMUP,
};
use crate::gen::{random_3cnf, Digest, Rng};
use crate::layers::engine::{self as eng};
use crate::layers::nnf;
use crate::layers::server::{self as srv, Conn};
use crate::measure::{peak_rss_mib, release_freed_memory, Clock, Tracer, Windows};
use crate::oracle::identical;

/// Formulas compiled over the wire at set-up.
const LIBRARY: usize = 2_000;
const VARS: usize = 20;
const CLAUSES: usize = 60;
/// Distinct circuit frames and role frames the stream draws from.
const CIRCUIT_FRAMES: usize = 2_048;
const ROLE_FRAMES: usize = 256;
/// Queries per frame, frames in flight, and one role frame in this many.
const FRAME_QUERIES: usize = 8;
const DEPTH: usize = 4;
const ROLE_EVERY: usize = 8;
/// Frames between answer checks; checks run with the pipeline drained and
/// the clock stopped. Traced runs also replay at each check.
const CHECK_EVERY: usize = 4_096;
const TRACED_CHECK_EVERY: usize = 256;
/// Library formulas replayed through the compiler in a traced run.
const COMPILE_REPLAYS: usize = 200;
const BUDGET_NODES: usize = 1 << 24;

/// Which artifact a frame addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// A library formula.
    Formula(usize),
    /// The learned PSDD.
    Psdd,
    /// The compiled path space.
    Space,
    /// The compiled classifier.
    Classifier,
}

/// One frame of the pool.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Its artifact.
    pub target: Target,
    /// Its queries.
    pub queries: Vec<Query>,
}

/// The seeded inputs: the formula library, the role recipes, the frame
/// pools and the frame order.
pub struct Stream {
    /// Library formulas.
    pub library: Vec<Cnf>,
    /// The role CNF (PSDD support and classifier).
    pub role_cnf: Cnf,
    /// Weighted complete training examples for the PSDD.
    pub data: Vec<(Assignment, f64)>,
    /// The graph of the path space: nodes, edges, source, target.
    pub graph: (u32, Vec<(u32, u32)>, u32, u32),
    /// Circuit frames then role frames.
    pub frames: Vec<Frame>,
    rng: Rng,
}

/// The role CNF: 8 variables, 6 clauses (as in `bench_roles`).
fn role_cnf() -> Cnf {
    Cnf::parse_dimacs("p cnf 8 6\n1 2 3 0\n-1 4 0\n-2 5 6 0\n-3 7 0\n-4 -8 7 0\n5 -6 8 0\n")
        .expect("fixed CNF parses")
}

/// Every model of a small CNF, by enumeration.
fn models(cnf: &Cnf) -> Vec<Assignment> {
    let n = cnf.num_vars();
    (0u32..1 << n)
        .map(|bits| {
            Assignment::from_values(&(0..n).map(|i| bits >> i & 1 == 1).collect::<Vec<_>>())
        })
        .filter(|a| {
            cnf.clauses().iter().all(|c| {
                c.literals()
                    .iter()
                    .any(|l| a.value(l.var()) == l.is_positive())
            })
        })
        .collect()
}

fn random_weights(rng: &mut Rng, n: usize) -> LitWeights {
    let mut w = LitWeights::unit(n);
    for v in 0..n as u32 {
        let p = 0.05 + 0.9 * rng.uniform();
        w.set(Var(v).positive(), p);
        w.set(Var(v).negative(), 1.0 - p);
    }
    w
}

fn random_evidence(rng: &mut Rng, n: usize, max_lits: usize) -> PartialAssignment {
    let mut pa = PartialAssignment::new(n);
    for _ in 0..rng.below(max_lits + 1) {
        pa.assign(Var(rng.below(n) as u32).literal(rng.coin()));
    }
    pa
}

fn random_instance(rng: &mut Rng, n: usize) -> Assignment {
    Assignment::from_values(&(0..n).map(|_| rng.coin()).collect::<Vec<_>>())
}

impl Stream {
    /// Builds the inputs of `seed`.
    pub fn new(seed: u64) -> Self {
        let mut lib_rng = Rng::derive(seed, 21);
        let library: Vec<Cnf> = (0..LIBRARY)
            .map(|_| random_3cnf(&mut lib_rng, VARS, CLAUSES))
            .collect();
        let cnf = role_cnf();
        let pool = models(&cnf);
        let mut rng = Rng::derive(seed, 22);
        let data: Vec<(Assignment, f64)> = (0..24)
            .map(|_| {
                (
                    pool[rng.below(pool.len())].clone(),
                    1.0 + 3.0 * rng.uniform(),
                )
            })
            .collect();
        let graph = (
            6,
            vec![
                (0, 1),
                (0, 2),
                (1, 2),
                (1, 3),
                (2, 4),
                (3, 4),
                (3, 5),
                (4, 5),
                (1, 4),
            ],
            0,
            5,
        );
        let (n, e) = (cnf.num_vars(), graph.1.len());
        let mut frames = Vec::with_capacity(CIRCUIT_FRAMES + ROLE_FRAMES);
        for _ in 0..CIRCUIT_FRAMES {
            let f = rng.below(LIBRARY);
            let queries = (0..FRAME_QUERIES)
                .map(|_| match rng.below(4) {
                    0 => Query::Wmc(random_weights(&mut rng, VARS)),
                    1 => Query::ModelCountUnder(random_evidence(&mut rng, VARS, 3)),
                    2 => Query::Marginals(random_weights(&mut rng, VARS)),
                    _ => Query::Sat,
                })
                .collect();
            frames.push(Frame {
                target: Target::Formula(f),
                queries,
            });
        }
        for _ in 0..ROLE_FRAMES {
            let target = [Target::Psdd, Target::Space, Target::Classifier][rng.below(3)];
            let queries = (0..FRAME_QUERIES)
                .map(|_| match (target, rng.below(3)) {
                    (Target::Psdd, 0) => Query::PsddLogLikelihood(
                        (0..2 + rng.below(4))
                            .map(|_| (pool[rng.below(pool.len())].clone(), 1.0 + rng.uniform()))
                            .collect(),
                    ),
                    (Target::Psdd, _) => Query::PsddMarginal(random_evidence(&mut rng, n, 2)),
                    (Target::Space, 0) => Query::SpaceTop(random_weights(&mut rng, e)),
                    (Target::Space, _) => Query::SpaceCount(random_evidence(&mut rng, e, 2)),
                    (_, 0) => Query::SufficientReason(random_instance(&mut rng, n)),
                    (_, 1) => Query::DecisionRobustness(random_instance(&mut rng, n)),
                    _ => {
                        let mut vars: Vec<Var> = (0..1 + rng.below(3))
                            .map(|_| Var(rng.below(n) as u32))
                            .collect();
                        vars.sort_unstable();
                        vars.dedup();
                        Query::ClassifierBias(vars)
                    }
                })
                .collect();
            frames.push(Frame { target, queries });
        }
        Stream {
            library,
            role_cnf: cnf,
            data,
            graph,
            frames,
            rng: Rng::derive(seed, 23),
        }
    }

    /// Index of the next frame to send.
    pub fn next_frame(&mut self) -> usize {
        if self.rng.below(ROLE_EVERY) == 0 {
            CIRCUIT_FRAMES + self.rng.below(ROLE_FRAMES)
        } else {
            self.rng.below(CIRCUIT_FRAMES)
        }
    }
}

/// Digest of the first `requests` frames sent, with their content.
pub fn stream_digest(seed: u64, requests: usize) -> u64 {
    let mut s = Stream::new(seed);
    let mut d = Digest::default();
    for _ in 0..requests {
        let i = s.next_frame();
        d.word(i as u64);
        for b in format!("{:?}", s.frames[i]).bytes() {
            d.word(u64::from(b));
        }
    }
    d.finish()
}

/// A frame's answers against its in-process answers, bit for bit.
pub fn check_frame(
    expected: &[QueryAnswer],
    got: &Result<Vec<QueryAnswer>, String>,
) -> Result<(), String> {
    let got = got.as_ref().map_err(|e| format!("typed error: {e}"))?;
    if got.len() != expected.len() || !got.iter().zip(expected).all(|(a, b)| identical(a, b)) {
        return Err("wire answers differ from in-process answers".to_string());
    }
    Ok(())
}

struct Live {
    engine: Arc<Engine>,
    handle: ServerHandle,
    conn: Conn,
    /// Registry key of each library formula.
    keys: Vec<u64>,
    psdd: u64,
    space: u64,
    classifier: u64,
}

struct Received {
    frame: usize,
    result: Result<Vec<QueryAnswer>, String>,
    rtt_us: f64,
}

struct Wire {
    stream: Stream,
    live: Option<Live>,
    expected: Vec<Vec<QueryAnswer>>,
    next_id: u64,
    in_flight: Vec<(u64, usize, Instant)>,
    /// Frames replayed so far (the request ids of their spans).
    replayed: u64,
    /// Requests refused as overloaded, summed over the run's servers.
    overloaded: u64,
}

impl Wire {
    fn live(&mut self) -> &mut Live {
        self.live.as_mut().expect("set up before use")
    }

    fn set_up_into(&mut self, out: &mut Outcome) -> Result<(), String> {
        let (setup, cold) = self.set_up()?;
        out.setup_s.push(setup);
        for c in cold {
            out.cold_ms.push(c);
        }
        Ok(())
    }

    /// Closes the connection and stops the server, joining its threads.
    fn shut_down(&mut self) {
        if let Some(old) = self.live.take() {
            self.overloaded += srv::overloaded(&old.handle);
            drop(old.conn);
            srv::shutdown(old.handle);
        }
    }

    fn key(&self, target: Target) -> u64 {
        let live = self.live.as_ref().expect("set up before use");
        match target {
            Target::Formula(f) => live.keys[f],
            Target::Psdd => live.psdd,
            Target::Space => live.space,
            Target::Classifier => live.classifier,
        }
    }

    /// Builds engine, server and connection, compiles the library and the
    /// role artifacts over the wire and warms every circuit; returns the
    /// set-up time and each formula's cold start (compile, warm, first
    /// answer), ms.
    fn set_up(&mut self) -> Result<(f64, Vec<f64>), String> {
        self.shut_down();
        release_freed_memory();
        let t = Instant::now();
        let engine = eng::engine_with_workers(BUDGET_NODES, 1);
        let handle = srv::bind(Arc::clone(&engine), 1)?;
        let mut conn = Conn::connect(&handle)?;
        let mut setup = t.elapsed().as_secs_f64();
        let mut keys = Vec::with_capacity(LIBRARY);
        let mut cold = Vec::with_capacity(LIBRARY);
        for cnf in &self.stream.library {
            let t = Instant::now();
            let key = conn.compile(cnf)?;
            let circuit = eng::circuit(&engine, key).ok_or("compiled formula not resident")?;
            nnf::warm(&circuit);
            setup += t.elapsed().as_secs_f64();
            conn.send(0, key, vec![Query::ModelCount])?;
            conn.recv()?.1?;
            cold.push(t.elapsed().as_secs_f64() * 1e3);
            keys.push(key);
        }
        let t = Instant::now();
        let s = &self.stream;
        let psdd = conn.learn_psdd(&s.role_cnf, &s.data, 1.0)?;
        let (nodes, edges, src, dst) = &s.graph;
        let space = conn.compile_space(*nodes, edges, *src, *dst)?;
        let classifier = conn.compile_classifier(&s.role_cnf)?;
        setup += t.elapsed().as_secs_f64();
        self.live = Some(Live {
            engine,
            handle,
            conn,
            keys,
            psdd,
            space,
            classifier,
        });
        Ok((setup, cold))
    }

    /// In-process answers of every pool frame, on the same engine.
    fn expected_answers(&self) -> Result<Vec<Vec<QueryAnswer>>, String> {
        let engine = &self.live.as_ref().expect("set up").engine;
        self.stream
            .frames
            .iter()
            .map(|f| {
                let artifact =
                    eng::artifact(engine, self.key(f.target)).ok_or("artifact not resident")?;
                eng::run_artifact_batch(engine, &artifact, f.queries.clone())
            })
            .collect()
    }

    fn send_next(&mut self) -> Result<(), String> {
        let frame = self.stream.next_frame();
        let key = self.key(self.stream.frames[frame].target);
        let queries = self.stream.frames[frame].queries.clone();
        let id = self.next_id;
        self.next_id += 1;
        let sent = Instant::now();
        self.live().conn.send(id, key, queries)?;
        self.in_flight.push((id, frame, sent));
        Ok(())
    }

    fn recv_one(&mut self) -> Result<Received, String> {
        let (id, result) = self.live().conn.recv()?;
        let now = Instant::now();
        let pos = self
            .in_flight
            .iter()
            .position(|f| f.0 == id)
            .ok_or_else(|| format!("response to unknown frame id {id}"))?;
        let (_, frame, sent) = self.in_flight.swap_remove(pos);
        Ok(Received {
            frame,
            result,
            rtt_us: (now - sent).as_secs_f64() * 1e6,
        })
    }

    /// Keeps `DEPTH` frames in flight until `clock` reads `until` (and, if
    /// `min_samples`, that many frames arrived), recording round trips into
    /// `rtts` and checking answers every `check_every` frames with the
    /// pipeline drained. Untraced, the clock stops for the checks; traced,
    /// it runs through them and the replays, so `until` bounds the wall
    /// time of the replays too. Returns the queries answered.
    #[allow(clippy::too_many_arguments)]
    fn pump(
        &mut self,
        clock: &mut Clock,
        rtts: &mut Windows,
        until: Duration,
        min_samples: usize,
        check_every: usize,
        out: &mut Outcome,
        mut tracer: Option<&mut Tracer>,
    ) -> Result<u64, String> {
        clock.resume();
        let mut queries = 0u64;
        let mut batch: Vec<Received> = Vec::with_capacity(check_every);
        loop {
            let more = clock.active() < until
                || (rtts.all.len() < min_samples && clock.active() < 3 * until);
            while more && self.in_flight.len() < DEPTH {
                self.send_next()?;
            }
            if self.in_flight.is_empty() {
                break;
            }
            let r = self.recv_one()?;
            rtts.record(clock.active(), r.rtt_us, FRAME_QUERIES);
            queries += FRAME_QUERIES as u64;
            batch.push(r);
            if batch.len() >= check_every || (!more && self.in_flight.is_empty()) {
                while !self.in_flight.is_empty() {
                    let r = self.recv_one()?;
                    rtts.record(clock.active(), r.rtt_us, FRAME_QUERIES);
                    queries += FRAME_QUERIES as u64;
                    batch.push(r);
                }
                if tracer.is_none() {
                    clock.pause();
                }
                for r in batch.drain(..) {
                    let verdict = check_frame(&self.expected[r.frame], &r.result);
                    let ok = verdict.is_ok();
                    out.tally.record(verdict);
                    if let (Some(t), true) = (tracer.as_deref_mut(), ok) {
                        if let Err(e) = self.replay(t, &r) {
                            out.tally.fail_after_the_fact(format!("replay: {e}"));
                        }
                    }
                }
                clock.resume();
            }
        }
        clock.pause();
        Ok(queries)
    }

    /// Runs the pipeline for [`WARMUP`] without measuring it.
    fn warm(&mut self, out: &mut Outcome) -> Result<(), String> {
        let mut clock = Clock::stopped();
        let mut rtts = Windows::default();
        self.pump(&mut clock, &mut rtts, WARMUP, 0, CHECK_EVERY, out, None)
            .map(|_| ())
    }

    /// Replays one answered frame through the per-layer entry points.
    fn replay(&mut self, tracer: &mut Tracer, r: &Received) -> Result<(), String> {
        let request = self.replayed;
        self.replayed += 1;
        let frame = &self.stream.frames[r.frame];
        let key = self.key(frame.target);
        let live = self.live.as_ref().expect("set up");
        let engine = &live.engine;
        let artifact = eng::artifact(engine, key).ok_or("artifact not resident")?;
        let root = tracer.open("replay", None, request);
        let (answers, exec_us) =
            tracer.timed("engine.run_artifact_batch", Some(root), request, || {
                eng::run_artifact_batch(engine, &artifact, frame.queries.clone())
            });
        let answers = answers?;
        let codec_us = replay_codec(tracer, request, Some(root), key, &frame.queries, &answers)?;
        tracer.station("server.residual_us", r.rtt_us - exec_us - codec_us);
        match (frame.target, &artifact) {
            (Target::Formula(f), Artifact::Circuit(circuit)) => {
                let dispatched =
                    replay_kernels(tracer, request, Some(root), engine, circuit, &frame.queries);
                tracer.station("engine.executor.residual_us", exec_us - dispatched);
                let (_, us) = tracer.timed("engine.registry.lookup", Some(root), request, || {
                    eng::compile(engine, &self.stream.library[f])
                });
                tracer.station("engine.registry.lookup_us", us);
            }
            (Target::Psdd, _) => tracer.station("roles.psdd_us", exec_us),
            (Target::Space, _) => tracer.station("roles.space_us", exec_us),
            (Target::Classifier, _) => tracer.station("roles.classifier_us", exec_us),
            _ => {
                return Err(format!(
                    "{:?} addresses a {}",
                    frame.target,
                    artifact.kind().name()
                ))
            }
        }
        tracer.close(root, request);
        Ok(())
    }
}

/// Runs `wire-mixed`.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut w = Wire {
        stream: Stream::new(opts.seed),
        live: None,
        expected: Vec::new(),
        next_id: 1,
        in_flight: Vec::new(),
        replayed: 0,
        overloaded: 0,
    };
    let result = measure(&mut w, opts, &mut out);
    if let Err(e) = &result {
        // A broken connection fails every frame still in flight.
        for _ in 0..w.in_flight.len().max(1) {
            out.tally.record(Err(format!("connection: {e}")));
        }
    }
    w.shut_down();
    out.direct.push(("server.overloaded", w.overloaded as f64));
    out.notes.push(format!(
        "wire-mixed: {LIBRARY} formulas + 3 role artifacts over one connection, depth {DEPTH} x {FRAME_QUERIES} queries; \
         {} overloaded",
        w.overloaded
    ));
    if w.expected.is_empty() {
        // The first set-up failed: there is nothing to report.
        result?;
    }
    Ok(out)
}

/// Sets up, checks the first set-up's answers in process, and measures:
/// untraced, one slice of the phase per set-up (as in `drive`); traced,
/// one set-up, an untraced third and a traced two thirds.
fn measure(w: &mut Wire, opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let measured = Duration::from_secs_f64(opts.seconds);
    w.set_up_into(out)?;
    w.expected = w.expected_answers()?;
    if opts.traced {
        for (i, cnf) in w.stream.library.iter().take(COMPILE_REPLAYS).enumerate() {
            replay_compile(&mut out.tracer, u64::MAX - i as u64, None, cnf);
        }
    }
    let mut clock = Clock::stopped();
    let mut rtts = Windows::default();
    if !opts.traced {
        let reps = setup_reps(opts);
        for r in 0..reps {
            if r > 0 {
                w.set_up_into(out)?;
            }
            w.warm(out)?;
            let until = measured * (r + 1) as u32 / reps as u32;
            let min = if r + 1 == reps { MIN_SAMPLES } else { 0 };
            out.queries += w.pump(&mut clock, &mut rtts, until, min, CHECK_EVERY, out, None)?;
        }
        out.windows = rtts;
        out.active = clock.active();
        out.peak_rss_mb = peak_rss_mib();
        return Ok(());
    }
    w.warm(out)?;
    let before = eng::counters(&w.live().engine);
    let queries = w.pump(
        &mut clock,
        &mut rtts,
        measured / 3,
        0,
        CHECK_EVERY,
        out,
        None,
    )?;
    let after = eng::counters(&w.live().engine);
    engine_rates(
        &before,
        &after,
        rtts.all.len() as u64,
        queries,
        &mut out.direct,
    );
    let mut tracer = std::mem::take(&mut out.tracer);
    let mut traced_clock = Clock::stopped();
    let mut traced_rtts = Windows::default();
    let traced = w.pump(
        &mut traced_clock,
        &mut traced_rtts,
        measured - measured / 3,
        0,
        TRACED_CHECK_EVERY,
        out,
        Some(&mut tracer),
    );
    out.tracer = tracer;
    traced?;
    out.overhead = Some((rtts.all, traced_rtts.all));
    Ok(())
}
