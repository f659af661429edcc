//! The four workloads and the closed loop they share.
//!
//! Every workload is driven by one generator thread that waits for each
//! answer before sending more (a closed loop), because the callers of this
//! system are programs that wait for answers. An untraced run sets the
//! program up [`SETUP_REPS`] times, each set-up followed by a slice of the
//! measured phase (see [`drive`]); `setup_s` is the median set-up.
//!
//! [`NAMES`] are the workloads `BENCHMARK.json` gates; [`EXTRA`] ones run
//! the same way by hand.

use std::time::{Duration, Instant};

use std::hint::black_box;

use trl_engine::{Query, QueryAnswer};
use trl_nnf::LitWeights;
use trl_prop::Cnf;

use crate::layers::engine::Counters;
use crate::layers::{compiler, engine, nnf, server};
use crate::measure::{peak_rss_mib, Clock, Samples, Tally, Tracer, Windows};
use crate::report::{Report, END_TO_END, PER_LAYER};

pub mod bn;
pub mod kb_churn;
pub mod wire_mixed;

/// The gated workloads, as `--workload` takes them (and as
/// `BENCHMARK.json` lists them).
pub const NAMES: [&str; 2] = ["wire-mixed", "kb-churn"];

/// Workloads `--workload` also takes but `BENCHMARK.json` does not gate:
/// on a shared 2-vCPU host the speed of their kernel sweeps halved for
/// minutes at a time while other tenants ran, more than any bound allows
/// (see the README).
pub const EXTRA: [&str; 2] = ["bn-infer", "bn-large"];

/// Set-ups per untraced run; `setup_s` and the set-up-derived cold starts
/// are medians over them. Traced runs set up once.
pub const SETUP_REPS: usize = 5;

/// Set-ups a run makes: all of them untraced, one traced.
pub fn setup_reps(opts: &Opts) -> usize {
    if opts.traced {
        1
    } else {
        SETUP_REPS
    }
}

/// Latency samples the measured phase must reach so that `p99_us` has ten
/// samples beyond it; the phase runs past `--seconds` (up to three times
/// as long) until it does.
pub(crate) const MIN_SAMPLES: usize = 1_010;

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct Opts {
    /// One of [`NAMES`].
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub traced: bool,
}

/// Runs one workload and returns its report; an error means the run could
/// not be carried out at all (set-up failed).
pub fn run(opts: &Opts) -> Result<Report, String> {
    let mut out = match opts.workload.as_str() {
        "bn-infer" => bn::run(&bn::BN_INFER, opts)?,
        "bn-large" => bn::run(&bn::BN_LARGE, opts)?,
        "wire-mixed" => wire_mixed::run(opts)?,
        "kb-churn" => kb_churn::run(opts)?,
        other => {
            return Err(format!(
                "unknown workload {other}; expected one of {NAMES:?} or {EXTRA:?}"
            ))
        }
    };
    if opts.traced {
        let path = write_trace(&opts.workload, &out.tracer)?;
        out.notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(out.finish(opts.traced))
}

/// Digest of the first `requests` requests of a workload's stream: a pure
/// function of the seed (no program code runs).
pub fn stream_digest(workload: &str, seed: u64, requests: usize) -> Result<u64, String> {
    match workload {
        "bn-infer" => Ok(bn::stream_digest(&bn::BN_INFER, seed, requests)),
        "bn-large" => Ok(bn::stream_digest(&bn::BN_LARGE, seed, requests)),
        "wire-mixed" => Ok(wire_mixed::stream_digest(seed, requests)),
        "kb-churn" => Ok(kb_churn::stream_digest(seed, requests)),
        other => Err(format!("unknown workload {other}")),
    }
}

/// One request as the closed loop sees it.
pub struct Submitted {
    /// Submit-to-last-answer latency, µs.
    pub latency_us: f64,
    /// Queries the request carried.
    pub queries: usize,
    /// Whether its formula was not resident (compile on the request path).
    pub cold: bool,
    /// A typed error instead of answers.
    pub error: Option<String>,
}

/// An in-process workload: submits one request at a time, then checks and
/// (traced runs) replays it.
pub trait ClosedLoop {
    /// Sets the program up afresh, dropping the previous set-up first;
    /// returns the set-up time (s) and the cold starts it observed (ms).
    fn set_up(&mut self) -> Result<(f64, Vec<f64>), String>;
    /// Runs once after the first set-up: computes oracle values and, in a
    /// traced run, replays the resident set through the compiler.
    fn prepare(&mut self, _out: &mut Outcome, _traced: bool) -> Result<(), String> {
        Ok(())
    }
    /// Submits the next request of the stream; with a tracer, records spans
    /// around its calls into the program under request id `request`.
    fn submit(&mut self, trace: Option<(&mut Tracer, u64)>) -> Submitted;
    /// Checks the last request's answers against the oracle.
    fn check(&mut self) -> Result<(), String>;
    /// Replays the last request through the per-layer entry points; an
    /// error (a replay that disagrees or fails) fails the request.
    fn replay(&mut self, tracer: &mut Tracer, request: u64) -> Result<(), String>;
    /// Registry and executor counters of the engine under test.
    fn counters(&self) -> Counters;
}

/// Everything a run measured, before it becomes a [`Report`].
#[derive(Default)]
pub struct Outcome {
    /// Per-repetition set-up time, s.
    pub setup_s: Samples,
    /// Cold-start latencies (compile, prepare, first answers), ms.
    pub cold_ms: Samples,
    /// Measured-phase request latencies (µs) and queries, by window.
    pub windows: Windows,
    /// Queries answered in the measured phase.
    pub queries: u64,
    /// Active length of the measured phase.
    pub active: Duration,
    /// Requests attempted and failed, the whole run.
    pub tally: Tally,
    /// Traced run: span recorder and station series.
    pub tracer: Tracer,
    /// Traced run: p50 of the untraced and the traced sub-phase.
    pub overhead: Option<(Samples, Samples)>,
    /// Per-layer values measured directly (not as a series).
    pub direct: Vec<(&'static str, f64)>,
    /// Lines describing the run, printed before the result.
    pub notes: Vec<String>,
    /// Peak resident set at the end of the measured phase, before any
    /// oracle that runs afterwards allocates, MiB.
    pub peak_rss_mb: f64,
}

impl Outcome {
    /// Folds the measurements into the report of the requested mode and
    /// prints the human-readable summary.
    fn finish(&mut self, traced: bool) -> Report {
        let mut report = Report::from_tally(&self.tally);
        for n in &self.notes {
            println!("{n}");
        }
        println!(
            "requests: {} attempted, {} failed; oracle verdict: {}",
            self.tally.attempted,
            self.tally.failed,
            if report.correct {
                "all answers correct"
            } else {
                "WRONG ANSWERS OR ERRORS"
            }
        );
        for r in &self.tally.reasons {
            println!("  failure: {r}");
        }
        if !traced {
            let active = self.active.as_secs_f64();
            let pairs = [
                ("qps", self.windows.qps(self.active)),
                ("p50_us", self.windows.percentile(0.50)),
                ("p99_us", self.windows.percentile(0.99)),
                ("cold_p50_ms", self.cold_ms.median()),
                ("setup_s", self.setup_s.median()),
                ("peak_rss_mb", Some(self.peak_rss_mb)),
            ];
            for (name, v) in pairs {
                if let Some(v) = v {
                    report.set(name, v);
                }
            }
            println!(
                "measured phase: {:.3} s active, {} requests, {} queries; {} cold samples; set-ups {:.3?} s",
                active,
                self.windows.all.len(),
                self.queries,
                self.cold_ms.len(),
                self.setup_s.values()
            );
            let ladder: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
                .iter()
                .map(|&q| {
                    let v = self.windows.all.percentile(q);
                    format!(
                        "p{}={}",
                        q * 100.0,
                        v.map_or("n/a".into(), |v| format!("{v:.1}"))
                    )
                })
                .collect();
            println!(
                "latency ladder over the whole phase (us): {}",
                ladder.join(" ")
            );
            println!(
                "per window: qps {:.0?}; p50 {:.1?}; p99 {:.1?}",
                self.windows.rates(self.active).values(),
                self.windows.group_percentiles(0.5).values(),
                self.windows.group_percentiles(0.99).values()
            );
            for m in END_TO_END {
                match report.values.get(m.name) {
                    Some(v) => println!("  {:<28} {:>14.4} {}", m.name, v, m.unit),
                    None => println!("  {:<28} {:>14} {}", m.name, "not measured", m.unit),
                }
            }
            return report;
        }
        if let Some((base, traced_lat)) = &self.overhead {
            if let (Some(b), Some(t)) = (base.percentile(0.5), traced_lat.percentile(0.5)) {
                report.set("trace.overhead", t / b);
            }
        }
        for &(name, v) in &self.direct {
            report.set(name, v);
        }
        println!("stations (traced replays; residual rows are what no station accounts for):");
        println!(
            "  {:<36} {:>8} {:>14} {:>14}",
            "station", "samples", "p50", "p99"
        );
        for (name, s) in &self.tracer.stations {
            let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |v| format!("{v:.3}"));
            println!(
                "  {:<36} {:>8} {:>14} {:>14}",
                name,
                s.len(),
                fmt(s.median()),
                fmt(s.percentile(0.99))
            );
        }
        for m in PER_LAYER {
            if report.values.contains_key(m.name) {
                continue;
            }
            // A layer this workload never reaches reports 0.
            let v = self.tracer.stations.get(m.name).and_then(Samples::median);
            report.set(m.name, v.unwrap_or(0.0));
        }
        for m in PER_LAYER {
            println!(
                "  {:<36} {:>14.4} {}",
                m.name, report.values[m.name], m.unit
            );
        }
        report
    }
}

/// Unmeasured warm-up after each set-up: caches fill and lazy set-up
/// finishes before the clock runs.
pub const WARMUP: Duration = Duration::from_millis(500);

/// Drives a [`ClosedLoop`] workload.
///
/// Untraced: the measured phase is cut into one slice per set-up. Each
/// slice sets the program up afresh (the first set-up also prepares the
/// oracle), warms up, and measures its share of `--seconds`; set-ups and
/// measurement thus interleave across the whole run instead of sampling
/// the host at one moment.
///
/// Traced: one set-up, then an untraced third (the overhead baseline, and
/// the window the engine counters are read over) and a traced two thirds
/// with replays.
pub fn drive<W: ClosedLoop>(w: &mut W, opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let measured = Duration::from_secs_f64(opts.seconds);
    let reps = setup_reps(opts);
    let mut clock = Clock::stopped();
    let mut windows = Windows::default();
    let mut requests = 0u64;
    let before = if opts.traced {
        set_up(w, out)?;
        w.prepare(out, true)?;
        warm(w, out);
        w.counters()
    } else {
        Counters::default()
    };
    let plain_slices: Vec<Duration> = if opts.traced {
        vec![measured / 3]
    } else {
        (1..=reps)
            .map(|r| measured * r as u32 / reps as u32)
            .collect()
    };
    for (r, &until) in plain_slices.iter().enumerate() {
        if !opts.traced {
            set_up(w, out)?;
            if r == 0 {
                w.prepare(out, false)?;
            }
            warm(w, out);
        }
        let last = r + 1 == plain_slices.len();
        clock.resume();
        while clock.active() < until
            || (!opts.traced
                && last
                && windows.all.len() < MIN_SAMPLES
                && clock.active() < 3 * until)
        {
            let submitted = w.submit(None);
            clock.pause();
            windows.record(clock.active(), submitted.latency_us, submitted.queries);
            out.queries += submitted.queries as u64;
            if submitted.cold {
                out.cold_ms.push(submitted.latency_us / 1e3);
            }
            requests += 1;
            let v = verdict(submitted.error, || w.check());
            out.tally.record(v);
            clock.resume();
        }
        clock.pause();
    }
    out.active = clock.active();
    out.peak_rss_mb = peak_rss_mib();
    if !opts.traced {
        out.windows = windows;
        return Ok(());
    }

    engine_rates(
        &before,
        &w.counters(),
        requests,
        out.queries,
        &mut out.direct,
    );
    let mut traced_latency = Samples::default();
    let start = Instant::now();
    let mut id = 0u64;
    while start.elapsed() < measured - measured / 3 {
        let submitted = w.submit(Some((&mut out.tracer, id)));
        traced_latency.push(submitted.latency_us);
        let v = verdict(submitted.error, || w.check());
        let ok = v.is_ok();
        out.tally.record(v);
        if ok {
            if let Err(e) = w.replay(&mut out.tracer, id) {
                out.tally.fail_after_the_fact(format!("replay: {e}"));
            }
        }
        id += 1;
    }
    out.overhead = Some((windows.all, traced_latency));
    Ok(())
}

/// One set-up, recorded.
fn set_up<W: ClosedLoop>(w: &mut W, out: &mut Outcome) -> Result<(), String> {
    let (setup, cold) = w.set_up()?;
    out.setup_s.push(setup);
    for c in cold {
        out.cold_ms.push(c);
    }
    Ok(())
}

/// Submits and checks requests for [`WARMUP`] without measuring them.
fn warm<W: ClosedLoop>(w: &mut W, out: &mut Outcome) {
    let end = Instant::now() + WARMUP;
    while Instant::now() < end {
        let submitted = w.submit(None);
        let v = verdict(submitted.error, || w.check());
        out.tally.record(v);
    }
}

/// A request's verdict: its typed error, else the oracle's.
fn verdict(
    error: Option<String>,
    check: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    match error {
        Some(e) => Err(e),
        None => check(),
    }
}

/// Executor and registry rates over an untraced window.
pub fn engine_rates(
    before: &Counters,
    after: &Counters,
    requests: u64,
    queries: u64,
    direct: &mut Vec<(&'static str, f64)>,
) {
    let batches = after.batches.saturating_sub(before.batches);
    let hits = after.hits.saturating_sub(before.hits);
    let misses = after.misses.saturating_sub(before.misses);
    let evictions = after.evictions.saturating_sub(before.evictions);
    if batches > 0 {
        direct.push((
            "engine.executor.queries_per_batch",
            queries as f64 / batches as f64,
        ));
    }
    if hits + misses > 0 {
        direct.push((
            "engine.registry.hit_ratio",
            hits as f64 / (hits + misses) as f64,
        ));
    }
    if requests > 0 {
        direct.push((
            "engine.registry.evictions_per_kreq",
            evictions as f64 * 1000.0 / requests as f64,
        ));
    }
    direct.push((
        "engine.registry.retained_nodes",
        after.retained_nodes as f64,
    ));
}

/// Replays a circuit batch through the kernel entry points — per kind
/// group on one thread and across the sweep pool, then every weight vector
/// as homogeneous MAR, Pr(e) and MPE batches — recording the `nnf.*`
/// stations. Returns the µs of the sweeps as the executor would dispatch
/// them (lane-batched, or layered past the policy's threshold).
pub fn replay_kernels(
    tracer: &mut Tracer,
    request: u64,
    parent: Option<usize>,
    engine: &trl_engine::Engine,
    circuit: &trl_engine::PreparedCircuit,
    queries: &[Query],
) -> f64 {
    let pool = nnf::pool_size();
    let dispatch = engine::dispatch_threads(engine, circuit);
    let mut groups: Vec<Vec<Query>> = Vec::new();
    for q in queries {
        let bucket = bucket_of(q);
        match bucket.and_then(|b| groups.iter_mut().find(|g| bucket_of(&g[0]) == Some(b))) {
            Some(g) => g.push(q.clone()),
            None => groups.push(vec![q.clone()]),
        }
    }
    let (mut lane, mut layered, mut dispatched) = (0.0, 0.0, 0.0);
    for g in &groups {
        let (a, t1) = tracer.timed("nnf.kernel.lane", parent, request, || {
            nnf::answer_batch(circuit, g, 1)
        });
        black_box(a);
        let (a, tp) = tracer.timed("nnf.pool.layered", parent, request, || {
            nnf::answer_batch(circuit, g, pool)
        });
        black_box(a);
        lane += t1;
        layered += tp;
        dispatched += if dispatch > 1 { tp } else { t1 };
    }
    tracer.station("nnf.kernel.sweep_us", lane);
    tracer.station("nnf.pool.lane_us", lane);
    tracer.station("nnf.pool.layered_us", layered);
    if layered > 0.0 {
        tracer.station("nnf.pool.layered_vs_lane", lane / layered);
    }

    let weights: Vec<&LitWeights> = queries
        .iter()
        .filter_map(|q| match q {
            Query::Wmc(w) | Query::Marginals(w) | Query::MaxWeight(w) => Some(w),
            _ => None,
        })
        .collect();
    if !weights.is_empty() {
        let per = (nnf::tape_nodes(circuit) * weights.len()) as f64;
        let kinds: [(&'static str, &'static str, MakeQuery); 3] = [
            ("nnf.kernel.mar", "nnf.kernel.mar_ns", Query::Marginals),
            ("nnf.kernel.pr", "nnf.kernel.pr_ns", Query::Wmc),
            ("nnf.kernel.mpe", "nnf.kernel.mpe_ns", Query::MaxWeight),
        ];
        for (span, station, make) in kinds {
            let batch: Vec<Query> = weights.iter().map(|w| make((*w).clone())).collect();
            let (a, us) = tracer.timed(span, parent, request, || {
                nnf::answer_batch(circuit, &batch, 1)
            });
            black_box(a);
            tracer.station(station, us * 1e3 / per);
        }
    }
    dispatched
}

/// Builds a weighted query of one kind.
type MakeQuery = fn(LitWeights) -> Query;

/// The executor's grouping: counting queries of one kind share a sweep;
/// SAT, MPE and role queries run one by one.
fn bucket_of(q: &Query) -> Option<usize> {
    match q {
        Query::ModelCount => Some(0),
        Query::ModelCountUnder(_) => Some(1),
        Query::Wmc(_) => Some(2),
        Query::Marginals(_) => Some(3),
        _ => None,
    }
}

/// Replays one formula through the compiler and tape preparation,
/// recording the `compiler.*` and `nnf.prepare_ms`/`nnf.tape_nodes`
/// stations.
pub fn replay_compile(tracer: &mut Tracer, request: u64, parent: Option<usize>, cnf: &Cnf) {
    let ((circuit, stats), us) = tracer.timed("compiler.compile", parent, request, || {
        compiler::compile_with_stats(cnf)
    });
    tracer.station("compiler.compile_ms", us / 1e3);
    tracer.station("compiler.decisions", stats.decisions as f64);
    let lookups = stats.cache_hits + stats.cache_misses;
    if lookups > 0 {
        tracer.station(
            "compiler.cache_hit_ratio",
            stats.cache_hits as f64 / lookups as f64,
        );
    }
    tracer.station("compiler.nodes", stats.nodes as f64);
    let (prepared, us) = tracer.timed("nnf.prepare", parent, request, || nnf::prepare(circuit));
    tracer.station("nnf.prepare_ms", us / 1e3);
    tracer.station("nnf.tape_nodes", nnf::tape_nodes(&prepared) as f64);
}

/// Replays the wire frames that would carry a batch and its answers
/// through the codec, recording the `server.protocol.*` stations; returns
/// encode + decode µs.
pub fn replay_codec(
    tracer: &mut Tracer,
    request: u64,
    parent: Option<usize>,
    key: u64,
    queries: &[Query],
    answers: &[QueryAnswer],
) -> Result<f64, String> {
    let (cost, _) = tracer.timed("server.protocol", parent, request, || {
        server::codec_replay(request, key, queries, answers)
    });
    let cost = cost?;
    tracer.station("server.protocol.encode_us", cost.encode_us);
    tracer.station("server.protocol.decode_us", cost.decode_us);
    tracer.station(
        "server.protocol.bytes_per_query",
        cost.bytes as f64 / queries.len().max(1) as f64,
    );
    Ok(cost.encode_us + cost.decode_us)
}

/// Where a traced run writes its spans: `perfbench/traces/<workload>.json`
/// in the checkout the benchmark was built from.
pub fn write_trace(workload: &str, tracer: &Tracer) -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.json"));
    std::fs::write(&path, tracer.spans_json())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}
