//! The serving benchmark behind `three-roles bench-serve` and the
//! `bench_serve` binary (`BENCH_engine.json`).
//!
//! It contrasts two ways of answering the same stream of WMC queries
//! against one compiled circuit:
//!
//! * **baseline** — one query at a time on one thread, the way every
//!   pre-engine example in this repo did it: each query re-smooths the
//!   circuit internally;
//! * **served** — batches submitted to the [`Executor`]'s worker pool
//!   against a [`PreparedCircuit`], which smooths **once**; the numeric
//!   pass is all that remains per query, and multiple workers overlap
//!   queries when cores allow.
//!
//! The speedup is therefore dominated by batch amortization of smoothing
//! (it holds even on a single-core host) with worker parallelism on top.

use std::fmt::Write as _;
use std::sync::{mpsc, Arc};
use std::time::Instant;

use crate::artifact::Artifact;
use crate::executor::{Executor, Query};
use crate::prepared::PreparedCircuit;
use trl_core::{SplitMix64, Var};
use trl_nnf::{Circuit, LitWeights};

// The nearest-rank summary was born here; it now lives in `trl-obs` as
// the workspace's single latency summary (shared with the bench harness
// and histogram rendering) and is re-exported for compatibility.
pub use trl_obs::LatencySummary;

/// Measurements for one (workers, batch size) configuration.
#[derive(Clone, Debug)]
pub struct ServeConfigReport {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Queries per submitted batch.
    pub batch_size: usize,
    /// Total queries answered.
    pub queries: usize,
    /// Wall-clock for the whole stream, seconds.
    pub wall_secs: f64,
    /// Throughput, queries per second.
    pub qps: f64,
    /// Per-query service latency distribution.
    pub latency: LatencySummary,
    /// Throughput relative to the baseline.
    pub speedup: f64,
}

/// The full benchmark result.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Human-readable instance name.
    pub instance: String,
    /// Nodes in the compiled circuit.
    pub raw_nodes: usize,
    /// Edges in the compiled circuit.
    pub raw_edges: usize,
    /// Nodes in the smoothed circuit the serving tape is linearized from.
    /// The served artifact does not keep that circuit, so the report
    /// smooths a copy of its own, outside the timed prepare step.
    pub smoothed_nodes: usize,
    /// One-off preparation cost (smoothing + kernel tape), milliseconds.
    pub prepare_ms: f64,
    /// Queries answered per configuration (and by the baseline).
    pub queries_per_config: usize,
    /// Baseline wall-clock, seconds.
    pub baseline_wall_secs: f64,
    /// Baseline throughput, queries per second.
    pub baseline_qps: f64,
    /// Baseline per-query latency distribution.
    pub baseline_latency: LatencySummary,
    /// One row per (workers, batch size) configuration.
    pub configs: Vec<ServeConfigReport>,
    /// Whether every served answer bit-matched its baseline answer.
    pub answers_agree: bool,
    /// The executor [`crate::ParallelPolicy`] active during the run
    /// (see `ParallelPolicy::describe`).
    pub parallel_policy: String,
}

impl ServeReport {
    /// Best speedup among configurations that are genuinely batched
    /// (batch size > 1) and multi-worker (workers > 1) — the acceptance
    /// number for `bench-serve`.
    pub fn best_batched_multiworker_speedup(&self) -> f64 {
        self.configs
            .iter()
            .filter(|c| c.workers > 1 && c.batch_size > 1)
            .map(|c| c.speedup)
            .fold(0.0, f64::max)
    }

    /// Renders the report as the `BENCH_engine.json` document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"bench\": \"bench_serve\",\n");
        let _ = writeln!(out, "  \"instance\": \"{}\",", self.instance);
        let _ = writeln!(out, "  \"parallel_policy\": \"{}\",", self.parallel_policy);
        let _ = writeln!(
            out,
            "  \"circuit\": {{ \"nodes\": {}, \"edges\": {}, \"smoothed_nodes\": {}, \"prepare_ms\": {:.3} }},",
            self.raw_nodes, self.raw_edges, self.smoothed_nodes, self.prepare_ms
        );
        let _ = writeln!(
            out,
            "  \"baseline\": {{ \"description\": \"one WMC query at a time, one thread, smoothing per query\", \"queries\": {}, \"wall_secs\": {:.6}, \"qps\": {:.1}, \"latency\": {} }},",
            self.queries_per_config,
            self.baseline_wall_secs,
            self.baseline_qps,
            self.baseline_latency.to_json_fragment()
        );
        out.push_str("  \"configs\": [\n");
        for (i, c) in self.configs.iter().enumerate() {
            let _ = write!(
                out,
                "    {{ \"workers\": {}, \"batch_size\": {}, \"queries\": {}, \"wall_secs\": {:.6}, \"qps\": {:.1}, \"latency\": {}, \"speedup\": {:.2} }}",
                c.workers,
                c.batch_size,
                c.queries,
                c.wall_secs,
                c.qps,
                c.latency.to_json_fragment(),
                c.speedup
            );
            out.push_str(if i + 1 < self.configs.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        let _ = writeln!(
            out,
            "  \"acceptance\": {{ \"answers_agree\": {}, \"best_batched_multiworker_speedup\": {:.2}, \"pass\": {} }}",
            self.answers_agree,
            self.best_batched_multiworker_speedup(),
            self.answers_agree && self.best_batched_multiworker_speedup() >= 2.0
        );
        out.push_str("}\n");
        out
    }
}

/// A deterministic stream of WMC queries with per-variable weights in
/// `(0, 1)` and complementary negative weights — the shape a Bayesian
/// network reduction produces.
fn query_stream(num_vars: usize, count: usize, seed: u64) -> Vec<Query> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| {
            let mut w = LitWeights::unit(num_vars);
            for v in 0..num_vars as u32 {
                let p = 0.05 + 0.9 * rng.uniform();
                w.set(Var(v).positive(), p);
                w.set(Var(v).negative(), 1.0 - p);
            }
            Query::Wmc(w)
        })
        .collect()
}

/// Runs the serving benchmark for one compiled circuit.
///
/// Every configuration answers the *same* deterministic query stream, and
/// every served answer is checked against the baseline's bit-for-bit.
pub fn serving_benchmark(
    instance: &str,
    circuit: &Circuit,
    worker_counts: &[usize],
    batch_sizes: &[usize],
    queries_per_config: usize,
    seed: u64,
) -> ServeReport {
    let queries = query_stream(circuit.num_vars(), queries_per_config, seed);

    // Baseline: one at a time, one thread, smoothing inside every query.
    let start = Instant::now();
    let mut baseline_latencies_us: Vec<f64> = Vec::with_capacity(queries.len());
    let baseline_answers: Vec<f64> = queries
        .iter()
        .map(|q| {
            let t = Instant::now();
            let answer = match q {
                Query::Wmc(w) => circuit.wmc(w),
                _ => unreachable!("stream is all WMC"),
            };
            baseline_latencies_us.push(t.elapsed().as_secs_f64() * 1e6);
            answer
        })
        .collect();
    let baseline_wall_secs = start.elapsed().as_secs_f64().max(1e-12);
    let baseline_qps = queries.len() as f64 / baseline_wall_secs;
    let baseline_latency = LatencySummary::from_us(&mut baseline_latencies_us);

    // Prepare once; every served configuration shares the artifact. The
    // warm-up materializes smoothing and the kernel tape *inside* the
    // timed prepare step, so that one-off cost is recorded here instead
    // of surfacing as a max-latency outlier on an unlucky first query.
    let start = Instant::now();
    let prepared = Arc::new(PreparedCircuit::new(circuit.clone()));
    prepared.warm();
    let artifact = Artifact::Circuit(prepared);
    let prepare_ms = start.elapsed().as_secs_f64() * 1e3;

    let mut configs = Vec::new();
    let mut answers_agree = true;
    let mut parallel_policy = crate::ParallelPolicy::default().describe();
    for &workers in worker_counts {
        let executor = Executor::new(workers);
        parallel_policy = executor.parallel_policy().describe();
        for &batch_size in batch_sizes {
            let batch_size = batch_size.max(1);
            let start = Instant::now();
            let mut latencies_us: Vec<f64> = Vec::with_capacity(queries.len());
            let mut served: Vec<f64> = Vec::with_capacity(queries.len());
            for chunk in queries.chunks(batch_size) {
                // Through the worker pool (the server's path), so the worker
                // count is what this configuration varies.
                let (tx, rx) = mpsc::channel();
                executor
                    .submit(&artifact, chunk.to_vec(), None, move |o| {
                        let _ = tx.send(o);
                    })
                    .expect("WMC batch valid for this circuit");
                for o in rx.recv().expect("the pool answers every batch") {
                    latencies_us.push(o.latency.as_secs_f64() * 1e6);
                    served.push(o.answer.wmc().expect("WMC stream"));
                }
            }
            let wall_secs = start.elapsed().as_secs_f64().max(1e-12);
            answers_agree &= served == baseline_answers;
            let qps = queries.len() as f64 / wall_secs;
            configs.push(ServeConfigReport {
                workers: executor.num_workers(),
                batch_size,
                queries: queries.len(),
                wall_secs,
                qps,
                latency: LatencySummary::from_us(&mut latencies_us),
                speedup: qps / baseline_qps,
            });
        }
    }

    ServeReport {
        instance: instance.to_string(),
        raw_nodes: circuit.node_count(),
        raw_edges: circuit.edge_count(),
        smoothed_nodes: trl_nnf::smooth(circuit).node_count(),
        prepare_ms,
        queries_per_config,
        baseline_wall_secs,
        baseline_qps,
        baseline_latency,
        configs,
        answers_agree,
        parallel_policy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trl_compiler::DecisionDnnfCompiler;
    use trl_prop::Cnf;

    #[test]
    fn report_is_consistent_and_answers_agree() {
        let cnf =
            Cnf::parse_dimacs("p cnf 6 5\n1 2 0\n-2 3 4 0\n-1 -4 0\n5 1 0\n-5 6 0\n").unwrap();
        let c = DecisionDnnfCompiler::default().compile(&cnf);
        let report = serving_benchmark("test instance", &c, &[1, 2], &[1, 8], 32, 7);
        assert!(report.answers_agree);
        assert_eq!(report.configs.len(), 4);
        assert!(report.configs.iter().all(|c| c.qps > 0.0));
        assert!(report.baseline_qps > 0.0);
        for l in
            std::iter::once(report.baseline_latency).chain(report.configs.iter().map(|c| c.latency))
        {
            assert!(l.p50_us <= l.p95_us && l.p95_us <= l.p99_us && l.p99_us <= l.max_us);
            assert!(l.max_us > 0.0);
        }
        // Multi-worker batched config exists and its speedup feeds acceptance.
        assert!(report
            .configs
            .iter()
            .any(|c| c.workers > 1 && c.batch_size > 1));
        let json = report.to_json();
        assert!(json.contains("\"bench\": \"bench_serve\""));
        assert!(json.contains("\"best_batched_multiworker_speedup\""));
        assert!(json.contains("\"p99_us\""));
    }
}
