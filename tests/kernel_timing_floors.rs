//! Timing floors for the lane-batched and layer-parallel WMC kernels.
//!
//! Both are measured against the scalar baseline: one arena walk per query
//! (`wmc_presmoothed`) on the smoothed circuit, so smoothing is amortized
//! and only the sweep is compared. The floors are no-harm bars at 1.0x:
//!
//! - on the small tier, `random_3cnf(seed 18, n 18, m 54)` with 256
//!   queries, the lane-batched sweep is no slower than scalar;
//! - on the large tier, the ~145k-node tape of `chained_3cnf(seed 42, 600
//!   blocks of n 18, m 54)` with 64 queries, the layer-parallel sweep is
//!   no slower than scalar. It ran at 0.03x there before the persistent
//!   sweep pool.
//!
//! Every timed answer must also bit-match scalar. A debug build times
//! nothing meaningful, so the test runs only in optimized builds:
//! `cargo test --release -p three-roles --test kernel_timing_floors`.

use std::time::Instant;

use three_roles::compiler::DecisionDnnfCompiler;
use three_roles::core::{SplitMix64, Var};
use three_roles::nnf::{smooth, Circuit, EvalTape, LitWeights};
use trl_bench::{chained_3cnf, random_3cnf, Rng};

/// Timed passes per variant; the fastest counts, so one preempted pass on
/// a busy host does not decide the floor.
const PASSES: usize = 3;

/// A deterministic stream of WMC weight tables, each literal pair summing
/// to 1.
fn weight_stream(num_vars: usize, count: usize) -> Vec<LitWeights> {
    let mut rng = SplitMix64::new(0x5eed_0003);
    (0..count)
        .map(|_| {
            let mut w = LitWeights::unit(num_vars);
            for v in 0..num_vars as u32 {
                let p = 0.05 + 0.9 * rng.uniform();
                w.set(Var(v).positive(), p);
                w.set(Var(v).negative(), 1.0 - p);
            }
            w
        })
        .collect()
}

/// Queries per second of `answer` over a stream of `queries`, as the best
/// of [`PASSES`] timed passes after one warm-up pass, plus the answers'
/// bit patterns.
fn qps(queries: usize, answer: impl Fn() -> Vec<f64>) -> (f64, Vec<u64>) {
    let answers = answer();
    let best = (0..PASSES)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(answer());
            start.elapsed().as_secs_f64().max(1e-12)
        })
        .fold(f64::INFINITY, f64::min);
    (
        queries as f64 / best,
        answers.iter().map(|x| x.to_bits()).collect(),
    )
}

/// The scalar baseline's throughput and the named batched variant's
/// throughput over the same stream; panics unless the two agree bit for
/// bit.
fn scalar_vs(
    circuit: &Circuit,
    queries: usize,
    variant: &str,
    batched: impl Fn(&EvalTape, &[&LitWeights]) -> Vec<f64>,
) -> (f64, f64) {
    let smoothed = smooth(circuit);
    let tape = EvalTape::new(&smoothed);
    let weights = weight_stream(circuit.num_vars(), queries);
    let refs: Vec<&LitWeights> = weights.iter().collect();
    let (scalar_qps, expect) = qps(queries, || {
        weights
            .iter()
            .map(|w| smoothed.wmc_presmoothed(w))
            .collect()
    });
    let (variant_qps, got) = qps(queries, || batched(&tape, &refs));
    assert_eq!(got, expect, "{variant} answers differ from scalar");
    (scalar_qps, variant_qps)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "timing needs an optimized build")]
fn batched_kernels_are_no_slower_than_scalar() {
    let compiler = DecisionDnnfCompiler::default();

    let small = compiler.compile(&random_3cnf(&mut Rng::new(18), 18, 54));
    let (scalar, lanes) = scalar_vs(&small, 256, "lane-batched", |tape, w| tape.wmc_batch(w));
    assert!(
        lanes >= scalar,
        "small tier: lane-batched {lanes:.0} q/s is below scalar {scalar:.0} q/s"
    );

    let large = compiler.compile(&chained_3cnf(&mut Rng::new(42), 600, 18, 54));
    let threads = std::thread::available_parallelism().map_or(2, |p| p.get().max(2));
    let (scalar, layered) = scalar_vs(&large, 64, "layer-parallel", |tape, w| {
        tape.wmc_batch_layered(w, threads)
    });
    assert!(
        layered >= scalar,
        "large tier: layer-parallel {layered:.0} q/s is below scalar {scalar:.0} q/s"
    );
}
