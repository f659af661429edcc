//! `trl-nnf` and the engine's prepared circuit: tape preparation, the
//! kernel sweeps a batch dispatches to, the persistent sweep pool, and the
//! scalar passes kept as the kernels' oracle.

use std::sync::Arc;

use trl_engine::{PreparedCircuit, Query, QueryAnswer};
use trl_nnf::{Circuit, LitWeights};

/// Wraps a compiled circuit for serving and materializes its smoothed form
/// and evaluation tape now.
pub fn prepare(circuit: Circuit) -> Arc<PreparedCircuit> {
    let prepared = Arc::new(PreparedCircuit::new(circuit));
    prepared.warm();
    prepared
}

/// Materializes the smoothed circuit and tape of a registry entry.
pub fn warm(prepared: &PreparedCircuit) {
    prepared.warm();
}

/// Answers `queries` with the kernels, fanning each tape layer across
/// `threads` pool participants when `threads > 1`.
pub fn answer_batch(
    prepared: &PreparedCircuit,
    queries: &[Query],
    threads: usize,
) -> Vec<QueryAnswer> {
    prepared.answer_batch(queries, threads)
}

/// Whether the circuit's smoothed form and tape exist already (false for
/// a circuit compiled on this request).
pub fn is_warm(prepared: &PreparedCircuit) -> bool {
    prepared.smoothing_materialized()
}

/// Instructions in the evaluation tape.
pub fn tape_nodes(prepared: &PreparedCircuit) -> usize {
    prepared.tape().len()
}

/// The scalar WMC pass over the compiled circuit.
pub fn scalar_wmc(prepared: &PreparedCircuit, weights: &LitWeights) -> f64 {
    prepared.raw().wmc(weights)
}

/// The scalar marginals pass over the compiled circuit.
pub fn scalar_marginals(
    prepared: &PreparedCircuit,
    weights: &LitWeights,
) -> (f64, Vec<(f64, f64)>) {
    prepared.raw().wmc_marginals(weights)
}

/// The lane backend the kernels dispatch to on this CPU.
pub fn lane_backend() -> &'static str {
    trl_nnf::LaneBackend::detect().name()
}

/// Participants of the process-wide sweep pool.
pub fn pool_size() -> usize {
    trl_nnf::SweepPool::global().size()
}
