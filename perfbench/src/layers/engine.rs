//! `trl-engine`: the engine a user constructs, its registry (compile or
//! fetch), its executor (batch submission), and the counters it exposes.

use std::sync::Arc;

use trl_engine::{Artifact, Engine, ParallelPolicy, PreparedCircuit, Query, QueryAnswer};
use trl_prop::Cnf;

/// The default engine a user gets: one executor worker per hardware thread
/// and the layered sweep policy.
pub fn default_engine(max_retained_nodes: usize) -> Arc<Engine> {
    Arc::new(Engine::new(max_retained_nodes, None))
}

/// An engine with an explicit executor worker count.
pub fn engine_with_workers(max_retained_nodes: usize, workers: usize) -> Arc<Engine> {
    Arc::new(Engine::new(max_retained_nodes, Some(workers)))
}

/// Compiles `cnf`, or fetches it when resident; returns its registry key.
pub fn compile(engine: &Engine, cnf: &Cnf) -> (u64, Arc<PreparedCircuit>) {
    engine.compile(cnf)
}

/// Answers a batch against a circuit on the executor, blocking until the
/// last answer arrives.
pub fn run_batch(
    engine: &Engine,
    circuit: &Arc<PreparedCircuit>,
    queries: Vec<Query>,
) -> Result<Vec<QueryAnswer>, String> {
    engine
        .run_batch(circuit, queries)
        .map(|outcomes| outcomes.into_iter().map(|o| o.answer).collect())
        .map_err(|e| e.to_string())
}

/// Answers a batch against any typed artifact on the executor.
pub fn run_artifact_batch(
    engine: &Engine,
    artifact: &Artifact,
    queries: Vec<Query>,
) -> Result<Vec<QueryAnswer>, String> {
    engine
        .run_artifact_batch(artifact, queries)
        .map(|outcomes| outcomes.into_iter().map(|o| o.answer).collect())
        .map_err(|e| e.to_string())
}

/// The artifact under `key`, if resident.
pub fn artifact(engine: &Engine, key: u64) -> Option<Artifact> {
    engine.get(key)
}

/// The circuit under `key`, if resident and a circuit.
pub fn circuit(engine: &Engine, key: u64) -> Option<Arc<PreparedCircuit>> {
    match engine.get(key)? {
        Artifact::Circuit(c) => Some(c),
        _ => None,
    }
}

/// The threads the executor fans one kernel group of `circuit` across:
/// the pool's width under the layered policy past its threshold, else 1.
pub fn dispatch_threads(engine: &Engine, circuit: &PreparedCircuit) -> usize {
    match engine.executor().parallel_policy() {
        ParallelPolicy::Layered { min_nodes } if circuit.raw().node_count() >= min_nodes => {
            super::nnf::pool_size()
        }
        _ => 1,
    }
}

/// The registry and executor counters the per-layer metrics read.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    /// Registry hits.
    pub hits: u64,
    /// Registry misses.
    pub misses: u64,
    /// Registry evictions.
    pub evictions: u64,
    /// Nodes charged against the registry budget.
    pub retained_nodes: u64,
    /// Executor batches finalized (process-wide `engine.batches`).
    pub batches: u64,
}

/// A snapshot of [`Counters`] from `Engine::stats()`.
pub fn counters(engine: &Engine) -> Counters {
    let stats = engine.stats();
    Counters {
        hits: stats.registry.hits,
        misses: stats.registry.misses,
        evictions: stats.registry.evictions,
        retained_nodes: stats.retained_nodes as u64,
        batches: stats.metrics.counter("engine.batches").unwrap_or(0),
    }
}
