//! The [`Engine`]: one shareable handle bundling the artifact registry and
//! the query executor, with a serving-stats surface.
//!
//! The registry and executor were designed as separable pieces (PRs 2–3);
//! a serving frontend wants them as one object it can put behind an `Arc`
//! and hand to every connection thread: compile-or-fetch through a shared
//! registry, answer through a shared executor, and report one coherent
//! [`StatsSnapshot`] (registry hit/miss/eviction counters, retained-node
//! budget pressure, per-kind queries served) for operational visibility — the
//! `stats` wire request and `three-roles client stats` read exactly this.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::artifact::{classifier_fingerprint, psdd_fingerprint, space_fingerprint, Artifact};
use crate::error::{EngineError, Result};
use crate::executor::{Executor, Query, QueryOutcome, QUERY_KINDS};
use crate::prepared::PreparedCircuit;
use crate::registry::{fingerprint, Registry, RegistryStats};
use trl_obs::MetricsDump;
use trl_prop::Cnf;
use trl_psdd::learn::Dataset;
use trl_psdd::PreparedPsdd;
use trl_spaces::{Graph, PreparedSpace};
use trl_xai::PreparedClassifier;

/// One coherent view of a serving engine's counters, taken atomically with
/// respect to the registry.
///
/// The `trl-server` stats frame encodes the fields in declaration order.
/// `queue_depth` and the `connections_*` fields are zero unless a serving
/// frontend overlays them (the engine itself has no admission queue and
/// no connections).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StatsSnapshot {
    /// Registry hit/miss/eviction counters since engine creation.
    pub registry: RegistryStats,
    /// Artifacts currently retained.
    pub artifacts: usize,
    /// Arena nodes currently charged against the registry budget.
    pub retained_nodes: usize,
    /// The registry's retained-node budget.
    pub max_retained_nodes: usize,
    /// Executor worker threads.
    pub workers: usize,
    /// Queries admitted by a serving frontend and not yet answered — the
    /// backlog a typed `overloaded` error reports. The engine itself has
    /// no queue (every batch is answered on its caller), so it reports 0
    /// and a serving frontend overlays its admission count.
    pub queue_depth: usize,
    /// Milliseconds since the engine was created.
    pub uptime_ms: u64,
    /// Queries answered per kind, in [`QUERY_KINDS`] order.
    pub requests_served: Vec<(String, u64)>,
    /// Connections accepted by the serving frontend since it started.
    pub connections_accepted: u64,
    /// Connections currently open on the serving frontend.
    pub connections_active: u64,
    /// A dump of every process-global metric (counters, gauges, latency
    /// histograms) at snapshot time.
    pub metrics: MetricsDump,
}

/// A compile-once/query-many engine: a [`Registry`] behind a mutex plus a
/// shared [`Executor`]. Clone-free sharing: wrap it in an `Arc`.
///
/// The mutex guards only registry bookkeeping (lookup, insert, eviction);
/// compilation of a missed formula happens *outside* the lock so a slow
/// compile never blocks queries against already-resident artifacts.
pub struct Engine {
    registry: Mutex<Registry>,
    executor: Executor,
    /// Creation time, the zero point of `uptime_ms`.
    start: Instant,
}

impl Engine {
    /// An engine with the given retained-node budget and worker count;
    /// `None` workers defaults to one per hardware thread
    /// ([`Executor::with_default_workers`]). The workers run the network
    /// server's artifact builds ([`Executor::execute`]); callers of
    /// [`Engine::run_batch`] and [`Engine::run_artifact_batch`] — the
    /// server's reactors among them — bring their own threads and are
    /// answered on them.
    pub fn new(max_retained_nodes: usize, workers: Option<usize>) -> Self {
        // Zero-valued trace.* and registry policy rows from the first
        // snapshot on, like the executor's per-kind counters.
        trl_obs::register_trace_metrics();
        crate::registry::register_metrics();
        Engine {
            registry: Mutex::new(Registry::new(max_retained_nodes)),
            executor: match workers {
                Some(n) => Executor::new(n),
                None => Executor::with_default_workers(),
            },
            start: Instant::now(),
        }
    }

    /// An engine around an existing registry and executor.
    pub fn from_parts(registry: Registry, executor: Executor) -> Self {
        trl_obs::register_trace_metrics();
        crate::registry::register_metrics();
        Engine {
            registry: Mutex::new(registry),
            executor,
            start: Instant::now(),
        }
    }

    /// The artifact for `cnf`, compiling on miss. Returns the artifact and
    /// its registry key (the CNF [`fingerprint`]) for key-addressed queries.
    ///
    /// Misses compile with the registry's compiler configuration
    /// ([`Registry::with_compiler`]), copied out under the lock. The
    /// compile itself runs without holding the registry lock; if two
    /// threads race on the same formula both compile and the second insert
    /// wins — wasted work, never a wrong answer, and the lock is never held
    /// across a compilation.
    pub fn compile(&self, cnf: &Cnf) -> (u64, Arc<PreparedCircuit>) {
        // Hit-vs-compile timing: the two histograms contrast what a cached
        // fetch costs against what the fetch amortizes away.
        let begin = Instant::now();
        let key = fingerprint(cnf);
        let compiler = {
            let mut registry = self.lock();
            if let Some(Artifact::Circuit(found)) = registry.get(key) {
                drop(registry);
                let elapsed = begin.elapsed();
                trl_obs::histogram!("engine.registry.hit_us").record(elapsed);
                trl_obs::record_span("engine.registry.hit", elapsed);
                trl_obs::record_trace_at("engine.registry.hit", begin, elapsed);
                return (key, found);
            }
            registry.compiler()
        };
        let prepared = Arc::new(PreparedCircuit::new(compiler.compile(cnf)));
        let mut registry = self.lock();
        // Count the compile as the miss it served.
        registry.note_miss();
        registry.insert(key, Artifact::Circuit(Arc::clone(&prepared)));
        let elapsed = begin.elapsed();
        trl_obs::histogram!("engine.registry.compile_us").record(elapsed);
        trl_obs::record_span("engine.registry.compile", elapsed);
        trl_obs::record_trace_at("engine.registry.compile", begin, elapsed);
        (key, prepared)
    }

    /// Learns a PSDD from CNF knowledge plus a weighted complete dataset
    /// (role 2), registering it under a kind-salted fingerprint of the
    /// whole learn request. A repeated identical request is a registry
    /// hit — the compile-once/query-many contract applied to learning.
    ///
    /// Like [`Engine::compile`], the learn itself runs outside the
    /// registry lock; wire-visible progress counters
    /// (`engine.learn.jobs`, `engine.learn.examples`,
    /// `engine.learn.train_us`) tick as jobs run, so a `stats` frame
    /// observes learning activity while it happens.
    pub fn learn_psdd(
        &self,
        cnf: &Cnf,
        data: &Dataset,
        alpha: f64,
    ) -> Result<(u64, Arc<PreparedPsdd>)> {
        let begin = Instant::now();
        let key = psdd_fingerprint(cnf, data, alpha);
        if let Some(Artifact::Psdd(found)) = self.lock().get(key) {
            trl_obs::histogram!("engine.registry.hit_us").record(begin.elapsed());
            return Ok((key, found));
        }
        trl_obs::counter!("engine.learn.jobs").inc();
        let prepared = Arc::new(
            PreparedPsdd::learn_from_cnf(cnf, data, alpha)
                .map_err(|e| EngineError::Structure(e.to_string()))?,
        );
        trl_obs::counter!("engine.learn.examples").add(data.len() as u64);
        trl_obs::histogram!("engine.learn.train_us").record(begin.elapsed());
        let mut registry = self.lock();
        registry.note_miss();
        registry.insert(key, Artifact::Psdd(Arc::clone(&prepared)));
        Ok((key, prepared))
    }

    /// Compiles the space of simple `s`–`t` paths of a graph (role 2),
    /// registering it under a kind-salted fingerprint of the graph shape
    /// and endpoints.
    pub fn compile_space(
        &self,
        num_nodes: usize,
        edges: &[(u32, u32)],
        s: u32,
        t: u32,
    ) -> Result<(u64, Arc<PreparedSpace>)> {
        if s == t {
            return Err(EngineError::Structure(
                "source and destination must differ".to_string(),
            ));
        }
        for &(a, b) in edges {
            if a as usize >= num_nodes || b as usize >= num_nodes || a == b {
                return Err(EngineError::Structure(format!(
                    "edge ({a}, {b}) invalid for a graph of {num_nodes} nodes"
                )));
            }
        }
        if s as usize >= num_nodes || t as usize >= num_nodes {
            return Err(EngineError::Structure(format!(
                "endpoints ({s}, {t}) outside a graph of {num_nodes} nodes"
            )));
        }
        let begin = Instant::now();
        let key = space_fingerprint(num_nodes, edges, s, t);
        if let Some(Artifact::Space(found)) = self.lock().get(key) {
            trl_obs::histogram!("engine.registry.hit_us").record(begin.elapsed());
            return Ok((key, found));
        }
        let graph = Graph::new(
            num_nodes,
            edges
                .iter()
                .map(|&(a, b)| (a as usize, b as usize))
                .collect(),
        );
        let prepared = Arc::new(PreparedSpace::compile(graph, s as usize, t as usize));
        trl_obs::histogram!("engine.registry.compile_us").record(begin.elapsed());
        let mut registry = self.lock();
        registry.note_miss();
        registry.insert(key, Artifact::Space(Arc::clone(&prepared)));
        Ok((key, prepared))
    }

    /// Compiles a classifier's decision function (role 3), registering it
    /// under a kind-salted fingerprint so the same CNF compiled as a plain
    /// circuit stays a distinct entry.
    pub fn compile_classifier(&self, cnf: &Cnf) -> (u64, Arc<PreparedClassifier>) {
        let begin = Instant::now();
        let key = classifier_fingerprint(cnf);
        if let Some(Artifact::Classifier(found)) = self.lock().get(key) {
            trl_obs::histogram!("engine.registry.hit_us").record(begin.elapsed());
            return (key, found);
        }
        let prepared = Arc::new(PreparedClassifier::compile(cnf));
        trl_obs::histogram!("engine.registry.compile_us").record(begin.elapsed());
        let mut registry = self.lock();
        registry.note_miss();
        registry.insert(key, Artifact::Classifier(Arc::clone(&prepared)));
        (key, prepared)
    }

    /// The artifact under a registry key, if still resident (counts as a
    /// use of the entry).
    pub fn get(&self, key: u64) -> Option<Artifact> {
        self.lock().get(key)
    }

    /// Validates and answers a batch on the calling thread
    /// ([`Executor::run`]).
    pub fn run_batch(
        &self,
        circuit: &Arc<PreparedCircuit>,
        queries: Vec<Query>,
    ) -> Result<Vec<QueryOutcome>> {
        self.executor
            .run(&Artifact::Circuit(Arc::clone(circuit)), queries)
    }

    /// Validates and answers a batch against any typed artifact on the
    /// calling thread ([`Executor::run`]).
    pub fn run_artifact_batch(
        &self,
        artifact: &Artifact,
        queries: Vec<Query>,
    ) -> Result<Vec<QueryOutcome>> {
        self.executor.run(artifact, queries)
    }

    /// The shared executor (for callers that manage circuits themselves).
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// One coherent stats snapshot. `queue_depth` and the `connections_*`
    /// fields are left zero for a serving frontend to overlay; `metrics` is the
    /// process-global dump, so it also reflects activity outside this
    /// engine (a second engine in the same process shares it).
    pub fn stats(&self) -> StatsSnapshot {
        let served = self.executor.served_by_kind();
        let registry = self.lock();
        StatsSnapshot {
            registry: registry.stats(),
            artifacts: registry.len(),
            retained_nodes: registry.retained_nodes(),
            max_retained_nodes: registry.max_retained_nodes(),
            workers: self.executor.num_workers(),
            queue_depth: 0,
            uptime_ms: self.start.elapsed().as_millis() as u64,
            requests_served: QUERY_KINDS
                .iter()
                .zip(served)
                .map(|(name, count)| (name.to_string(), count))
                .collect(),
            connections_accepted: 0,
            connections_active: 0,
            metrics: trl_obs::snapshot(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Registry> {
        // The registry holds no lock-ordering obligations and every
        // critical section is bookkeeping-only, so poisoning can only come
        // from a panic in map/Vec ops; propagating it would just turn one
        // failed request into a dead server.
        match self.registry.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cnf() -> Cnf {
        Cnf::parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap()
    }

    #[test]
    fn compile_uses_the_registry_compiler_configuration() {
        use trl_compiler::{DecisionDnnfCompiler, Heuristic};
        // x4 occurs most often, so the default VSADS rule branches on it
        // first, while the first-unassigned rule branches on x1.
        let formula = Cnf::parse_dimacs("p cnf 4 4\n1 4 0\n2 4 0\n3 4 0\n-2 -3 -4 0\n").unwrap();
        let configured = DecisionDnnfCompiler::default().with_heuristic(Heuristic::FirstUnassigned);
        let expected = configured.compile(&formula).display();
        assert_ne!(
            expected,
            DecisionDnnfCompiler::default().compile(&formula).display(),
            "the formula must tell the heuristics apart"
        );
        let engine = Engine::from_parts(
            Registry::with_compiler(1 << 20, configured),
            Executor::new(1),
        );
        let (_, prepared) = engine.compile(&formula);
        assert_eq!(prepared.raw().display(), expected);
    }

    #[test]
    fn compile_hits_on_second_request() {
        let engine = Engine::new(1 << 20, Some(2));
        let (key, first) = engine.compile(&cnf());
        let (key2, second) = engine.compile(&cnf());
        assert_eq!(key, key2);
        assert!(Arc::ptr_eq(&first, &second));
        let stats = engine.stats();
        assert_eq!(stats.registry.hits, 1);
        assert_eq!(stats.registry.misses, 1);
        assert_eq!(stats.artifacts, 1);
        assert_eq!(stats.workers, 2);
    }

    #[test]
    fn get_by_key_and_run_batch() {
        let engine = Engine::new(1 << 20, Some(1));
        let (key, circuit) = engine.compile(&cnf());
        assert!(engine.get(key).is_some());
        assert!(engine.get(key ^ 1).is_none());
        let outcomes = engine
            .run_batch(&circuit, vec![Query::ModelCount, Query::Sat])
            .unwrap();
        assert_eq!(
            outcomes[0].answer.model_count(),
            Some(circuit.raw().model_count())
        );
    }

    #[test]
    fn default_workers_match_available_parallelism() {
        let engine = Engine::new(1 << 20, None);
        let expect = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(engine.stats().workers, expect);
    }

    #[test]
    fn learn_space_and_classifier_register_and_hit() {
        use trl_core::Assignment;
        let engine = Engine::new(1 << 20, Some(2));
        let data = vec![(Assignment::from_values(&[false, false, false]), 2.0)];
        let (pkey, psdd) = engine.learn_psdd(&cnf(), &data, 0.1).unwrap();
        let (pkey2, psdd2) = engine.learn_psdd(&cnf(), &data, 0.1).unwrap();
        assert_eq!(pkey, pkey2);
        assert!(Arc::ptr_eq(&psdd, &psdd2), "second learn is a registry hit");
        let (skey, space) = engine.compile_space(3, &[(0, 1), (1, 2)], 0, 2).unwrap();
        assert_eq!(space.path_count(), 1);
        let (ckey, _clf) = engine.compile_classifier(&cnf());
        let (circuit_key, _circuit) = engine.compile(&cnf());
        assert_ne!(ckey, circuit_key, "classifier key is kind-salted");
        assert_eq!(engine.stats().artifacts, 4);
        // Typed retrieval round-trips through `get`.
        assert!(matches!(engine.get(pkey), Some(Artifact::Psdd(_))));
        assert!(matches!(engine.get(skey), Some(Artifact::Space(_))));
        assert!(matches!(engine.get(ckey), Some(Artifact::Classifier(_))));
        assert!(matches!(
            engine.get(circuit_key),
            Some(Artifact::Circuit(_))
        ));
        // And batches dispatch against the typed artifact.
        let art = engine.get(skey).unwrap();
        let outcomes = engine
            .run_artifact_batch(
                &art,
                vec![Query::SpaceCount(trl_core::PartialAssignment::new(2))],
            )
            .unwrap();
        assert_eq!(outcomes[0].answer.model_count(), Some(1));
    }

    #[test]
    fn space_requests_validated() {
        let engine = Engine::new(1 << 20, Some(1));
        assert!(engine.compile_space(3, &[(0, 1)], 0, 0).is_err());
        assert!(engine.compile_space(3, &[(0, 5)], 0, 2).is_err());
        assert!(engine.compile_space(3, &[(0, 1)], 0, 7).is_err());
    }

    #[test]
    fn stats_reflect_budget() {
        let engine = Engine::new(12345, Some(1));
        let snapshot = engine.stats();
        assert_eq!(snapshot.max_retained_nodes, 12345);
        assert_eq!(snapshot.queue_depth, 0);
        assert_eq!(snapshot.artifacts, 0);
        // In-process there is no admission queue, before or after a batch;
        // a serving frontend overlays its own backlog.
        let (_, circuit) = engine.compile(&cnf());
        engine.run_batch(&circuit, vec![Query::ModelCount]).unwrap();
        let snapshot = engine.stats();
        assert_eq!(snapshot.queue_depth, 0);
        assert_eq!(snapshot.artifacts, 1);
    }
}
