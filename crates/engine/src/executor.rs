//! The batched query executor: plans a batch into grouped jobs and answers
//! each job through the evaluation kernels on the calling thread, and runs
//! long tasks on a fixed worker pool.
//!
//! Artifacts are shared as `Arc`s, so a job touching one clones a pointer,
//! not a circuit. A job is not one query: planning puts a circuit's
//! queries into two buckets — the sum-product kinds (counts, counts under
//! evidence, WMC, marginals), which share one lane-batched tape sweep
//! ([`trl_nnf::EvalTape::sum_product_batch`]) whatever their mix, and MPE,
//! which shares one max-product sweep — instead of one arena walk per
//! query. When the [`ParallelPolicy`] says a circuit is wide enough, a
//! bucket's sweep instead fans each tape layer across the persistent
//! [`trl_nnf::SweepPool`]. Each answered query reports its service
//! latency.
//!
//! Queries have one entry point, [`Executor::run`], which blocks and
//! answers every job on the calling thread. A caller brings its own
//! thread — one that would otherwise sleep on a channel while a worker ran
//! the same code — so a batch pays no channel send and no worker wake-up,
//! and one issued from inside a pool task cannot wait on the very worker
//! that is running it. The network server's reactors answer every query
//! frame this way.
//!
//! The worker pool runs tasks only ([`Executor::execute`]): the network
//! server's artifact builds (compile, learn, space, classifier), which
//! can take arbitrarily long and so must not run on a reactor.
//!
//! The pool is deliberately dependency-free (std threads + `mpsc`): the
//! workspace builds air-gapped.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::artifact::{Artifact, ArtifactKind};
use crate::error::{EngineError, Result};
use trl_core::{Assignment, Cube, PartialAssignment, Var};
use trl_nnf::LitWeights;

/// The node count [`ParallelPolicy::Layered`] switches at — the default
/// policy of [`Executor::with_default_workers`]. A layered sweep over the
/// persistent [`trl_nnf::SweepPool`] costs one job dispatch plus one
/// barrier per dependency layer, which the measured per-node sweep rate
/// amortizes comfortably by ~64k tape nodes, while small circuits
/// (hundreds of nodes) stay far below the cut-over and keep their
/// lane-batched path. `tests/kernel_timing_floors.rs` keeps the layered
/// sweep no slower than scalar on a ~145k-node tape.
pub const DEFAULT_LAYERED_MIN_NODES: usize = 1 << 16;

/// How the executor parallelizes one query group.
///
/// Layered sweeps run on the persistent [`trl_nnf::SweepPool`] (spawned
/// once per process, chunked work-stealing within each dependency layer),
/// so dispatching one costs a condvar wake instead of per-layer thread
/// spawns. They still only pay off when a circuit's layers hold enough
/// nodes to amortize the per-layer barrier: [`ParallelPolicy::Layered`]
/// carries that node threshold, and [`Executor::with_default_workers`]
/// enables it at [`DEFAULT_LAYERED_MIN_NODES`]. [`Executor::new`] keeps
/// the policy at [`ParallelPolicy::LaneOnly`] — explicit worker counts
/// are the manual-control constructor, and the lane-batched path is the
/// safe floor everywhere (on single-CPU hosts the pool degrades to it
/// inline). Flip at runtime with [`Executor::set_parallel_policy`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ParallelPolicy {
    /// Lane-batched kernels only; groups are never fanned within a
    /// layer. The default.
    #[default]
    LaneOnly,
    /// Groups against circuits with at least `min_nodes` raw arena nodes
    /// run as one layer-parallel sweep across the pool's width
    /// ([`DEFAULT_LAYERED_MIN_NODES`] is the historical cut-over).
    Layered {
        /// Minimum raw arena node count before a layered sweep dispatches.
        min_nodes: usize,
    },
}

impl ParallelPolicy {
    /// A stable one-token description for logs and benchmark JSON
    /// (`"lane-only"` or `"layered>=N"`).
    pub fn describe(&self) -> String {
        match self {
            ParallelPolicy::LaneOnly => "lane-only".to_string(),
            ParallelPolicy::Layered { min_nodes } => format!("layered>={min_nodes}"),
        }
    }
}

/// Canonical query-kind names in [`Query::kind_index`] order — the row
/// order of per-kind serving stats ([`Executor::served_by_kind`], the
/// `requests_served` table in the stats snapshot, and the
/// `engine.requests.*` / `engine.latency.*_us` metric families).
///
/// The first six rows are role-1 circuit queries; the rest are the roles
/// subsystem: PSDD queries (role 2, learning), structured-space queries
/// (role 2, combinatorial spaces), and classifier meta-reasoning queries
/// (role 3). Every row's counter and latency histogram is registered
/// eagerly at [`Executor::new`], so stats tables and Prometheus scrapes
/// show zero-valued rows before a kind's first use.
pub const QUERY_KINDS: [&str; 13] = [
    "sat",
    "model_count",
    "model_count_under",
    "wmc",
    "marginals",
    "max_weight",
    "psdd_log_likelihood",
    "psdd_marginal",
    "space_count",
    "space_top",
    "sufficient_reason",
    "decision_robustness",
    "classifier_bias",
];

/// One inference request against a compiled circuit.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Satisfiability (linear on DNNF).
    Sat,
    /// Model count over the circuit's universe.
    ModelCount,
    /// Model count restricted to models consistent with the given
    /// evidence (partial assignment).
    ModelCountUnder(PartialAssignment),
    /// Weighted model count under the given literal weights.
    Wmc(LitWeights),
    /// WMC plus every literal's marginal in one derivative pass.
    Marginals(LitWeights),
    /// Maximum assignment weight and a maximizer (MPE once weights encode
    /// probabilities).
    MaxWeight(LitWeights),
    /// Log-likelihood of a weighted complete dataset under a learned PSDD
    /// (role 2).
    PsddLogLikelihood(Vec<(Assignment, f64)>),
    /// Marginal probability of evidence under a learned PSDD (role 2).
    PsddMarginal(PartialAssignment),
    /// Number of objects in a compiled structured space consistent with
    /// the evidence (role 2).
    SpaceCount(PartialAssignment),
    /// Maximum-weight object of a compiled structured space (role 2).
    SpaceTop(LitWeights),
    /// The decision on an instance and one shortest sufficient reason for
    /// it (role 3).
    SufficientReason(Assignment),
    /// Minimum feature flips that change a classifier's decision (role 3).
    DecisionRobustness(Assignment),
    /// Whether a classifier decides differently on some instance when only
    /// the protected features change (role 3).
    ClassifierBias(Vec<Var>),
}

impl Query {
    /// Checks that the query is well-formed for an artifact over
    /// `num_vars` variables (weighted queries, evidence, instances, and
    /// datasets must cover the universe).
    pub fn validate(&self, num_vars: usize) -> Result<()> {
        let undersized_evidence = |what: &str, len: usize| {
            Err(EngineError::Structure(format!(
                "{what} covers {len} variables but the artifact has {num_vars}"
            )))
        };
        let weights = match self {
            Query::Sat | Query::ModelCount => return Ok(()),
            Query::ModelCountUnder(pa) | Query::PsddMarginal(pa) | Query::SpaceCount(pa) => {
                if pa.len() < num_vars {
                    return undersized_evidence("evidence", pa.len());
                }
                return Ok(());
            }
            Query::SufficientReason(x) | Query::DecisionRobustness(x) => {
                if x.len() < num_vars {
                    return undersized_evidence("instance", x.len());
                }
                return Ok(());
            }
            Query::PsddLogLikelihood(data) => {
                for (a, _) in data {
                    if a.len() < num_vars {
                        return undersized_evidence("dataset example", a.len());
                    }
                }
                return Ok(());
            }
            Query::ClassifierBias(protected) => {
                for v in protected {
                    if v.index() >= num_vars {
                        return Err(EngineError::Structure(format!(
                            "protected variable {} outside the artifact's {num_vars} features",
                            v.index()
                        )));
                    }
                }
                return Ok(());
            }
            Query::Wmc(w) | Query::Marginals(w) | Query::MaxWeight(w) | Query::SpaceTop(w) => w,
        };
        if weights.num_vars() < num_vars {
            return undersized_evidence("weights", weights.num_vars());
        }
        Ok(())
    }

    /// The artifact kind this query runs against.
    pub fn artifact_kind(&self) -> ArtifactKind {
        match self {
            Query::Sat
            | Query::ModelCount
            | Query::ModelCountUnder(_)
            | Query::Wmc(_)
            | Query::Marginals(_)
            | Query::MaxWeight(_) => ArtifactKind::Circuit,
            Query::PsddLogLikelihood(_) | Query::PsddMarginal(_) => ArtifactKind::Psdd,
            Query::SpaceCount(_) | Query::SpaceTop(_) => ArtifactKind::Space,
            Query::SufficientReason(_)
            | Query::DecisionRobustness(_)
            | Query::ClassifierBias(_) => ArtifactKind::Classifier,
        }
    }

    /// A short name for logs and benchmark tables.
    pub fn kind(&self) -> &'static str {
        QUERY_KINDS[self.kind_index()]
    }

    /// This query's row in [`QUERY_KINDS`] and the per-kind stat tables.
    pub fn kind_index(&self) -> usize {
        match self {
            Query::Sat => 0,
            Query::ModelCount => 1,
            Query::ModelCountUnder(_) => 2,
            Query::Wmc(_) => 3,
            Query::Marginals(_) => 4,
            Query::MaxWeight(_) => 5,
            Query::PsddLogLikelihood(_) => 6,
            Query::PsddMarginal(_) => 7,
            Query::SpaceCount(_) => 8,
            Query::SpaceTop(_) => 9,
            Query::SufficientReason(_) => 10,
            Query::DecisionRobustness(_) => 11,
            Query::ClassifierBias(_) => 12,
        }
    }

    /// The kernel bucket this query joins, if it rides in a circuit's
    /// kernel job: 0 for the sum-product kinds (counts, WMC and marginals
    /// share one sweep) and SAT (read from the per-circuit constant in the
    /// same job, without a lane), 1 for MPE (max-product). Role queries
    /// are answered one by one.
    fn kernel_bucket(&self) -> Option<usize> {
        match self {
            Query::Sat
            | Query::ModelCount
            | Query::ModelCountUnder(_)
            | Query::Wmc(_)
            | Query::Marginals(_) => Some(0),
            Query::MaxWeight(_) => Some(1),
            _ => None,
        }
    }
}

/// The value a [`Query`] produced.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryAnswer {
    /// Answer to [`Query::Sat`].
    Sat(bool),
    /// Answer to [`Query::ModelCount`], [`Query::ModelCountUnder`], and
    /// [`Query::SpaceCount`].
    ModelCount(u128),
    /// Answer to [`Query::Wmc`].
    Wmc(f64),
    /// Answer to [`Query::Marginals`].
    Marginals {
        /// The total weighted model count.
        wmc: f64,
        /// Per variable: `(WMC(Δ∧v), WMC(Δ∧¬v))`.
        marginals: Vec<(f64, f64)>,
    },
    /// Answer to [`Query::MaxWeight`] and [`Query::SpaceTop`]: `None` iff
    /// the space is empty.
    MaxWeight(Option<(f64, Assignment)>),
    /// Answer to [`Query::PsddLogLikelihood`].
    LogLikelihood(f64),
    /// Answer to [`Query::PsddMarginal`].
    Probability(f64),
    /// Answer to [`Query::SufficientReason`]: the decision and one
    /// shortest sufficient reason (`None` only for an unsatisfiable
    /// target).
    Reason {
        /// The classifier's decision on the instance.
        decision: bool,
        /// A minimal cube of instance literals guaranteeing the decision.
        reason: Option<Cube>,
    },
    /// Answer to [`Query::DecisionRobustness`]: `None` for constant
    /// classifiers.
    Robustness(Option<u32>),
    /// Answer to [`Query::ClassifierBias`].
    Bias(bool),
}

impl QueryAnswer {
    /// The model count, if this is a counting answer.
    pub fn model_count(&self) -> Option<u128> {
        match self {
            QueryAnswer::ModelCount(n) => Some(*n),
            _ => None,
        }
    }

    /// The WMC value, if this is a weighted-counting answer.
    pub fn wmc(&self) -> Option<f64> {
        match self {
            QueryAnswer::Wmc(x) => Some(*x),
            QueryAnswer::Marginals { wmc, .. } => Some(*wmc),
            _ => None,
        }
    }
}

/// One answered query: the answer plus its service latency. For a query
/// answered as part of a kernel group, the latency is the group's sweep
/// time — the wall time that query actually waited on its answering
/// thread. That holds for SAT too: a SAT query rides in its circuit's
/// sum-product job, so its latency is that job's sweep time, not the
/// constant read that answers it.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The computed answer.
    pub answer: QueryAnswer,
    /// Service time for this query (shared across a group).
    pub latency: Duration,
}

/// One planned unit of work: a circuit's sum-product or MPE query group,
/// or one ungroupable query, answered by a single `run_job` call.
struct Job {
    artifact: Artifact,
    /// Submission indices, parallel to `queries`.
    indices: Vec<usize>,
    queries: Vec<Query>,
    /// Threads each tape layer may fan across (1 = lane-batched only).
    layer_threads: usize,
}

/// A validated batch split into jobs.
struct Plan {
    jobs: Vec<Job>,
    /// Kind index per submission index, for per-kind stat attribution.
    kinds: Vec<usize>,
    /// Whether this batch dispatches layer-parallel sweeps.
    layered: bool,
}

/// Answers one job on the calling thread. Yields `(submission index,
/// outcome)` pairs; every query in the job shares the job's service time
/// as its latency.
fn run_job(job: &Job) -> impl Iterator<Item = (usize, QueryOutcome)> + '_ {
    let start = Instant::now();
    let answers = {
        let _batch = trl_obs::trace_span("executor.batch");
        match job.artifact.as_circuit() {
            Some(circuit) => circuit.answer_batch(&job.queries, job.layer_threads),
            // Role-2/3 artifacts have no lane-batched kernels; answer each
            // query through the prepared form's `&self` entry point.
            None => job.queries.iter().map(|q| job.artifact.answer(q)).collect(),
        }
    };
    let latency = start.elapsed();
    trl_obs::histogram!("engine.service_us").record(latency);
    job.indices.iter().copied().zip(
        answers
            .into_iter()
            .map(move |answer| QueryOutcome { answer, latency }),
    )
}

/// What the pool's channel carries.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// The `engine.requests.<kind>` counter for a [`Query::kind_index`] row,
/// resolved once per kind for the process.
fn kind_counter(kind: usize) -> &'static trl_obs::Counter {
    static HANDLES: OnceLock<[&'static trl_obs::Counter; QUERY_KINDS.len()]> = OnceLock::new();
    HANDLES.get_or_init(|| {
        std::array::from_fn(|i| trl_obs::counter(&format!("engine.requests.{}", QUERY_KINDS[i])))
    })[kind]
}

/// The `engine.latency.<kind>_us` histogram for a kind row: each query's
/// [`QueryOutcome::latency`], so `engine.latency.sat_us` records the
/// service time of the sum-product job a SAT query rode in.
fn kind_histogram(kind: usize) -> &'static trl_obs::Histogram {
    static HANDLES: OnceLock<[&'static trl_obs::Histogram; QUERY_KINDS.len()]> = OnceLock::new();
    HANDLES.get_or_init(|| {
        std::array::from_fn(|i| {
            trl_obs::histogram(&format!("engine.latency.{}_us", QUERY_KINDS[i]))
        })
    })[kind]
}

/// Answers query batches against shared immutable artifacts on the
/// calling thread ([`Executor::run`]) and runs tasks on a fixed pool of
/// worker threads ([`Executor::execute`]). Dropping the executor shuts the
/// workers down.
pub struct Executor {
    tx: Option<Sender<Task>>,
    workers: Vec<JoinHandle<()>>,
    /// Queries answered since construction, one row per
    /// [`QUERY_KINDS`] entry — the per-kind `requests_served` table of
    /// this executor's stats snapshot (engine-scoped, unlike the
    /// process-global `engine.requests.*` counters).
    served_by_kind: [AtomicU64; QUERY_KINDS.len()],
    /// The [`ParallelPolicy`] encoded as a minimum node count: `0` means
    /// lane-only (layered sweeps never dispatch), anything else is
    /// `Layered { min_nodes }`. Atomic so serving frontends can flip the
    /// policy through a shared `&Executor`.
    layered_min_nodes: AtomicUsize,
}

impl Executor {
    /// Spawns a pool of `workers` threads (at least one) for
    /// [`Executor::execute`]; [`Executor::run`] answers on its caller.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = channel::<Task>();
        let rx = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("trl-engine-worker-{i}"))
                    .spawn(move || Self::worker_loop(&rx))
                    .expect("spawn worker thread")
            })
            .collect();
        // Register every per-kind counter and latency histogram up front:
        // stats tables and Prometheus scrapes must show zero-valued rows
        // for kinds that have not been exercised yet, with no
        // dynamic-label gaps when a new kind first fires.
        for kind in 0..QUERY_KINDS.len() {
            kind_counter(kind);
            kind_histogram(kind);
        }
        let _ = trl_obs::counter!("engine.batches");
        let _ = trl_obs::counter!("engine.requests");
        Executor {
            tx: Some(tx),
            workers: handles,
            served_by_kind: [const { AtomicU64::new(0) }; QUERY_KINDS.len()],
            layered_min_nodes: AtomicUsize::new(0),
        }
    }

    /// Spawns one worker per hardware thread
    /// ([`std::thread::available_parallelism`], falling back to 1) — the
    /// default when no explicit worker count is configured — and enables
    /// [`ParallelPolicy::Layered`] at [`DEFAULT_LAYERED_MIN_NODES`]: with
    /// the persistent sweep pool, layer-parallel dispatch is a measured
    /// win past that size and a no-op degradation below one participant,
    /// so the auto-sized executor no longer needs a manual
    /// [`Executor::set_parallel_policy`] call to benefit.
    pub fn with_default_workers() -> Self {
        let ex = Executor::new(std::thread::available_parallelism().map_or(1, |p| p.get()));
        ex.set_parallel_policy(ParallelPolicy::Layered {
            min_nodes: DEFAULT_LAYERED_MIN_NODES,
        });
        ex
    }

    fn worker_loop(rx: &Mutex<Receiver<Task>>) {
        loop {
            // Hold the lock only to receive, never while running a task.
            let task = match rx.lock() {
                Ok(guard) => guard.recv(),
                Err(_) => return, // a sibling panicked; shut down
            };
            let Ok(task) = task else {
                return; // executor dropped: no more tasks
            };
            // A panicking task must not take the worker with it: the pool
            // would shrink for every later caller.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        }
    }

    /// Number of pool worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Queries answered since construction, one row per [`QUERY_KINDS`]
    /// entry.
    pub fn served_by_kind(&self) -> [u64; QUERY_KINDS.len()] {
        std::array::from_fn(|i| self.served_by_kind[i].load(Ordering::Relaxed))
    }

    /// Sets how groups parallelize (see [`ParallelPolicy`]). Takes effect
    /// for batches run after the call; safe through a shared reference.
    pub fn set_parallel_policy(&self, policy: ParallelPolicy) {
        let encoded = match policy {
            ParallelPolicy::LaneOnly => 0,
            // `min_nodes == 0` means "always layered"; encode it as 1 so it
            // stays distinguishable from the lane-only sentinel (every
            // circuit has at least one node, so the behavior is identical).
            ParallelPolicy::Layered { min_nodes } => min_nodes.max(1),
        };
        self.layered_min_nodes.store(encoded, Ordering::Relaxed);
    }

    /// The active [`ParallelPolicy`].
    pub fn parallel_policy(&self) -> ParallelPolicy {
        match self.layered_min_nodes.load(Ordering::Relaxed) {
            0 => ParallelPolicy::LaneOnly,
            min_nodes => ParallelPolicy::Layered { min_nodes },
        }
    }

    /// Validates a batch and answers it on the calling thread, returning
    /// outcomes in submission order. No query runs unless the whole batch
    /// is valid.
    ///
    /// The batch is planned into one job per kernel bucket (the
    /// sum-product group and the MPE group) plus one per ungroupable
    /// query, and the jobs run one after another here. Groups past the
    /// [`ParallelPolicy`] threshold still fan their tape layers across the
    /// persistent sweep pool.
    ///
    /// Stats are attributed once per batch: engine-scoped per-kind totals
    /// plus the process-global request counters and latency histograms —
    /// a few relaxed atomics per query.
    pub fn run(&self, artifact: &Artifact, queries: Vec<Query>) -> Result<Vec<QueryOutcome>> {
        let plan = self.plan(artifact, queries)?;
        let mut slots: Vec<Option<QueryOutcome>> = (0..plan.kinds.len()).map(|_| None).collect();
        for job in &plan.jobs {
            for (index, outcome) in run_job(job) {
                slots[index] = Some(outcome);
            }
        }
        let outcomes: Vec<QueryOutcome> = slots
            .into_iter()
            .map(|s| s.expect("every index answered exactly once"))
            .collect();
        trl_obs::counter!("engine.batches").inc();
        trl_obs::counter!("engine.requests").add(outcomes.len() as u64);
        if plan.layered {
            trl_obs::counter!("engine.layered_dispatches").inc();
        }
        for (&kind, outcome) in plan.kinds.iter().zip(&outcomes) {
            self.served_by_kind[kind].fetch_add(1, Ordering::Relaxed);
            kind_counter(kind).inc();
            kind_histogram(kind).record(outcome.latency);
        }
        Ok(outcomes)
    }

    /// Runs `task` on a pool worker and returns at once. Tasks run in
    /// submission order; a task that panics is dropped and the worker
    /// carries on.
    pub fn execute(&self, task: impl FnOnce() + Send + 'static) {
        let tx = self.tx.as_ref().expect("executor is live until dropped");
        tx.send(Box::new(task)).expect("worker pool alive");
    }

    /// Validates a batch and splits it into jobs. Every query must be
    /// addressed to the artifact's kind ([`Artifact::validate`]). Circuit
    /// queries are grouped into two buckets — sum-product (counts, WMC,
    /// marginals, in any mix, plus SAT) and MPE — and each non-empty bucket
    /// is one job, whose forward sweep runs layer-parallel when the active
    /// [`ParallelPolicy`] says the circuit is wide enough. SAT takes no
    /// lane, and a SAT-only bucket is a job that never builds the tape.
    /// Every role-2/3 query becomes a job of its own.
    fn plan(&self, artifact: &Artifact, queries: Vec<Query>) -> Result<Plan> {
        for q in &queries {
            artifact.validate(q)?;
        }

        // Partition into the two kernel buckets (indices + queries, in
        // submission order) and ungroupable singles.
        let mut buckets: [(Vec<usize>, Vec<Query>); 2] = Default::default();
        let mut singles: Vec<(usize, Query)> = Vec::new();
        let mut kinds = Vec::with_capacity(queries.len());
        for (index, query) in queries.into_iter().enumerate() {
            kinds.push(query.kind_index());
            match query.kernel_bucket() {
                Some(b) => {
                    buckets[b].0.push(index);
                    buckets[b].1.push(query);
                }
                None => singles.push((index, query)),
            }
        }

        let layered = match (self.parallel_policy(), artifact.as_circuit()) {
            (ParallelPolicy::Layered { min_nodes }, Some(circuit)) => {
                circuit.raw().node_count() >= min_nodes
            }
            _ => false,
        };
        // A layered group fans each tape layer across the persistent sweep
        // pool's full width (the kernel clamps to what the pool has).
        let layer_threads = if layered {
            trl_nnf::SweepPool::global().size()
        } else {
            1
        };
        let job = |indices, queries, layer_threads| Job {
            artifact: artifact.clone(),
            indices,
            queries,
            layer_threads,
        };
        let jobs = buckets
            .into_iter()
            .filter(|(_, group)| !group.is_empty())
            .map(|(indices, group)| job(indices, group, layer_threads))
            .chain(
                singles
                    .into_iter()
                    .map(|(index, query)| job(vec![index], vec![query], 1)),
            )
            .collect();
        Ok(Plan {
            jobs,
            kinds,
            layered,
        })
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        // Closing the channel ends every worker's recv loop.
        self.tx.take();
        // The executor can be dropped *from one of its own workers*: a task
        // passed to `execute` may hold the last strong reference to
        // whatever owns the executor (the network server's build tasks
        // capture its shared state) and release it as the closure drops.
        // Joining that thread would be a self-join (EDEADLK); detach it —
        // the closed channel already guarantees it exits on its own.
        let me = std::thread::current().id();
        for h in self.workers.drain(..) {
            if h.thread().id() == me {
                drop(h);
            } else {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prepared::PreparedCircuit;
    use trl_compiler::DecisionDnnfCompiler;
    use trl_prop::Cnf;

    fn prepared() -> Arc<PreparedCircuit> {
        let cnf = Cnf::parse_dimacs("p cnf 4 3\n1 2 0\n-1 3 0\n-2 -4 0\n").unwrap();
        Arc::new(PreparedCircuit::new(
            DecisionDnnfCompiler::default().compile(&cnf),
        ))
    }

    fn circuit(p: &Arc<PreparedCircuit>) -> Artifact {
        Artifact::Circuit(Arc::clone(p))
    }

    #[test]
    fn batch_answers_in_submission_order() {
        let p = prepared();
        let expected_count = p.raw().model_count();
        let ex = Executor::new(3);
        assert_eq!(ex.num_workers(), 3);
        let mut queries = Vec::new();
        for _ in 0..17 {
            queries.push(Query::ModelCount);
            queries.push(Query::Sat);
            queries.push(Query::Wmc(LitWeights::unit(4)));
        }
        let outcomes = ex.run(&circuit(&p), queries).unwrap();
        assert_eq!(outcomes.len(), 51);
        for chunk in outcomes.chunks(3) {
            assert_eq!(chunk[0].answer.model_count(), Some(expected_count));
            assert_eq!(chunk[1].answer, QueryAnswer::Sat(true));
            assert_eq!(chunk[2].answer.wmc(), Some(expected_count as f64));
            assert!(chunk.iter().all(|o| o.latency > Duration::ZERO));
        }
    }

    #[test]
    fn mixed_kind_batch_matches_direct_answers() {
        let p = prepared();
        let mut w = LitWeights::unit(4);
        for v in 0..4u32 {
            w.set(trl_core::Var(v).positive(), 0.3 + 0.1 * v as f64);
            w.set(trl_core::Var(v).negative(), 0.7 - 0.1 * v as f64);
        }
        let mut pa = PartialAssignment::new(4);
        pa.assign(trl_core::Var(0).positive());
        let mut queries = Vec::new();
        for i in 0..9 {
            queries.push(Query::Wmc(w.clone()));
            queries.push(Query::Marginals(w.clone()));
            queries.push(Query::ModelCountUnder(pa.clone()));
            queries.push(Query::MaxWeight(w.clone()));
            if i % 2 == 0 {
                queries.push(Query::Sat);
            }
        }
        let ex = Executor::new(2);
        let outcomes = ex.run(&circuit(&p), queries.clone()).unwrap();
        for (q, o) in queries.iter().zip(&outcomes) {
            assert_eq!(o.answer, p.answer(q), "kind={}", q.kind());
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let ex = Executor::new(2);
        assert!(ex
            .run(&circuit(&prepared()), Vec::new())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn undersized_weights_rejected_before_running() {
        let ex = Executor::new(1);
        let bad = vec![Query::ModelCount, Query::Wmc(LitWeights::unit(2))];
        assert!(matches!(
            ex.run(&circuit(&prepared()), bad),
            Err(EngineError::Structure(_))
        ));
        let bad_evidence = vec![Query::ModelCountUnder(PartialAssignment::new(2))];
        assert!(matches!(
            ex.run(&circuit(&prepared()), bad_evidence),
            Err(EngineError::Structure(_))
        ));
    }

    #[test]
    fn plan_makes_one_job_per_non_empty_bucket() {
        let ex = Executor::new(4);
        let mut queries = vec![Query::ModelCount; 20];
        queries.extend(vec![Query::Wmc(LitWeights::unit(4)); 20]);
        queries.extend(vec![Query::MaxWeight(LitWeights::unit(4)); 20]);
        queries.extend(vec![Query::Sat; 3]);
        let jobs = |queries: Vec<Query>| -> Vec<usize> {
            let plan = ex.plan(&circuit(&prepared()), queries);
            plan.unwrap().jobs.iter().map(|j| j.queries.len()).collect()
        };
        // Counts, WMC and SAT share the sum-product job, however many
        // lane groups it fills; MPE has its own.
        assert_eq!(jobs(queries.clone()), [43, 20]);
        // SAT in front rides in the same job.
        let sat_first: Vec<Query> = queries[60..]
            .iter()
            .chain(&queries[..40])
            .cloned()
            .collect();
        assert_eq!(jobs(sat_first), [43]);
        // SAT last, behind MPE, still joins the sum-product job.
        let sat_last: Vec<Query> = queries[40..].to_vec();
        assert_eq!(jobs(sat_last), [3, 20]);
        // A SAT-only batch is one job; an empty batch none.
        assert_eq!(jobs(queries[60..].to_vec()), [3]);
        assert_eq!(jobs(Vec::new()), [0usize; 0]);
        // A layered policy keeps the partition.
        ex.set_parallel_policy(ParallelPolicy::Layered { min_nodes: 1 });
        assert_eq!(jobs(queries), [43, 20]);
    }

    #[test]
    fn sat_rides_in_the_kernel_job_and_never_builds_the_tape() {
        let p = prepared();
        let ex = Executor::new(2);
        let outcomes = ex.run(&circuit(&p), vec![Query::Sat; 3]).unwrap();
        assert!(outcomes.iter().all(|o| o.answer == QueryAnswer::Sat(true)));
        assert!(
            !p.smoothing_materialized(),
            "SAT alone never builds the tape"
        );
        let mixed = vec![Query::Sat, Query::ModelCount, Query::Sat];
        let expect = [
            QueryAnswer::Sat(true),
            QueryAnswer::ModelCount(p.raw().model_count()),
            QueryAnswer::Sat(true),
        ];
        let outcomes = ex.run(&circuit(&p), mixed).unwrap();
        let got: Vec<QueryAnswer> = outcomes.into_iter().map(|o| o.answer).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn zero_worker_request_still_gets_one() {
        let ex = Executor::new(0);
        assert_eq!(ex.num_workers(), 1);
        let (tx, rx) = channel();
        ex.execute(move || {
            let _ = tx.send(std::thread::current().name().map(str::to_string));
        });
        assert_eq!(rx.recv().unwrap().as_deref(), Some("trl-engine-worker-0"));
    }

    #[test]
    fn parallel_policy_defaults_off_and_round_trips() {
        let ex = Executor::new(1);
        assert_eq!(ex.parallel_policy(), ParallelPolicy::LaneOnly);
        ex.set_parallel_policy(ParallelPolicy::Layered { min_nodes: 4096 });
        assert_eq!(
            ex.parallel_policy(),
            ParallelPolicy::Layered { min_nodes: 4096 }
        );
        assert_eq!(ex.parallel_policy().describe(), "layered>=4096");
        ex.set_parallel_policy(ParallelPolicy::LaneOnly);
        assert_eq!(ex.parallel_policy(), ParallelPolicy::LaneOnly);
        assert_eq!(ex.parallel_policy().describe(), "lane-only");
    }

    #[test]
    fn default_workers_auto_tune_the_layered_policy() {
        let ex = Executor::with_default_workers();
        assert_eq!(
            ex.parallel_policy(),
            ParallelPolicy::Layered {
                min_nodes: DEFAULT_LAYERED_MIN_NODES
            }
        );
        // Explicit worker counts are the manual-control constructor and
        // keep the lane-only floor.
        assert_eq!(Executor::new(2).parallel_policy(), ParallelPolicy::LaneOnly);
    }

    #[test]
    fn layered_opt_in_answers_identically() {
        let p = prepared();
        let ex = Executor::new(2);
        let lane = ex.run(&circuit(&p), vec![Query::ModelCount; 20]).unwrap();
        // min_nodes: 1 forces the layered sweep even on this tiny circuit.
        ex.set_parallel_policy(ParallelPolicy::Layered { min_nodes: 1 });
        let layered = ex.run(&circuit(&p), vec![Query::ModelCount; 20]).unwrap();
        for (a, b) in lane.iter().zip(&layered) {
            assert_eq!(a.answer, b.answer);
        }
    }

    #[test]
    fn role_2_and_3_artifacts_answer_on_the_caller() {
        use trl_core::Var;
        let cnf = Cnf::parse_dimacs("p cnf 3 2\n-1 2 0\n-2 3 0\n").unwrap();
        let data = vec![
            (Assignment::from_values(&[false, false, false]), 3.0),
            (Assignment::from_values(&[true, true, true]), 1.0),
        ];
        let psdd = Arc::new(trl_psdd::PreparedPsdd::learn_from_cnf(&cnf, &data, 0.1).unwrap());
        let clf = Arc::new(trl_xai::PreparedClassifier::compile(&cnf));
        let space = Arc::new(trl_spaces::PreparedSpace::compile(
            trl_spaces::Graph::new(3, vec![(0, 1), (1, 2), (0, 2)]),
            0,
            2,
        ));
        let ex = Executor::new(2);

        let mut e = PartialAssignment::new(3);
        e.assign(Var(2).positive());
        let art = Artifact::Psdd(Arc::clone(&psdd));
        let outcomes = ex
            .run(
                &art,
                vec![
                    Query::PsddLogLikelihood(data.clone()),
                    Query::PsddMarginal(e.clone()),
                ],
            )
            .unwrap();
        assert_eq!(
            outcomes[0].answer,
            QueryAnswer::LogLikelihood(psdd.log_likelihood(&data))
        );
        assert_eq!(
            outcomes[1].answer,
            QueryAnswer::Probability(psdd.marginal(&e))
        );

        let art = Artifact::Space(Arc::clone(&space));
        let outcomes = ex
            .run(
                &art,
                vec![
                    Query::SpaceCount(PartialAssignment::new(3)),
                    Query::SpaceTop(LitWeights::unit(3)),
                ],
            )
            .unwrap();
        assert_eq!(
            outcomes[0].answer,
            QueryAnswer::ModelCount(space.path_count())
        );
        assert!(matches!(
            outcomes[1].answer,
            QueryAnswer::MaxWeight(Some(_))
        ));

        let x = Assignment::from_values(&[true, true, true]);
        let art = Artifact::Classifier(Arc::clone(&clf));
        let outcomes = ex
            .run(
                &art,
                vec![
                    Query::SufficientReason(x.clone()),
                    Query::DecisionRobustness(x.clone()),
                    Query::ClassifierBias(vec![Var(0)]),
                ],
            )
            .unwrap();
        let (decision, reason) = clf.sufficient_reason(&x);
        assert_eq!(outcomes[0].answer, QueryAnswer::Reason { decision, reason });
        assert_eq!(
            outcomes[1].answer,
            QueryAnswer::Robustness(clf.robustness(&x))
        );
        assert_eq!(
            outcomes[2].answer,
            QueryAnswer::Bias(clf.is_biased(&[Var(0)]))
        );

        let served = ex.served_by_kind();
        for kind in 6..QUERY_KINDS.len() {
            assert!(served[kind] > 0, "kind {} unattributed", QUERY_KINDS[kind]);
        }
    }

    #[test]
    fn kind_mismatch_rejected_before_running() {
        let ex = Executor::new(1);
        let result = ex.run(
            &Artifact::Circuit(prepared()),
            vec![Query::SpaceCount(PartialAssignment::new(4))],
        );
        assert!(matches!(result, Err(EngineError::Structure(_))));
    }

    #[test]
    fn tasks_run_on_the_pool_in_submission_order() {
        let ex = Executor::new(1);
        let (tx, rx) = channel();
        for i in 0..4 {
            let tx = tx.clone();
            ex.execute(move || {
                let name = std::thread::current().name().map(str::to_string);
                let _ = tx.send((i, name));
            });
        }
        drop(tx);
        let ran: Vec<_> = rx.iter().collect();
        let worker = Some("trl-engine-worker-0".to_string());
        assert_eq!(ran, (0..4).map(|i| (i, worker.clone())).collect::<Vec<_>>());
    }

    #[test]
    fn run_inside_an_execute_task_returns() {
        // A task runs on a pool worker — on a one-worker executor, the
        // only one. A batch answered on the caller's thread needs no
        // worker, so issuing one from there returns.
        let p = prepared();
        let ex = Arc::new(Executor::new(1));
        let (tx, rx) = channel();
        let inner = Arc::clone(&ex);
        let art = circuit(&p);
        ex.execute(move || {
            let _ = tx.send(inner.run(&art, vec![Query::ModelCount; 3]));
        });
        // This thread is the watchdog: a regression parks the worker for
        // good, and the test fails here instead of hanging.
        let outcomes = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a batch run inside a pool task never returned")
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        for o in outcomes {
            assert_eq!(o.answer.model_count(), Some(p.raw().model_count()));
        }
    }

    #[test]
    fn dropping_the_last_executor_on_its_own_worker_returns() {
        // The task holds the last `Arc<Executor>` and drops it on the
        // worker, so `Drop` runs on a thread it would otherwise join.
        let ex = Arc::new(Executor::new(1));
        let last = Arc::clone(&ex);
        let (go_tx, go_rx) = channel::<()>();
        let (done_tx, done_rx) = channel();
        ex.execute(move || {
            go_rx.recv().expect("the test thread lets the task go");
            drop(last);
            let _ = done_tx.send(std::thread::current().name().map(str::to_string));
        });
        drop(ex);
        go_tx.send(()).unwrap();
        // The watchdog: a self-join would hang or panic the drop, and the
        // task would never report back.
        let dropped_on = done_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("dropping the executor on its own worker never returned");
        assert_eq!(dropped_on.as_deref(), Some("trl-engine-worker-0"));
    }
}
