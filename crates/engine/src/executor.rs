//! The batched query executor: plans a batch into grouped jobs and answers
//! each job through the evaluation kernels, on the calling thread or on a
//! fixed worker pool.
//!
//! Artifacts are shared as `Arc`s, so a job touching one clones a pointer,
//! not a circuit. A job is not one query: planning puts a circuit's
//! queries into two buckets — the sum-product kinds (counts, counts under
//! evidence, WMC, marginals), which share one lane-batched tape sweep
//! ([`trl_nnf::EvalTape::sum_product_batch`]) whatever their mix, and MPE,
//! which shares one max-product sweep — instead of one arena walk per
//! query. When the [`ParallelPolicy`] says a circuit is wide enough, a
//! whole bucket instead becomes one job that fans each tape layer across
//! the persistent [`trl_nnf::SweepPool`]. Each answered query
//! reports its service latency, so `bench-serve` can record tail
//! behaviour, not just throughput.
//!
//! Two entry points share the plan and the one function that answers a
//! job; only the thread differs:
//!
//! - [`Executor::run`] blocks and answers every job on the calling thread.
//!   A caller brings its own thread — one that would otherwise sleep on a
//!   channel while a worker ran the same code — so a blocking batch pays
//!   no channel send, no worker wake-up and no completion channel, and one
//!   issued from inside a completion callback cannot wait on the very
//!   worker that is running it. The network server's reactors answer
//!   every query frame this way.
//! - [`Executor::submit`] returns at once: its jobs go to the worker pool,
//!   and a completion callback fires from the worker that answers the last
//!   one — for in-process callers that must not block.
//!
//! The same workers also run arbitrary tasks ([`Executor::execute`]): the
//! network server's artifact builds (compile, learn, optimize), which can
//! take arbitrarily long and so must not run on a reactor.
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
use trl_nnf::{LitWeights, LANES};
use trl_obs::TraceContext;

/// The node count [`ParallelPolicy::Layered`] switches at — the default
/// policy of [`Executor::with_default_workers`]. Validated by
/// `bench_eval`'s large-circuit tier: a layered sweep over the persistent
/// [`trl_nnf::SweepPool`] costs one job dispatch plus one barrier per
/// dependency layer, which the measured per-node sweep rate amortizes
/// comfortably by ~64k tape nodes, while the small tier (hundreds of
/// nodes) stays far below the cut-over and keeps its lane-batched path.
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
    /// layer (on the pool they are chunked across workers). The default.
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

/// The completion callback of an asynchronously submitted batch.
type Completion = Box<dyn FnOnce(Vec<QueryOutcome>) + Send + 'static>;

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

/// A validated batch split into jobs. Both entry points plan a batch with
/// the same function; [`Executor::run`] answers the jobs on the calling
/// thread and [`Executor::submit`] hands them to the pool.
struct Plan {
    jobs: Vec<Job>,
    /// Kind index per submission index, for per-kind stat attribution.
    kinds: Vec<usize>,
    /// Whether this batch dispatches layer-parallel sweeps.
    layered: bool,
}

/// Answers one job: the one function behind both entry points, run on a
/// pool worker for [`Executor::submit`] and on the caller for
/// [`Executor::run`]. Yields `(submission index, outcome)` pairs; every
/// query in the job shares the job's service time as its latency.
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

/// What the pool's channel carries: a planned query job or a task.
enum Work {
    Job(Queued),
    Task(Box<dyn FnOnce() + Send + 'static>),
}

/// A job in the pool's channel, with what the answering worker needs
/// beyond the job itself.
struct Queued {
    job: Job,
    /// When the job entered the channel — queue wait is measured from here
    /// to the moment a worker picks the job up.
    submitted: Instant,
    /// The sampled trace context of the request this job belongs to, if
    /// any: the worker records its queue wait and installs the context
    /// around the answering sweep so kernel spans attach to the tree.
    ctx: Option<TraceContext>,
    pending: Arc<Pending>,
}

/// Shared state of one submitted batch: the jobs it was split into all
/// hold an `Arc` to it, and whichever worker finishes the last job
/// attributes the batch's stats and runs the completion callback.
struct Pending {
    /// Outcome slot per submission index.
    slots: Mutex<Vec<Option<QueryOutcome>>>,
    /// Jobs not yet answered; the worker that decrements this to zero
    /// finalizes the batch.
    jobs_left: AtomicUsize,
    kinds: Vec<usize>,
    layered: bool,
    on_done: Mutex<Option<Completion>>,
    /// The owning executor's served-by-kind table (shared so completion
    /// can attribute from a worker thread).
    stats: Arc<ExecutorStats>,
}

impl Pending {
    /// Called once every job is answered: attributes stats and fires the
    /// completion callback.
    fn finalize(&self) {
        let outcomes = {
            let mut slots = self.slots.lock().expect("batch slots lock");
            self.stats.finish(&self.kinds, self.layered, &mut slots)
        };
        if let Some(done) = self.on_done.lock().expect("completion lock").take() {
            done(outcomes);
        }
    }
}

/// Served-by-kind counters, shared between the executor handle and
/// in-flight batch completions.
struct ExecutorStats {
    served_by_kind: [AtomicU64; QUERY_KINDS.len()],
}

impl ExecutorStats {
    /// Drains a fully answered batch's outcome slots and attributes its
    /// stats: engine-scoped per-kind totals plus the process-global
    /// request counters and latency histograms — a few relaxed atomics
    /// per query, once per batch on either path.
    fn finish(
        &self,
        kinds: &[usize],
        layered: bool,
        slots: &mut [Option<QueryOutcome>],
    ) -> Vec<QueryOutcome> {
        let outcomes: Vec<QueryOutcome> = slots
            .iter_mut()
            .map(|s| s.take().expect("every index answered exactly once"))
            .collect();
        trl_obs::counter!("engine.batches").inc();
        trl_obs::counter!("engine.requests").add(outcomes.len() as u64);
        if layered {
            trl_obs::counter!("engine.layered_dispatches").inc();
        }
        for (&kind, outcome) in kinds.iter().zip(&outcomes) {
            self.served_by_kind[kind].fetch_add(1, Ordering::Relaxed);
            kind_counter(kind).inc();
            kind_histogram(kind).record(outcome.latency);
        }
        outcomes
    }
}

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

/// Answers query batches against shared immutable artifacts: on the
/// calling thread ([`Executor::run`]) or on a fixed pool of worker threads
/// ([`Executor::submit`]), which also runs plain tasks
/// ([`Executor::execute`]). Dropping the executor shuts the workers down.
pub struct Executor {
    tx: Option<Sender<Work>>,
    workers: Vec<JoinHandle<()>>,
    /// Pool jobs submitted but not yet answered, across all callers — the
    /// pool's instantaneous backlog, surfaced as a serving stat.
    in_flight: Arc<AtomicUsize>,
    /// Queries answered since construction, one row per
    /// [`QUERY_KINDS`] entry — the per-kind `requests_served` table of
    /// this executor's stats snapshot (engine-scoped, unlike the
    /// process-global `engine.requests.*` counters).
    stats: Arc<ExecutorStats>,
    /// The [`ParallelPolicy`] encoded as a minimum node count: `0` means
    /// lane-only (layered sweeps never dispatch), anything else is
    /// `Layered { min_nodes }`. Atomic so serving frontends can flip the
    /// policy through a shared `&Executor`.
    layered_min_nodes: AtomicUsize,
}

impl Executor {
    /// Spawns a pool of `workers` threads (at least one) for
    /// [`Executor::submit`]; [`Executor::run`] answers on its caller.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = channel::<Work>();
        let rx = Arc::new(Mutex::new(rx));
        let in_flight = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let in_flight = Arc::clone(&in_flight);
                std::thread::Builder::new()
                    .name(format!("trl-engine-worker-{i}"))
                    .spawn(move || Self::worker_loop(&rx, &in_flight))
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
            in_flight,
            stats: Arc::new(ExecutorStats {
                served_by_kind: [const { AtomicU64::new(0) }; QUERY_KINDS.len()],
            }),
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

    fn worker_loop(rx: &Mutex<Receiver<Work>>, in_flight: &AtomicUsize) {
        loop {
            // Hold the lock only to receive, never while answering.
            let work = match rx.lock() {
                Ok(guard) => guard.recv(),
                Err(_) => return, // a sibling panicked; shut down
            };
            let Queued {
                job,
                submitted,
                ctx,
                pending,
            } = match work {
                Ok(Work::Job(queued)) => queued,
                Ok(Work::Task(task)) => {
                    // A panicking task must not take the worker with it:
                    // the pool would shrink for every later caller.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
                    continue;
                }
                Err(_) => return, // executor dropped: no more jobs
            };
            let queue_wait = submitted.elapsed();
            trl_obs::histogram!("engine.queue_wait_us").record(queue_wait);
            if let Some(ctx) = ctx {
                trl_obs::record_span_under(ctx, "engine.queue_wait", submitted, queue_wait);
            }
            let answered = trl_obs::with_current_trace(ctx, || run_job(&job));
            {
                let mut slots = pending.slots.lock().expect("batch slots lock");
                for (index, outcome) in answered {
                    slots[index] = Some(outcome);
                }
            }
            in_flight.fetch_sub(1, Ordering::Relaxed);
            // The last job standing finalizes: stat attribution plus the
            // batch's completion callback, both on this worker thread.
            if pending.jobs_left.fetch_sub(1, Ordering::AcqRel) == 1 {
                pending.finalize();
            }
        }
    }

    /// Number of pool worker threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Pool jobs submitted and not yet answered — an instantaneous backlog
    /// gauge for serving stats, not a synchronization primitive. Batches
    /// answered by [`Executor::run`] never enter it.
    pub fn queue_depth(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Queries answered since construction, one row per [`QUERY_KINDS`]
    /// entry.
    pub fn served_by_kind(&self) -> [u64; QUERY_KINDS.len()] {
        std::array::from_fn(|i| self.stats.served_by_kind[i].load(Ordering::Relaxed))
    }

    /// Sets how groups parallelize (see [`ParallelPolicy`]). Takes effect
    /// for batches submitted after the call; safe through a shared
    /// reference.
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
    /// The batch is planned as [`Executor::submit`] plans it, except that
    /// a bucket is never split across workers: one job per bucket (the
    /// sum-product group and the MPE group) plus one per ungroupable query.
    /// Every job runs through the same function a pool worker runs; only
    /// the thread differs. Groups past the [`ParallelPolicy`] threshold
    /// still fan their tape layers across the persistent sweep pool, but
    /// the jobs of a batch run one after another here instead of side by
    /// side on the pool.
    pub fn run(&self, artifact: &Artifact, queries: Vec<Query>) -> Result<Vec<QueryOutcome>> {
        let plan = self.plan(artifact, queries, 1)?;
        let mut slots: Vec<Option<QueryOutcome>> = (0..plan.kinds.len()).map(|_| None).collect();
        for job in &plan.jobs {
            for (index, outcome) in run_job(job) {
                slots[index] = Some(outcome);
            }
        }
        Ok(self.stats.finish(&plan.kinds, plan.layered, &mut slots))
    }

    /// Validates and submits a batch to the worker pool without blocking:
    /// `on_done` fires on a worker thread (or inline, for an empty batch)
    /// once every query is answered, receiving outcomes in submission
    /// order. An invalid batch returns its error and never fires
    /// `on_done`.
    ///
    /// A sampled `ctx` makes every job record its queue wait as a child
    /// span and installs the context on the answering worker, so
    /// kernel-level spans (sweeps, layer barriers) land in the request's
    /// tree.
    pub fn submit<F>(
        &self,
        artifact: &Artifact,
        queries: Vec<Query>,
        ctx: Option<TraceContext>,
        on_done: F,
    ) -> Result<()>
    where
        F: FnOnce(Vec<QueryOutcome>) + Send + 'static,
    {
        let Plan {
            jobs,
            kinds,
            layered,
        } = self.plan(artifact, queries, self.num_workers())?;
        let pending = Arc::new(Pending {
            slots: Mutex::new((0..kinds.len()).map(|_| None).collect()),
            jobs_left: AtomicUsize::new(jobs.len()),
            kinds,
            layered,
            on_done: Mutex::new(Some(Box::new(on_done))),
            stats: Arc::clone(&self.stats),
        });
        if jobs.is_empty() {
            pending.finalize();
            return Ok(());
        }
        let tx = self.tx.as_ref().expect("executor is live until dropped");
        self.in_flight.fetch_add(jobs.len(), Ordering::Relaxed);
        for job in jobs {
            let queued = Queued {
                job,
                submitted: Instant::now(),
                ctx,
                pending: Arc::clone(&pending),
            };
            tx.send(Work::Job(queued)).expect("worker pool alive");
        }
        Ok(())
    }

    /// Runs `task` on a pool worker and returns at once. Tasks and
    /// [`Executor::submit`] jobs share one queue, in submission order; a
    /// task does not count in [`Executor::queue_depth`]. A task that
    /// panics is dropped and the worker carries on.
    pub fn execute(&self, task: impl FnOnce() + Send + 'static) {
        let tx = self.tx.as_ref().expect("executor is live until dropped");
        tx.send(Work::Task(Box::new(task)))
            .expect("worker pool alive");
    }

    /// Validates a batch and splits it into jobs. Every query must be
    /// addressed to the artifact's kind ([`Artifact::validate`]). Circuit
    /// queries are grouped into two buckets — sum-product (counts, WMC,
    /// marginals, in any mix, plus SAT) and MPE — and each group is split
    /// into at most `split` lane-aligned chunks, one per thread that will
    /// answer them — or kept whole when the active [`ParallelPolicy`] says
    /// the circuit is wide enough, where the sum-product forward sweep
    /// runs layer-parallel. SAT takes no lane: it rides in whichever chunk
    /// is open when it comes up and does not count toward that chunk's
    /// lanes, and a SAT-only group is one job that never builds the tape.
    /// Every role-2/3 query becomes a job of its own.
    fn plan(&self, artifact: &Artifact, queries: Vec<Query>, split: usize) -> Result<Plan> {
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
        let mut jobs = Vec::new();
        let mut push = |indices: Vec<usize>, queries: Vec<Query>, layer_threads: usize| {
            jobs.push(Job {
                artifact: artifact.clone(),
                indices,
                queries,
                layer_threads,
            });
        };
        for (indices, group) in buckets {
            if group.is_empty() {
                continue;
            }
            if layered {
                // One job, whole group: each tape layer fans across the
                // persistent sweep pool's full width (the kernel clamps to
                // what the pool actually has).
                push(indices, group, trl_nnf::SweepPool::global().size());
                continue;
            }
            // Split the group's lanes across threads in lane-aligned
            // chunks, so every chunk fills whole value planes.
            let takes_lane = |q: &Query| !matches!(q, Query::Sat);
            let per_worker = group
                .iter()
                .filter(|q| takes_lane(q))
                .count()
                .div_ceil(split);
            let chunk = per_worker.max(LANES).div_ceil(LANES) * LANES;
            let (mut ix, mut qs, mut filled) = (Vec::new(), Vec::new(), 0);
            for (index, query) in indices.into_iter().zip(group) {
                let lane = takes_lane(&query);
                if lane && filled == chunk {
                    push(std::mem::take(&mut ix), std::mem::take(&mut qs), 1);
                    filled = 0;
                }
                filled += lane as usize;
                ix.push(index);
                qs.push(query);
            }
            push(ix, qs, 1);
        }
        for (index, query) in singles {
            push(vec![index], vec![query], 1);
        }
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
        // The executor can be dropped *from one of its own workers*: an
        // async completion callback may hold the last strong reference to
        // whatever owns the executor and release it as the closure drops.
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

    /// Submits to the pool and waits for the completion callback.
    fn run_on_pool(ex: &Executor, art: &Artifact, queries: Vec<Query>) -> Vec<QueryOutcome> {
        let (tx, rx) = channel();
        ex.submit(art, queries, None, move |o| {
            let _ = tx.send(o);
        })
        .unwrap();
        rx.recv().unwrap()
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
        let inline = ex.run(&circuit(&p), queries.clone()).unwrap();
        let pooled = run_on_pool(&ex, &circuit(&p), queries);
        for outcomes in [inline, pooled] {
            assert_eq!(outcomes.len(), 51);
            for chunk in outcomes.chunks(3) {
                assert_eq!(chunk[0].answer.model_count(), Some(expected_count));
                assert_eq!(chunk[1].answer, QueryAnswer::Sat(true));
                assert_eq!(chunk[2].answer.wmc(), Some(expected_count as f64));
                assert!(chunk.iter().all(|o| o.latency > Duration::ZERO));
            }
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
        let inline = ex.run(&circuit(&p), queries.clone()).unwrap();
        let pooled = run_on_pool(&ex, &circuit(&p), queries.clone());
        for outcomes in [inline, pooled] {
            for (q, o) in queries.iter().zip(&outcomes) {
                assert_eq!(o.answer, p.answer(q), "kind={}", q.kind());
            }
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
    fn many_batches_reuse_the_pool() {
        let p = prepared();
        let ex = Executor::new(2);
        for _ in 0..10 {
            let outcomes = run_on_pool(&ex, &circuit(&p), vec![Query::ModelCount; 8]);
            assert!(outcomes
                .iter()
                .all(|o| o.answer.model_count() == Some(p.raw().model_count())));
        }
    }

    #[test]
    fn only_the_pool_splits_a_kind_group() {
        let ex = Executor::new(4);
        let mut queries = vec![Query::ModelCount; 20];
        queries.extend(vec![Query::Wmc(LitWeights::unit(4)); 20]);
        queries.extend(vec![Query::MaxWeight(LitWeights::unit(4)); 20]);
        queries.extend(vec![Query::Sat; 3]);
        let jobs = |queries: &[Query], split| -> Vec<usize> {
            let plan = ex.plan(&circuit(&prepared()), queries.to_vec(), split);
            plan.unwrap().jobs.iter().map(|j| j.queries.len()).collect()
        };
        // Inline: counts, WMC and SAT share the sum-product job, MPE has
        // its own.
        assert_eq!(jobs(&queries, 1), [43, 20]);
        // Pool: the 40 sum-product lanes split into lane-aligned chunks
        // of 16 (40 / 4 workers, rounded up to whole lane groups), the
        // 20-query MPE group into chunks of 8. The SAT queries come last
        // and ride in the open chunk without taking its lanes.
        assert_eq!(jobs(&queries, ex.num_workers()), [16, 16, 8 + 3, 8, 8, 4]);
        // SAT in front rides in the first chunk; a SAT-only batch is one
        // job.
        let sat_first: Vec<Query> = queries[60..]
            .iter()
            .chain(&queries[..40])
            .cloned()
            .collect();
        assert_eq!(jobs(&sat_first, ex.num_workers()), [3 + 16, 16, 8]);
        assert_eq!(jobs(&queries[60..], ex.num_workers()), [3]);
        assert_eq!(jobs(&queries[60..], 1), [3]);
    }

    #[test]
    fn sat_rides_in_the_kernel_job_and_never_builds_the_tape() {
        let p = prepared();
        let ex = Executor::new(2);
        let sat_true = |outcomes: Vec<QueryOutcome>| {
            outcomes.iter().all(|o| o.answer == QueryAnswer::Sat(true))
        };
        assert!(sat_true(ex.run(&circuit(&p), vec![Query::Sat; 3]).unwrap()));
        assert!(sat_true(run_on_pool(
            &ex,
            &circuit(&p),
            vec![Query::Sat; 3]
        )));
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
        for outcomes in [
            ex.run(&circuit(&p), mixed.clone()).unwrap(),
            run_on_pool(&ex, &circuit(&p), mixed),
        ] {
            let got: Vec<QueryAnswer> = outcomes.into_iter().map(|o| o.answer).collect();
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn zero_worker_request_still_gets_one() {
        let ex = Executor::new(0);
        assert_eq!(ex.num_workers(), 1);
        let outcomes = run_on_pool(&ex, &circuit(&prepared()), vec![Query::Sat]);
        assert_eq!(outcomes[0].answer, QueryAnswer::Sat(true));
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
        let layered_pool = run_on_pool(&ex, &circuit(&p), vec![Query::ModelCount; 20]);
        for ((a, b), c) in lane.iter().zip(&layered).zip(&layered_pool) {
            assert_eq!(a.answer, b.answer);
            assert_eq!(a.answer, c.answer);
        }
    }

    #[test]
    fn submit_completes_asynchronously_in_submission_order() {
        let p = prepared();
        let ex = Executor::new(2);
        let expected: Vec<_> = [
            Query::ModelCount,
            Query::Sat,
            Query::Wmc(LitWeights::unit(4)),
        ]
        .iter()
        .map(|q| p.answer(q))
        .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..8 {
            let tx = tx.clone();
            ex.submit(
                &circuit(&p),
                vec![
                    Query::ModelCount,
                    Query::Sat,
                    Query::Wmc(LitWeights::unit(4)),
                ],
                None,
                move |outcomes| {
                    let _ = tx.send(outcomes);
                },
            )
            .unwrap();
        }
        drop(tx);
        let mut seen = 0;
        while let Ok(outcomes) = rx.recv() {
            assert_eq!(outcomes.len(), 3);
            for (o, e) in outcomes.iter().zip(&expected) {
                assert_eq!(&o.answer, e);
            }
            seen += 1;
        }
        assert_eq!(seen, 8);
    }

    #[test]
    fn submit_empty_fires_inline() {
        let ex = Executor::new(1);
        let fired = Arc::new(AtomicUsize::new(0));
        let flag = Arc::clone(&fired);
        ex.submit(&circuit(&prepared()), Vec::new(), None, move |outcomes| {
            assert!(outcomes.is_empty());
            flag.fetch_add(1, Ordering::SeqCst);
        })
        .unwrap();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn role_2_and_3_artifacts_answer_through_the_pool() {
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
        assert_eq!(ex.queue_depth(), 0, "tasks never count as query jobs");
    }

    #[test]
    fn submit_rejects_invalid_without_firing() {
        let ex = Executor::new(1);
        let result = ex.submit(
            &circuit(&prepared()),
            vec![Query::Wmc(LitWeights::unit(2))],
            None,
            move |_| panic!("completion must not fire for a rejected batch"),
        );
        assert!(matches!(result, Err(EngineError::Structure(_))));
    }

    #[test]
    fn blocking_batch_inside_a_completion_callback_returns() {
        // A completion callback runs on a pool worker — on a one-worker
        // executor, the only one. A blocking batch issued from there that
        // queued its jobs behind that worker would wait on itself forever;
        // answered on the caller's thread, it returns.
        let p = prepared();
        let ex = Arc::new(Executor::new(1));
        let (tx, rx) = channel();
        let inner = Arc::clone(&ex);
        let art = circuit(&p);
        let submitter = std::thread::spawn(move || {
            let outer = art.clone();
            ex.submit(&outer, vec![Query::Sat], None, move |_| {
                let _ = tx.send(inner.run(&art, vec![Query::ModelCount; 3]));
            })
            .unwrap();
        });
        // This thread is the watchdog: a regression parks the worker for
        // good, and the test fails here instead of hanging.
        let outcomes = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a blocking batch inside a completion callback never returned")
            .unwrap();
        submitter.join().unwrap();
        assert_eq!(outcomes.len(), 3);
        for o in outcomes {
            assert_eq!(o.answer.model_count(), Some(p.raw().model_count()));
        }
    }
}
