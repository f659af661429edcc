//! A persistent worker pool for layer-parallel tape sweeps.
//!
//! The first layered kernels spawned `std::thread::scope` workers *per
//! lane-group sweep* — on a small circuit that is hundreds of thread
//! spawns per batch, and a kernel benchmark measured the result: a 0.03x
//! regression against the sequential lane-batched kernel. [`SweepPool`]
//! fixes the economics: workers are spawned **once** and parked on a
//! condvar; dispatching a sweep is one mutex-protected publish plus a
//! wake, and the caller participates as worker 0, so a pool of size `n`
//! brings `n - 1` extra threads to a sweep.
//!
//! The pool runs *tasks*, not queries: [`SweepPool::run`] hands every
//! participating worker the same `Fn(usize)` closure with its worker
//! index. The layered kernels in [`crate::kernel`] use that to claim
//! chunks of each dependency layer off a shared atomic cursor (chunked
//! work-stealing — a fast worker that drains its static share keeps
//! claiming chunks from its siblings' shares) and meet at a barrier
//! between layers. The pool itself is scheduling-agnostic.
//!
//! One process-global pool ([`SweepPool::global`]), sized to
//! [`std::thread::available_parallelism`], backs the `*_layered` kernel
//! entry points; tests and benchmarks construct private pools of any
//! size. On a single-CPU host the global pool has size 1 and
//! [`SweepPool::run`] degrades to calling the task inline — no threads,
//! no barrier traffic, no regression.
//!
//! Observability: `kernel.pool_workers` counts threads spawned,
//! `kernel.pool_jobs` counts dispatched tasks; the layered kernels add
//! `kernel.pool_sweeps` / `kernel.pool_chunks` / `kernel.pool_steals`
//! (chunks claimed outside the claimant's static share).

use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A task reference with its borrow lifetime erased. Sound because
/// [`SweepPool::run`] does not return until every participating worker
/// has finished running the task, so the erased borrow never outlives
/// the real one.
type ErasedTask = &'static (dyn Fn(usize) + Sync);

/// Locks `m`, recovering from poison: a task panic unwinds through
/// [`SweepPool::run`] while it holds pool locks, but every invariant the
/// locks protect is restored before the panic is re-raised, so the
/// poisoned state is safe to keep using (and the panic test relies on it).
fn lock_ignoring_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Job slot shared between the dispatching caller and the workers.
struct Post {
    /// Bumped once per dispatched job; workers run a job exactly once by
    /// remembering the last epoch they observed.
    epoch: u64,
    /// Workers `1..participants` run the current job (the caller is
    /// participant 0); higher-indexed workers skip it.
    participants: usize,
    /// The current job, present between dispatch and completion.
    task: Option<ErasedTask>,
    /// Participating workers still running the current job.
    remaining: usize,
    /// Whether any worker's task panicked (the panic is re-raised on the
    /// dispatching caller once the job drains).
    panicked: bool,
    /// Set by `Drop`; workers exit at the next wake.
    shutdown: bool,
}

struct Shared {
    post: Mutex<Post>,
    /// Wakes workers when a job is published (or at shutdown).
    start: Condvar,
    /// Wakes the caller when the last participating worker finishes.
    done: Condvar,
}

/// A persistent pool of sweep workers; see the module docs. Dropping the
/// pool shuts the workers down.
pub struct SweepPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Serializes jobs: one sweep owns all workers at a time, so a
    /// barrier sized to the participant count can never see strays.
    dispatch: Mutex<()>,
}

impl SweepPool {
    /// Spawns a pool bringing `size` threads to a sweep: the caller plus
    /// `size - 1` persistent workers (`size` is clamped to at least 1).
    pub fn new(size: usize) -> SweepPool {
        let size = size.max(1);
        let shared = Arc::new(Shared {
            post: Mutex::new(Post {
                epoch: 0,
                participants: 0,
                task: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            start: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (1..size)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("trl-sweep-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn sweep worker")
            })
            .collect::<Vec<_>>();
        trl_obs::counter!("kernel.pool_workers").add(workers.len() as u64);
        SweepPool {
            shared,
            workers,
            dispatch: Mutex::new(()),
        }
    }

    /// The process-global pool the `*_layered` kernels dispatch through,
    /// sized to the host's available parallelism and spawned on first use.
    pub fn global() -> &'static SweepPool {
        static GLOBAL: OnceLock<SweepPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            SweepPool::new(std::thread::available_parallelism().map_or(1, |p| p.get()))
        })
    }

    /// Threads this pool brings to a sweep, the caller included.
    pub fn size(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `task` on `participants` threads (clamped to the pool size):
    /// the calling thread as participant 0 plus workers `1..participants`.
    /// Each participant receives its index; the call returns once every
    /// participant has finished. Panics on the caller if any participant's
    /// task panicked. With one participant the task runs inline.
    pub fn run(&self, participants: usize, task: &(dyn Fn(usize) + Sync)) {
        let participants = participants.clamp(1, self.size());
        if participants == 1 {
            task(0);
            return;
        }
        trl_obs::counter!("kernel.pool_jobs").inc();
        let _dispatch = lock_ignoring_poison(&self.dispatch);
        // SAFETY (lifetime erasure): the wait loop below does not return
        // until `remaining == 0`, i.e. until no worker will touch `task`
        // again, so the borrow outlives every use.
        let erased: ErasedTask =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), ErasedTask>(task) };
        {
            let mut post = lock_ignoring_poison(&self.shared.post);
            post.epoch += 1;
            post.participants = participants;
            post.task = Some(erased);
            post.remaining = participants - 1;
            post.panicked = false;
            self.shared.start.notify_all();
        }
        task(0);
        let mut post = lock_ignoring_poison(&self.shared.post);
        while post.remaining != 0 {
            post = self
                .shared
                .done
                .wait(post)
                .unwrap_or_else(|e| e.into_inner());
        }
        post.task = None;
        if post.panicked {
            drop(post);
            panic!("a sweep pool worker panicked while running a task");
        }
    }
}

impl Drop for SweepPool {
    fn drop(&mut self) {
        {
            let mut post = lock_ignoring_poison(&self.shared.post);
            post.shutdown = true;
            self.shared.start.notify_all();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, index: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let task: Option<ErasedTask> = {
            let mut post = lock_ignoring_poison(&shared.post);
            loop {
                if post.shutdown {
                    return;
                }
                if post.epoch != seen_epoch {
                    seen_epoch = post.epoch;
                    // Participate only when this job wants this worker;
                    // either way the epoch is consumed exactly once.
                    break if index < post.participants {
                        post.task
                    } else {
                        None
                    };
                }
                post = shared.start.wait(post).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(task) = task else { continue };
        let panicked =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task(index))).is_err();
        let mut post = lock_ignoring_poison(&shared.post);
        post.panicked |= panicked;
        post.remaining -= 1;
        if post.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn single_participant_runs_inline() {
        let pool = SweepPool::new(1);
        assert_eq!(pool.size(), 1);
        let hits = AtomicUsize::new(0);
        pool.run(4, &|t| {
            assert_eq!(t, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_participant_runs_with_its_index() {
        let pool = SweepPool::new(4);
        assert_eq!(pool.size(), 4);
        for round in 0..50 {
            let participants = 2 + round % 3;
            let mask = AtomicU64::new(0);
            pool.run(participants, &|t| {
                mask.fetch_or(1 << t, Ordering::Relaxed);
            });
            assert_eq!(
                mask.load(Ordering::Relaxed),
                (1 << participants) - 1,
                "round {round}"
            );
        }
    }

    #[test]
    fn participants_clamp_to_pool_size() {
        let pool = SweepPool::new(2);
        let hits = AtomicUsize::new(0);
        pool.run(64, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn tasks_can_synchronize_on_a_barrier() {
        let pool = SweepPool::new(3);
        let phase_sums = [AtomicU64::new(0), AtomicU64::new(0)];
        let barrier = std::sync::Barrier::new(3);
        pool.run(3, &|t| {
            phase_sums[0].fetch_add(t as u64 + 1, Ordering::Relaxed);
            barrier.wait();
            // Everyone observed phase 0 complete before phase 1 starts.
            assert_eq!(phase_sums[0].load(Ordering::Relaxed), 6);
            phase_sums[1].fetch_add(t as u64 + 1, Ordering::Relaxed);
        });
        assert_eq!(phase_sums[1].load(Ordering::Relaxed), 6);
    }

    #[test]
    fn worker_panic_propagates_to_the_caller() {
        let pool = SweepPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(2, &|t| {
                if t == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool stays usable after a task panic.
        let hits = AtomicUsize::new(0);
        pool.run(2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }
}
