//! The shared, reusable decode worker pool.
//!
//! Before the serve mode existed, every ingest spawned its own worker
//! threads (`std::thread::scope` in the decoder and the sharded
//! analyzer), which is fine for one trace per
//! process and catastrophic for a session manager: 1000 concurrent
//! sessions at `--shards 8` would mean 8000 short-lived threads. The
//! [`WorkerPool`] replaces all of those spawn sites with one fixed set of
//! threads sized to the host; sessions share it at *chunk* granularity,
//! so a thousand sessions still cost a dozen threads.
//!
//! Two submission modes:
//!
//! * [`execute`](WorkerPool::execute) — fire-and-forget `'static` jobs
//!   (the streaming engine's per-chunk decodes, which own their data).
//! * [`scope`](WorkerPool::scope) — a batch of *borrowing* jobs run to
//!   completion before the call returns (the sharded analyzer, whose
//!   work units borrow the caller's record slice).
//!
//! A panicking job is confined to itself: the worker catches the unwind,
//! counts it, and moves on — one session's poisoned chunk can never take
//! a thread (or another session) down with it. The pool never deadlocks
//! on its own jobs because nothing submitted to it blocks on other pool
//! jobs: chunk decodes are independent, and the coordinating threads
//! (CLI callers, serve drivers) are never pool workers.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A unit of pool work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The state workers block on: the job queue and the shutdown flag.
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Shared between the pool handle and its workers.
struct Inner {
    queue: Mutex<Queue>,
    available: Condvar,
    workers: usize,
    busy: AtomicUsize,
    busy_peak: AtomicUsize,
    jobs_run: AtomicU64,
    panics: AtomicU64,
}

/// A fixed-size pool of worker threads executing submitted jobs.
///
/// See the [module docs](self) for why it exists and who runs on it.
/// Construction spawns the threads; [`shutdown`](Self::shutdown) (or
/// drop) runs every queued job to completion and joins them.
pub struct WorkerPool {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.inner.workers)
            .field("jobs_run", &self.jobs_run())
            .field("panics", &self.panics())
            .finish()
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut q = inner.queue.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = q.jobs.pop_front() {
                    break job;
                }
                if q.shutdown {
                    return;
                }
                q = inner.available.wait(q).expect("pool queue poisoned");
            }
        };
        let busy = inner.busy.fetch_add(1, Ordering::Relaxed) + 1;
        inner.busy_peak.fetch_max(busy, Ordering::Relaxed);
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            inner.panics.fetch_add(1, Ordering::Relaxed);
        }
        inner.busy.fetch_sub(1, Ordering::Relaxed);
        inner.jobs_run.fetch_add(1, Ordering::Relaxed);
    }
}

impl WorkerPool {
    /// Spawns a pool of `workers` threads (at least 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            workers,
            busy: AtomicUsize::new(0),
            busy_peak: AtomicUsize::new(0),
            jobs_run: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("heapdrag-pool-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            inner,
            handles: Mutex::new(handles),
        }
    }

    /// The process-wide shared pool, sized to the host
    /// (`available_parallelism`, at least 2), created on first use. Every
    /// [`Pipeline`](crate::Pipeline) terminal decodes on it unless handed
    /// an explicit pool (the serve manager owns its own so tests can pin
    /// the worker count).
    pub fn shared() -> &'static WorkerPool {
        static SHARED: OnceLock<WorkerPool> = OnceLock::new();
        SHARED.get_or_init(|| {
            let n = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(2);
            WorkerPool::new(n)
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Total jobs executed (including panicked ones).
    pub fn jobs_run(&self) -> u64 {
        self.inner.jobs_run.load(Ordering::Relaxed)
    }

    /// Jobs that panicked (each confined to itself).
    pub fn panics(&self) -> u64 {
        self.inner.panics.load(Ordering::Relaxed)
    }

    /// High-water mark of simultaneously busy workers — the utilization
    /// numerator the serve metrics publish.
    pub fn busy_peak(&self) -> usize {
        self.inner.busy_peak.load(Ordering::Relaxed)
    }

    /// Workers busy right now.
    pub fn busy(&self) -> usize {
        self.inner.busy.load(Ordering::Relaxed)
    }

    /// Submits a job. If the pool has already been shut down the job runs
    /// inline on the caller — submitted work is never silently dropped,
    /// which is what lets in-flight accounting (the streaming engine
    /// counts one result per dispatched chunk) stay exact.
    pub fn execute(&self, job: Job) {
        {
            let mut q = self.inner.queue.lock().expect("pool queue poisoned");
            if !q.shutdown {
                q.jobs.push_back(job);
                drop(q);
                self.inner.available.notify_one();
                return;
            }
        }
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            self.inner.panics.fetch_add(1, Ordering::Relaxed);
        }
        self.inner.jobs_run.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs a batch of borrowing jobs on the pool and blocks until every
    /// one has finished (or been unwound by a panic). This is what lets
    /// the sharded analyzer hand workers *references* into the caller's
    /// record slice without spawning threads of their own.
    ///
    /// Must not be called from a pool worker (a job that waits on other
    /// jobs of the same pool can deadlock a single-worker pool); the
    /// callers are all coordinating threads.
    pub fn scope<'env>(&self, jobs: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        if jobs.is_empty() {
            return;
        }
        let total = jobs.len();
        let latch = Arc::new((Mutex::new(0usize), Condvar::new()));
        for job in jobs {
            // SAFETY: `scope` does not return until the latch has counted
            // every job — run, panicked, or dropped unrun (the guard
            // below counts in all three cases) — so the `'env` borrows
            // inside `job` strictly outlive its execution. This is the
            // same argument `std::thread::scope` makes; the transmute
            // only erases the lifetime, the layout of the boxed trait
            // object is unchanged.
            let job: Job = unsafe {
                std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Job>(job)
            };
            let latch = Arc::clone(&latch);
            let inner = Arc::clone(&self.inner);
            self.execute(Box::new(move || {
                /// Counts the latch even when the job panics or is
                /// dropped without running.
                struct Count(Arc<(Mutex<usize>, Condvar)>);
                impl Drop for Count {
                    fn drop(&mut self) {
                        let mut done = self.0 .0.lock().expect("scope latch poisoned");
                        *done += 1;
                        self.0 .1.notify_all();
                    }
                }
                let _count = Count(latch);
                // Count a panic here, before `_count` releases the latch,
                // so `scope`'s caller always sees it in `panics()`.
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    inner.panics.fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        let (lock, cond) = &*latch;
        let mut done = lock.lock().expect("scope latch poisoned");
        while *done < total {
            done = cond.wait(done).expect("scope latch poisoned");
        }
    }

    /// Drains the queue (every already-submitted job runs) and joins all
    /// worker threads. Idempotent; also called on drop.
    pub fn shutdown(&self) {
        {
            let mut q = self.inner.queue.lock().expect("pool queue poisoned");
            q.shutdown = true;
        }
        self.inner.available.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().expect("pool handles poisoned"));
        for h in handles {
            h.join().expect("pool worker panicked outside a job");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn executes_submitted_jobs() {
        let pool = WorkerPool::new(3);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let hits = Arc::clone(&hits);
            pool.execute(Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        assert_eq!(pool.jobs_run(), 100);
        assert_eq!(pool.panics(), 0);
        assert_eq!(pool.workers(), 3);
    }

    #[test]
    fn shutdown_drains_and_joins_cleanly() {
        // Queue far more jobs than workers, shut down immediately: every
        // queued job must still run before the workers join.
        let pool = WorkerPool::new(1);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..500 {
            let hits = Arc::clone(&hits);
            pool.execute(Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 500);
        // Idempotent.
        pool.shutdown();
        assert_eq!(pool.jobs_run(), 500);
    }

    #[test]
    fn panicking_job_is_isolated() {
        let pool = WorkerPool::new(2);
        let hits = Arc::new(AtomicU64::new(0));
        pool.execute(Box::new(|| panic!("poisoned chunk")));
        for _ in 0..50 {
            let hits = Arc::clone(&hits);
            pool.execute(Box::new(move || {
                hits.fetch_add(1, Ordering::Relaxed);
            }));
        }
        pool.shutdown();
        assert_eq!(hits.load(Ordering::Relaxed), 50, "jobs after the panic still ran");
        assert_eq!(pool.panics(), 1);
        assert_eq!(pool.jobs_run(), 51);
    }

    #[test]
    fn scope_runs_borrowing_jobs_to_completion() {
        let pool = WorkerPool::new(4);
        let mut slots = [0u64; 16];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = slots
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    *slot = (i as u64 + 1) * 10;
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(jobs);
        // scope returned, so every borrow is done and every slot written.
        assert_eq!(slots[0], 10);
        assert_eq!(slots[15], 160);
        assert_eq!(slots.iter().sum::<u64>(), (1..=16).map(|i| i * 10).sum());
    }

    #[test]
    fn scope_survives_a_panicking_job() {
        let pool = WorkerPool::new(2);
        let mut ok = [false; 8];
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = ok
            .iter_mut()
            .enumerate()
            .map(|(i, slot)| {
                Box::new(move || {
                    if i == 3 {
                        panic!("one bad shard");
                    }
                    *slot = true;
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(jobs);
        for (i, done) in ok.iter().enumerate() {
            assert_eq!(*done, i != 3, "job {i}");
        }
        assert_eq!(pool.panics(), 1);
    }

    #[test]
    fn scope_counts_the_panic_before_returning() {
        // The panic must be counted before the latch lets `scope` return,
        // not after the worker's own `catch_unwind`, or a fast caller
        // reads a stale count.
        let pool = WorkerPool::new(2);
        for round in 1..=200u64 {
            let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = vec![
                Box::new(|| panic!("bad shard")),
                Box::new(|| {}),
            ];
            pool.scope(jobs);
            assert_eq!(pool.panics(), round, "round {round}");
        }
    }

    #[test]
    fn execute_after_shutdown_runs_inline() {
        let pool = WorkerPool::new(1);
        pool.shutdown();
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        pool.execute(Box::new(move || {
            h.fetch_add(1, Ordering::Relaxed);
        }));
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn busy_peak_tracks_concurrency() {
        let pool = WorkerPool::new(2);
        let gate = Arc::new((Mutex::new(0usize), Condvar::new()));
        let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                Box::new(move || {
                    let (lock, cond) = &*gate;
                    let mut n = lock.lock().unwrap();
                    *n += 1;
                    cond.notify_all();
                    // Hold until both jobs are in flight, so the peak
                    // deterministically reaches 2.
                    while *n < 2 {
                        n = cond.wait(n).unwrap();
                    }
                }) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.scope(jobs);
        // Join the workers before reading `busy`: the scope latch fires
        // inside the job, slightly before the worker's own decrement.
        pool.shutdown();
        assert_eq!(pool.busy_peak(), 2);
        assert_eq!(pool.busy(), 0);
    }
}
