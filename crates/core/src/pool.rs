#![expect(
    unsafe_code,
    reason = "the workspace's only unsafe: the lifetime-erasing transmutes in `map` and \
              `join2`, each under a SAFETY comment proving every job settles before \
              the borrows it captures end"
)]
//! A std-only work-stealing thread pool shared by the parallel search
//! engines and the benchmark harness.
//!
//! Two usage levels map onto the two parallelism levels of the engine:
//!
//! * [`WorkerPool::map`] — fan a batch of independent tasks out over the
//!   pool and collect the results *in input order*. The benchmark grid
//!   uses it to verify suite instances concurrently, and the BaB baseline
//!   uses it to bound a breadth-first frontier slice.
//! * [`WorkerPool::join2`] — run two closures concurrently and return
//!   both results. ABONN uses it for the two `AppVer` calls of one
//!   expansion (one per ReLU phase).
//!
//! Determinism is the design constraint: callers receive results in a
//! fixed order regardless of which thread computed what, so every search
//! built on the pool is bit-for-bit identical to its sequential run.
//!
//! The pool is deadlock-free under nesting (pool tasks may themselves
//! call `map`/`join2` on the same pool): the submitting thread always
//! *helps* — it claims still-unstarted jobs and runs them itself rather
//! than blocking on a saturated queue. A panicking task never poisons the
//! pool: the payload is caught on the worker, carried back, and resumed
//! on the submitting thread, while the worker keeps serving jobs.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A lifetime-erased job body. Safety of the erasure is argued at the
/// two `transmute` sites: a job is always either executed or discarded
/// before the submitting call returns, so captured borrows cannot
/// dangle.
type TaskBody = Box<dyn FnOnce() + Send + 'static>;

type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One unit of work. The body sits behind a mutex so that exactly one
/// thread — a worker or the submitter helping out — claims and runs it.
struct Job {
    body: Mutex<Option<TaskBody>>,
    done: Mutex<bool>,
    done_signal: Condvar,
    panic: Mutex<Option<PanicPayload>>,
}

impl Job {
    fn new(body: TaskBody) -> Self {
        Self {
            body: Mutex::new(Some(body)),
            done: Mutex::new(false),
            done_signal: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    /// Worker side: run the body unless another thread already claimed it.
    fn execute(&self) {
        let Some(body) = self.body.lock().expect("job body lock").take() else {
            return;
        };
        let outcome = catch_unwind(AssertUnwindSafe(body));
        if let Err(payload) = outcome {
            *self.panic.lock().expect("job panic lock") = Some(payload);
        }
        self.finish();
    }

    /// Submitter side: claim and run the body on this thread, or wait for
    /// the worker that got there first. Returns the task's panic payload,
    /// if any, for the caller to resume.
    fn run_or_wait(&self) -> Option<PanicPayload> {
        if let Some(body) = self.body.lock().expect("job body lock").take() {
            let outcome = catch_unwind(AssertUnwindSafe(body));
            self.finish();
            return outcome.err();
        }
        let mut done = self.done.lock().expect("job done lock");
        while !*done {
            // lint: allow(lock-discipline, the condvar protocol requires holding the mutex - wait atomically releases it while blocked)
            done = self.done_signal.wait(done).expect("job done wait");
        }
        self.panic.lock().expect("job panic lock").take()
    }

    fn finish(&self) {
        *self.done.lock().expect("job done lock") = true;
        self.done_signal.notify_all();
    }
}

/// State shared between the pool handle and its worker threads.
struct Shared {
    /// One deque per worker; submissions round-robin across them and an
    /// idle worker steals from its siblings.
    queues: Vec<Mutex<VecDeque<Arc<Job>>>>,
    next_queue: AtomicUsize,
    /// Sleep coordination: workers park on `signal` holding `sleep`, and
    /// a submitter touches `sleep` after pushing so no wakeup is lost.
    sleep: Mutex<()>,
    signal: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn submit(&self, job: Arc<Job>) {
        // lint: allow(relaxed-atomics, monotonic round-robin counter; only spreads jobs across queues and work-stealing makes any placement correct, so no ordering is needed)
        let i = self.next_queue.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[i]
            .lock()
            .expect("pool queue lock")
            .push_back(job);
        // Taking the sleep lock (even empty) orders this push before any
        // in-progress "queues are empty → park" decision of a worker.
        drop(self.sleep.lock().expect("pool sleep lock"));
        self.signal.notify_all();
    }

    /// Pops a job, preferring the worker's own queue, else stealing
    /// round-robin from its siblings.
    fn grab(&self, own: usize) -> Option<Arc<Job>> {
        let n = self.queues.len();
        for offset in 0..n {
            let q = (own + offset) % n;
            if let Some(job) = self.queues[q].lock().expect("pool queue lock").pop_front() {
                return Some(job);
            }
        }
        None
    }

    fn has_work(&self) -> bool {
        self.queues
            .iter()
            .any(|q| !q.lock().expect("pool queue lock").is_empty())
    }

    fn worker_loop(&self, own: usize) {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if let Some(job) = self.grab(own) {
                job.execute();
                continue;
            }
            let guard = self.sleep.lock().expect("pool sleep lock");
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            if self.has_work() {
                continue;
            }
            // lint: allow(lock-discipline, the condvar protocol requires holding the mutex - wait atomically releases it while blocked)
            drop(self.signal.wait(guard).expect("pool sleep wait"));
        }
    }
}

/// A fixed-size work-stealing thread pool.
///
/// `threads` counts the submitting thread: a pool of `n` spawns `n − 1`
/// workers, and the caller of [`map`](WorkerPool::map) /
/// [`join2`](WorkerPool::join2) contributes the remaining lane by helping
/// execute jobs. A pool of one thread spawns nothing and runs everything
/// inline, so sequential callers pay no synchronisation cost.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of `threads` total execution lanes.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "WorkerPool::new: pool must have >= 1 thread");
        let worker_count = threads - 1;
        let shared = Arc::new(Shared {
            queues: (0..worker_count.max(1))
                .map(|_| Mutex::new(VecDeque::new()))
                .collect(),
            next_queue: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            signal: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("abonn-pool-{i}"))
                    .spawn(move || shared.worker_loop(i))
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            shared,
            workers,
            threads,
        }
    }

    /// A single-lane pool: no worker threads, every call runs inline.
    #[must_use]
    pub fn inline() -> Self {
        Self::new(1)
    }

    /// Total execution lanes (workers plus the submitting thread).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item, possibly concurrently, returning the
    /// results in input order.
    ///
    /// # Panics
    ///
    /// If any task panics, the first payload (in input order) is resumed
    /// on the calling thread after all tasks have settled; the pool
    /// itself stays usable.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return items.into_iter().map(f).collect();
        }
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        let jobs: Vec<Arc<Job>> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let f = &f;
                let slots = &slots;
                let body: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let r = f(item);
                    *slots[i].lock().expect("map slot lock") = Some(r);
                });
                // SAFETY: this erases the closure's borrow lifetime to
                // `'static` so it can cross the queue (`TaskBody` must be
                // nameable without the caller's lifetime). The borrows of
                // `f` and `slots` stay valid because `map` never returns
                // — not even by unwinding — before every job has settled:
                // the `run_or_wait` loop below claims each unstarted body
                // and runs it inline, or blocks until the worker that
                // claimed it signals `done`. A worker can therefore never
                // hold a body after `map`'s stack frame (and the borrows
                // it anchors) is gone. Layout is unchanged: both types
                // are `Box<dyn FnOnce() + Send>` differing only in
                // lifetime, which has no runtime representation.
                let body: TaskBody = unsafe { std::mem::transmute(body) };
                Arc::new(Job::new(body))
            })
            .collect();
        for job in &jobs {
            self.shared.submit(Arc::clone(job));
        }
        let mut first_panic: Option<PanicPayload> = None;
        for job in &jobs {
            if let Some(p) = job.run_or_wait() {
                first_panic.get_or_insert(p);
            }
        }
        if let Some(p) = first_panic {
            resume_unwind(p);
        }
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .expect("map slot lock")
                    .expect("completed job filled its slot")
            })
            .collect()
    }

    /// Runs `fa` and `fb`, possibly concurrently, returning both results.
    ///
    /// `fa` is offered to the pool while `fb` runs on the calling thread;
    /// if no worker picks `fa` up in time the caller runs it too, so a
    /// saturated pool degrades to inline execution instead of
    /// deadlocking.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from either closure (`fa`'s first) after both
    /// have settled.
    pub fn join2<A, B, FA, FB>(&self, fa: FA, fb: FB) -> (A, B)
    where
        A: Send,
        B: Send,
        FA: FnOnce() -> A + Send,
        FB: FnOnce() -> B + Send,
    {
        if self.threads <= 1 {
            return (fa(), fb());
        }
        let slot_a: Mutex<Option<A>> = Mutex::new(None);
        let job = {
            let slot = &slot_a;
            let body: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                *slot.lock().expect("join2 slot lock") = Some(fa());
            });
            // SAFETY: same lifetime erasure as in `map` (see above), with
            // the same settlement guarantee: `fb` runs under
            // `catch_unwind`, so control always reaches the
            // `run_or_wait` call below, which either executes the body on
            // this thread or waits for the claiming worker's `done`
            // signal. Only after that can `join2` return or unwind, so
            // the borrow of `slot_a` captured in `body` outlives every
            // possible execution of it; the transmute itself only erases
            // a lifetime between representation-identical `Box<dyn
            // FnOnce>` types.
            let body: TaskBody = unsafe { std::mem::transmute(body) };
            Arc::new(Job::new(body))
        };
        self.shared.submit(Arc::clone(&job));
        let b = catch_unwind(AssertUnwindSafe(fb));
        let a_panic = job.run_or_wait();
        if let Some(p) = a_panic {
            resume_unwind(p);
        }
        match b {
            Err(p) => resume_unwind(p),
            Ok(b) => (
                slot_a
                    .into_inner()
                    .expect("join2 slot lock")
                    .expect("join2 task filled its slot"),
                b,
            ),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        drop(self.shared.sleep.lock().expect("pool sleep lock"));
        self.shared.signal.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The machine's available parallelism, with a fallback of one.
///
/// This is the single audited place where machine topology enters the
/// system, and it only ever sizes worker pools: the parallel-grid and
/// thread-invariance tests prove verdicts, stats, and report bytes are
/// identical for every lane count, so the value cannot leak into
/// results.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "sizes pools only; verdicts/stats/reports are proven lane-count-invariant by \
              the determinism test suite"
)]
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_preserves_input_order() {
        let pool = WorkerPool::new(4);
        let out = pool.map((0..100).collect(), |i: usize| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn inline_pool_runs_everything_on_the_caller() {
        let pool = WorkerPool::inline();
        let caller = std::thread::current().id();
        let ids = pool.map(vec![(), ()], |()| std::thread::current().id());
        assert!(ids.iter().all(|id| *id == caller));
        let (a, b) = pool.join2(|| 1, || 2);
        assert_eq!((a, b), (1, 2));
    }

    #[test]
    fn join2_returns_both_results() {
        let pool = WorkerPool::new(2);
        for i in 0..50u64 {
            let (a, b) = pool.join2(move || i * 2, move || i * 3);
            assert_eq!((a, b), (i * 2, i * 3));
        }
    }

    #[test]
    fn nested_use_does_not_deadlock() {
        let pool = Arc::new(WorkerPool::new(2));
        // Saturate the pool with tasks that themselves call join2.
        let inner = Arc::clone(&pool);
        let out = pool.map((0..16).collect(), move |i: u64| {
            let (a, b) = inner.join2(move || i + 1, move || i + 2);
            a + b
        });
        assert_eq!(out, (0..16).map(|i| 2 * i + 3).collect::<Vec<_>>());
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(3);
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0, 1, 2, 3], |i: usize| {
                assert!(i != 2, "boom on {i}");
                i
            })
        }));
        assert!(attempt.is_err(), "panic must reach the caller");
        // The pool keeps working after a task panicked.
        let out = pool.map(vec![10, 20], |i: usize| i + 1);
        assert_eq!(out, vec![11, 21]);
        let (a, b) = pool.join2(|| "a", || "b");
        assert_eq!((a, b), ("a", "b"));
    }

    #[test]
    fn map_actually_uses_worker_threads() {
        let pool = WorkerPool::new(4);
        let hits = AtomicU64::new(0);
        let caller = std::thread::current().id();
        // Slow-ish tasks so workers get a chance to steal some.
        pool.map((0..64).collect::<Vec<u64>>(), |_| {
            if std::thread::current().id() != caller {
                // lint: allow(relaxed-atomics, test-only monotonic hit counter; read after map joins all tasks)
                hits.fetch_add(1, Ordering::Relaxed);
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        // With 3 workers and 64 sleeping tasks at least one lands off the
        // caller (single-core machines still satisfy this: workers exist).
        // lint: allow(relaxed-atomics, test-only read of the counter above; map already joined every task so the value is final)
        let hits = hits.load(Ordering::Relaxed);
        assert!(hits > 0, "no worker ever ran a task");
    }
}
