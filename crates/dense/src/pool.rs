//! Persistent work-stealing thread pool for the parallel kernels.
//!
//! The dense kernels' lane splits and the elimination-tree scheduler in
//! `rlchol-core` submit closures here instead of spawning OS threads per
//! call. Workers are started once (lazily, on first use of
//! [`global`]) and live for the process; each has a local deque and
//! steals from the shared injector or from its siblings when idle, so a
//! worker that finishes its job early picks up someone else's work.
//!
//! **Sizing.** The global pool runs `RLCHOL_THREADS` workers when that
//! environment variable is set to a positive integer, otherwise
//! [`std::thread::available_parallelism`]. A caller of [`ThreadPool::run`]
//! participates in execution itself, so a "pool of `t` threads" means `t`
//! runnable lanes including the submitter (`t - 1` parked workers).
//!
//! **Nesting.** Jobs may themselves call [`ThreadPool::run`], and a
//! job's dense kernel call may start a [`ThreadPool::run_for`].
//! Submission from a worker pushes to that worker's local deque (LIFO pop
//! keeps the cache-hot jobs on the spawning worker; idle siblings steal
//! FIFO from the other end), and the waiting job keeps executing pending
//! work instead of blocking a lane, so nested parallelism cannot
//! deadlock.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A lifetime-erased unit of work. Safety: [`ThreadPool::run`] blocks
/// until every job it submitted has completed, so borrows captured by the
/// original `'env` closures outlive their execution.
struct Job(Box<dyn FnOnce() + Send + 'static>);

struct Shared {
    /// Queue for jobs submitted from outside the pool.
    injector: Mutex<VecDeque<Job>>,
    /// One local deque per worker: owner pushes/pops the back, thieves
    /// steal from the front.
    locals: Vec<Mutex<VecDeque<Job>>>,
    /// Sleep/wake signal: bumped on every submission.
    signal: Mutex<u64>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// The (at most one) active allocation-free parallel-for.
    par_for: ForSlot,
}

/// Coordination state of [`ThreadPool::run_for`]. Everything lives
/// behind one mutex: claims are cheap (an index bump), and the per-call
/// protocol never touches the heap — the publishing caller keeps the
/// closure on its stack, helpers copy the (lifetime-erased) reference
/// out under the lock, and completion is a counter plus a condvar.
struct ForSlot {
    state: Mutex<ForState>,
    /// Signalled when `done` reaches `n`.
    finished: Condvar,
}

struct ForState {
    /// Lifetime-erased closure of the active parallel-for. The publisher
    /// blocks until `done == n` before returning, so the reference never
    /// outlives the borrow it was transmuted from; helpers only read it
    /// after claiming an index (`next < n`) under the lock.
    f: Option<&'static (dyn Fn(usize) + Sync)>,
    active: bool,
    /// Next unclaimed index.
    next: usize,
    /// Total indices of the active call.
    n: usize,
    /// Indices whose closure call has returned (or unwound).
    done: usize,
    /// First panic payload out of the closure, re-raised by the publisher.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl ForSlot {
    fn new() -> Self {
        ForSlot {
            state: Mutex::new(ForState {
                f: None,
                active: false,
                next: 0,
                n: 0,
                done: 0,
                panic: None,
            }),
            finished: Condvar::new(),
        }
    }
}

/// Claims and runs indices of the active parallel-for until none remain;
/// returns whether any index was run. Called by idle workers and by the
/// publisher itself.
fn help_par_for(shared: &Shared) -> bool {
    let mut helped = false;
    loop {
        let (f, i) = {
            let mut st = shared.par_for.state.lock().unwrap();
            if !st.active || st.next >= st.n {
                return helped;
            }
            let i = st.next;
            st.next += 1;
            (st.f.expect("active parallel-for holds its closure"), i)
        };
        let r = catch_unwind(AssertUnwindSafe(|| f(i)));
        let mut st = shared.par_for.state.lock().unwrap();
        if let Err(p) = r {
            if st.panic.is_none() {
                st.panic = Some(p);
            }
        }
        st.done += 1;
        if st.done == st.n {
            shared.par_for.finished.notify_all();
        }
        helped = true;
    }
}

impl Shared {
    /// Pops one runnable job: own deque first (LIFO), then the injector,
    /// then stealing from siblings (FIFO). `me` is `None` off-pool.
    fn pop(&self, me: Option<usize>) -> Option<Job> {
        if let Some(w) = me {
            if let Some(job) = self.locals[w].lock().unwrap().pop_back() {
                return Some(job);
            }
        }
        if let Some(job) = self.injector.lock().unwrap().pop_front() {
            return Some(job);
        }
        let start = me.map_or(0, |w| w + 1);
        let n = self.locals.len();
        for k in 0..n {
            let v = (start + k) % n;
            if Some(v) == me {
                continue;
            }
            if let Some(job) = self.locals[v].lock().unwrap().pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// Enqueues a whole batch under one queue lock and one broadcast —
    /// per-job wakeups would thundering-herd every parked worker once
    /// per job on the hot fan-out path.
    fn push_batch(&self, me: Option<usize>, jobs: Vec<Job>) {
        match me {
            Some(w) => self.locals[w].lock().unwrap().extend(jobs),
            None => self.injector.lock().unwrap().extend(jobs),
        }
        let mut epoch = self.signal.lock().unwrap();
        *epoch += 1;
        drop(epoch);
        self.wake.notify_all();
    }
}

thread_local! {
    /// `(pool identity, worker index)` of the current thread, if it is a
    /// pool worker. The identity is the `Arc<Shared>` data address.
    static WORKER: std::cell::Cell<Option<(usize, usize)>> =
        const { std::cell::Cell::new(None) };
}

/// Completion latch for one [`ThreadPool::run`] batch.
struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining: n,
                panic: None,
            }),
            done: Condvar::new(),
        }
    }

    fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut st = self.state.lock().unwrap();
        st.remaining -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        if st.remaining == 0 {
            self.done.notify_all();
        }
    }

    fn is_done(&self) -> bool {
        self.state.lock().unwrap().remaining == 0
    }
}

/// A persistent pool of worker threads (see the module docs).
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
}

impl ThreadPool {
    /// Starts a pool with `threads` runnable lanes (`threads - 1` workers
    /// plus the participating submitter). `threads == 1` spawns no
    /// workers; [`run`](Self::run) then executes everything inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let workers = threads - 1;
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            signal: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            par_for: ForSlot::new(),
        });
        for w in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rlchol-pool-{w}"))
                .spawn(move || worker_loop(shared, w))
                .expect("spawning pool worker");
        }
        ThreadPool { shared, threads }
    }

    /// Number of runnable lanes (workers + participating caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every task to completion. The calling thread participates —
    /// it executes pending pool jobs while it waits — so this is safe to
    /// invoke from inside another pool job. Panics from tasks are
    /// collected and the first one is re-raised here after the whole
    /// batch has finished.
    pub fn run<'env>(&self, tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
        match tasks.len() {
            0 => return,
            1 => {
                for t in tasks {
                    t();
                }
                return;
            }
            _ => {}
        }
        let me = self.worker_index();
        let latch = Arc::new(Latch::new(tasks.len()));
        let jobs: Vec<Job> = tasks
            .into_iter()
            .map(|task| {
                // Erase 'env: the latch wait below keeps every borrow
                // alive until the job has run (completion is counted in
                // all paths, including panics).
                let task: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(task) };
                let latch = Arc::clone(&latch);
                Job(Box::new(move || {
                    let r = catch_unwind(AssertUnwindSafe(task));
                    latch.complete(r.err());
                }))
            })
            .collect();
        self.shared.push_batch(me, jobs);
        // Participate until the batch drains, then sleep on the latch for
        // any stragglers still running on workers.
        while !latch.is_done() {
            match self.shared.pop(me) {
                Some(job) => (job.0)(),
                None => {
                    let st = latch.state.lock().unwrap();
                    if st.remaining > 0 {
                        // Bounded wait: a worker running our straggler may
                        // itself spawn pool work we should pick up.
                        let _ = latch
                            .done
                            .wait_timeout(st, std::time::Duration::from_micros(200))
                            .unwrap();
                    }
                }
            }
        }
        let panic = latch.state.lock().unwrap().panic.take();
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }

    /// Runs `f(0), f(1), …, f(n - 1)` across the pool and blocks until
    /// every call has returned. Unlike [`run`](Self::run) this performs
    /// **no heap allocation**: the closure stays on the caller's stack,
    /// indices are claimed from a shared counter, and idle workers join
    /// in through the pool's wake signal — which makes it the right
    /// primitive for steady-state hot paths (the level-set triangular
    /// solves) that must stay allocation-free after warm-up.
    ///
    /// Calls are *claimed* in ascending index order but may run
    /// concurrently; `f` must make concurrent calls safe (e.g. by
    /// writing disjoint targets per index). At most one `run_for` is
    /// active per pool at a time — a second concurrent (or nested) call
    /// simply runs its indices inline on the caller, which is always
    /// correct because the contract already requires index independence.
    /// Panics from `f` are collected and the first is re-raised here
    /// after all indices finish.
    pub fn run_for<'env>(&self, n: usize, f: &(dyn Fn(usize) + Sync + 'env)) {
        let inline = |f: &(dyn Fn(usize) + Sync + 'env)| {
            for i in 0..n {
                f(i);
            }
        };
        if n == 0 {
            return;
        }
        if self.threads <= 1 || n == 1 {
            return inline(f);
        }
        // Erase 'env: the wait below keeps the borrow alive until every
        // claimed index has finished running.
        let f_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        {
            let mut st = self.shared.par_for.state.lock().unwrap();
            if st.active {
                // Another parallel-for is in flight (concurrent callers,
                // or a nested call from inside `f`): run inline.
                drop(st);
                return inline(f);
            }
            st.active = true;
            st.f = Some(f_static);
            st.next = 0;
            st.n = n;
            st.done = 0;
            st.panic = None;
        }
        // Wake parked workers so they find the published slot.
        let mut epoch = self.shared.signal.lock().unwrap();
        *epoch += 1;
        drop(epoch);
        self.shared.wake.notify_all();
        // Participate, then wait for helpers still running their claims.
        help_par_for(&self.shared);
        let mut st = self.shared.par_for.state.lock().unwrap();
        while st.done < st.n {
            st = self.shared.par_for.finished.wait(st).unwrap();
        }
        st.active = false;
        st.f = None;
        let panic = st.panic.take();
        drop(st);
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }

    /// Pops and runs one pending job, or else helps the active
    /// [`run_for`](Self::run_for) until its indices are claimed; returns
    /// whether anything ran. Lets a caller that is waiting on its own
    /// condition (e.g. the tree scheduler with an empty ready queue) lend
    /// its lane to a split kernel call instead of sleeping.
    pub fn try_run_one(&self) -> bool {
        match self.shared.pop(self.worker_index()) {
            Some(job) => {
                (job.0)();
                true
            }
            None => help_par_for(&self.shared),
        }
    }

    fn worker_index(&self) -> Option<usize> {
        let id = Arc::as_ptr(&self.shared) as usize;
        WORKER.with(|w| match w.get() {
            Some((pool, idx)) if pool == id => Some(idx),
            _ => None,
        })
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        let mut epoch = self.shared.signal.lock().unwrap();
        *epoch += 1;
        drop(epoch);
        self.shared.wake.notify_all();
    }
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER.with(|w| w.set(Some((Arc::as_ptr(&shared) as usize, index))));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match shared.pop(Some(index)) {
            Some(job) => (job.0)(),
            None => {
                if help_par_for(&shared) {
                    continue;
                }
                let epoch = shared.signal.lock().unwrap();
                let seen = *epoch;
                // Re-check under the signal lock so a push between our
                // failed pop and this wait cannot be lost.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // A parallel-for published between our failed help
                // attempt and this lock already bumped the epoch, so
                // recording the bump as `seen` would sleep through its
                // whole run; re-check the slot before waiting.
                {
                    let st = shared.par_for.state.lock().unwrap();
                    if st.active && st.next < st.n {
                        continue;
                    }
                }
                let _ = shared
                    .wake
                    .wait_timeout_while(epoch, std::time::Duration::from_millis(50), |e| *e == seen)
                    .unwrap();
            }
        }
    }
}

/// Thread count for the global pool: `RLCHOL_THREADS` if set to a
/// positive integer, otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    env_positive("RLCHOL_THREADS")
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Parses an environment variable as a positive integer — the shared
/// shape of every `RLCHOL_*` sizing knob (`None` when unset, empty,
/// non-numeric, or zero).
pub fn env_positive(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// The process-wide pool, started on first use with
/// [`default_threads`] lanes.
pub fn global() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| ThreadPool::new(default_threads()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn boxed<'env, F: FnOnce() + Send + 'env>(f: F) -> Box<dyn FnOnce() + Send + 'env> {
        Box::new(f)
    }

    #[test]
    fn runs_all_tasks_with_borrows() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0usize; 64];
        let tasks = data
            .chunks_mut(7)
            .enumerate()
            .map(|(i, chunk)| boxed(move || chunk.fill(i + 1)))
            .collect();
        pool.run(tasks);
        assert!(data.iter().all(|&v| v > 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[63], 64usize.div_ceil(7));
    }

    #[test]
    fn single_lane_pool_runs_inline() {
        let pool = ThreadPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.run(
            (0..10)
                .map(|_| {
                    boxed(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect(),
        );
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn nested_run_from_inside_a_job() {
        let pool = Arc::new(ThreadPool::new(3));
        let counter = Arc::new(AtomicUsize::new(0));
        let tasks = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let counter = Arc::clone(&counter);
                boxed(move || {
                    pool.run(
                        (0..5)
                            .map(|_| {
                                let c = Arc::clone(&counter);
                                boxed(move || {
                                    c.fetch_add(1, Ordering::SeqCst);
                                })
                            })
                            .collect(),
                    );
                })
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn panic_propagates_after_batch_completes() {
        let pool = ThreadPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        let d1 = Arc::clone(&done);
        let d2 = Arc::clone(&done);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![
                boxed(move || {
                    d1.fetch_add(1, Ordering::SeqCst);
                }),
                boxed(|| panic!("boom")),
                boxed(move || {
                    d2.fetch_add(1, Ordering::SeqCst);
                }),
            ]);
        }));
        assert!(r.is_err(), "panic must surface to the submitter");
        assert_eq!(done.load(Ordering::SeqCst), 2, "other tasks still ran");
        // The pool survives a panicking batch.
        let after = AtomicUsize::new(0);
        pool.run(
            (0..3)
                .map(|_| {
                    boxed(|| {
                        after.fetch_add(1, Ordering::SeqCst);
                    })
                })
                .collect(),
        );
        assert_eq!(after.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn run_for_covers_every_index_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicUsize> = (0..97).map(|_| AtomicUsize::new(0)).collect();
        pool.run_for(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "index {i}");
        }
    }

    #[test]
    fn run_for_writes_disjoint_borrowed_chunks() {
        let pool = ThreadPool::new(3);
        let mut data = vec![0usize; 60];
        let chunks: Vec<std::sync::Mutex<&mut [usize]>> =
            data.chunks_mut(7).map(std::sync::Mutex::new).collect();
        pool.run_for(chunks.len(), &|i| {
            for v in chunks[i].lock().unwrap().iter_mut() {
                *v = i + 1;
            }
        });
        drop(chunks);
        assert!(data.iter().all(|&v| v > 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[59], 60usize.div_ceil(7));
    }

    #[test]
    fn run_for_single_lane_and_empty_run_inline() {
        let pool = ThreadPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.run_for(5, &|_| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 5);
        pool.run_for(0, &|_| panic!("must not be called"));
    }

    #[test]
    fn nested_run_for_falls_back_inline() {
        let pool = ThreadPool::new(4);
        let counter = AtomicUsize::new(0);
        pool.run_for(4, &|_| {
            pool.run_for(5, &|_| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn run_for_panic_propagates_after_all_indices_finish() {
        let pool = ThreadPool::new(4);
        let done = AtomicUsize::new(0);
        let r = catch_unwind(AssertUnwindSafe(|| {
            pool.run_for(8, &|i| {
                if i == 3 {
                    panic!("boom");
                }
                done.fetch_add(1, Ordering::SeqCst);
            });
        }));
        assert!(r.is_err(), "panic must surface to the publisher");
        assert_eq!(done.load(Ordering::SeqCst), 7, "other indices still ran");
        // The slot is released: the pool keeps working.
        let after = AtomicUsize::new(0);
        pool.run_for(3, &|_| {
            after.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(after.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let p1 = global() as *const ThreadPool;
        let p2 = global() as *const ThreadPool;
        assert_eq!(p1, p2);
        assert!(global().threads() >= 1);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
