//! Persistent thread pool for the parallel kernels: one indexed
//! parallel-for.
//!
//! The dense kernels' lane splits, and in the other crates the symbolic
//! analysis and `batch_factor`, hand their loops to [`ThreadPool::run_for`] instead of spawning OS threads
//! per call. Workers are started once (lazily, on first use of [`global`])
//! and live for the process; an idle worker sleeps until a parallel-for
//! is published, then claims its indices one at a time until none are
//! left.
//!
//! **Sizing.** The global pool runs `RLCHOL_THREADS` workers when that
//! environment variable is set to a positive integer, otherwise
//! [`std::thread::available_parallelism`]. A caller of
//! [`ThreadPool::run_for`] participates in execution itself, so a "pool
//! of `t` threads" means `t` runnable lanes including the caller (`t - 1`
//! parked workers).
//!
//! **Nesting.** At most one parallel-for is active per pool. A call made
//! while another is active — from another thread, or from inside the
//! active call's closure — runs all of its indices inline on its caller.
//! That is always correct, because the contract already requires the
//! indices to be independent, and the pool cannot deadlock: no call
//! ever waits for the slot or for a worker.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Coordination state of the pool. Everything lives behind one mutex:
/// claims are cheap (an index bump), and the per-call protocol never
/// touches the heap — the publishing caller keeps the closure on its
/// stack, helpers copy the (lifetime-erased) reference out under the
/// lock, and completion is a counter plus a condvar.
struct Shared {
    state: Mutex<ForState>,
    /// Signalled when a parallel-for is published or the pool shuts down.
    work: Condvar,
    /// Signalled when `done` reaches `n`.
    finished: Condvar,
}

struct ForState {
    /// Lifetime-erased closure of the active parallel-for (`None` when
    /// none is active). The publisher blocks until `done == n` before
    /// clearing it, so the reference never outlives the borrow it was
    /// transmuted from; helpers only read it after claiming an index
    /// (`next < n`) under the lock.
    f: Option<&'static (dyn Fn(usize) + Sync)>,
    /// Next unclaimed index.
    next: usize,
    /// Total indices of the active call.
    n: usize,
    /// Indices whose closure call has returned (or unwound).
    done: usize,
    /// First panic payload out of the closure, re-raised by the publisher.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

/// Every closure call runs with the state unlocked and its unwinding is
/// caught, so nothing panics while holding the lock.
const POISON: &str = "the pool never panics while holding its state lock";

impl Shared {
    fn lock(&self) -> MutexGuard<'_, ForState> {
        self.state.lock().expect(POISON)
    }
}

impl ForState {
    /// True while the active parallel-for has unclaimed indices.
    fn claimable(&self) -> bool {
        self.f.is_some() && self.next < self.n
    }
}

/// Claims and runs indices of the active parallel-for until none remain;
/// returns whether any index was run. Called by idle workers, by the
/// publisher itself and through [`ThreadPool::help_run_for`].
fn help(shared: &Shared) -> bool {
    let mut helped = false;
    let mut st = shared.lock();
    while st.claimable() {
        let (f, i) = (st.f.expect("claimable call holds its closure"), st.next);
        st.next += 1;
        drop(st);
        let r = catch_unwind(AssertUnwindSafe(|| f(i)));
        st = shared.lock();
        if let Err(p) = r {
            st.panic.get_or_insert(p);
        }
        st.done += 1;
        if st.done == st.n {
            shared.finished.notify_all();
        }
        helped = true;
    }
    helped
}

/// A persistent pool of worker threads (see the module docs).
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
}

impl ThreadPool {
    /// Starts a pool with `threads` runnable lanes (`threads - 1` workers
    /// plus the participating caller). `threads == 1` spawns no workers;
    /// [`run_for`](Self::run_for) then executes everything inline.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(ForState {
                f: None,
                next: 0,
                n: 0,
                done: 0,
                panic: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            finished: Condvar::new(),
        });
        for w in 0..threads - 1 {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rlchol-pool-{w}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawning pool worker");
        }
        ThreadPool { shared, threads }
    }

    /// Number of runnable lanes (workers + participating caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(0), f(1), …, f(n - 1)` across the pool and blocks until
    /// every call has returned. Performs **no heap allocation**: the
    /// closure stays on the caller's stack, indices are claimed from a
    /// shared counter, and idle workers join in when woken — so
    /// steady-state hot paths (the kernels' lane splits) stay
    /// allocation-free after warm-up.
    ///
    /// Calls are *claimed* in ascending index order but may run
    /// concurrently; `f` must make concurrent calls safe (e.g. by
    /// writing disjoint targets per index — a caller with one `&mut`
    /// part per index hands part `i` over through a `Mutex` slot). At
    /// most one `run_for` is active per pool at a time — a second
    /// concurrent (or nested) call simply runs its indices inline on the
    /// caller. Panics from `f` are collected and the first is re-raised
    /// here after all indices finish.
    pub fn run_for<'env>(&self, n: usize, f: &(dyn Fn(usize) + Sync + 'env)) {
        if self.threads <= 1 || n <= 1 {
            return (0..n).for_each(f);
        }
        // SAFETY: this only erases 'env. The reference is published in
        // the state below and cleared before this call returns, and only
        // after every claimed index has finished (`done == n`); helpers
        // read it only after claiming an index of this call. So no call
        // through it outlives the borrow of `f`. Every call of `f` is
        // wrapped in `catch_unwind`, so no unwind skips the wait.
        let f_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(f) };
        {
            let mut st = self.shared.lock();
            if st.f.is_some() {
                // Another parallel-for is in flight (concurrent callers,
                // or a nested call from inside `f`): run inline.
                drop(st);
                return (0..n).for_each(f);
            }
            st.f = Some(f_static);
            st.next = 0;
            st.n = n;
            st.done = 0;
            st.panic = None;
        }
        self.shared.work.notify_all();
        // Participate, then wait for helpers still running their claims.
        help(&self.shared);
        let mut st = self.shared.lock();
        while st.done < st.n {
            st = self.shared.finished.wait(st).expect(POISON);
        }
        st.f = None;
        let panic = st.panic.take();
        drop(st);
        if let Some(p) = panic {
            resume_unwind(p);
        }
    }

    /// Helps the active [`run_for`](Self::run_for) until its indices are
    /// claimed; returns whether any index ran here. Lets a caller that is
    /// waiting on its own condition (e.g. the tree executor with an empty
    /// ready queue) lend its lane to a split kernel call instead of
    /// sleeping.
    pub fn help_run_for(&self) -> bool {
        help(&self.shared)
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Never panic in `drop`, whatever the lock's state.
        let mut st = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        st.shutdown = true;
        drop(st);
        self.shared.work.notify_all();
    }
}

/// A worker: helps every published parallel-for, and sleeps in between.
/// Publication and shutdown change the state under the same lock the
/// worker checks it under, so no wake-up can be lost.
fn worker_loop(shared: &Shared) {
    let mut st = shared.lock();
    while !st.shutdown {
        if st.claimable() {
            drop(st);
            help(shared);
            st = shared.lock();
        } else {
            st = shared.work.wait(st).expect(POISON);
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
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;

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
    fn run_for_while_another_thread_holds_the_slot_runs_inline() {
        let pool = ThreadPool::new(4);
        let (held, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                pool.run_for(2, &|i| {
                    if i == 0 {
                        held.wait();
                        release.wait();
                    }
                });
            });
            // Index 0 of the other call is running, so the slot is taken.
            held.wait();
            let me = std::thread::current().id();
            let hits: Vec<AtomicUsize> = (0..9).map(|_| AtomicUsize::new(0)).collect();
            pool.run_for(hits.len(), &|i| {
                assert_eq!(std::thread::current().id(), me, "index {i} left the caller");
                hits[i].fetch_add(1, Ordering::SeqCst);
            });
            release.wait();
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::SeqCst), 1, "index {i}");
            }
        });
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
