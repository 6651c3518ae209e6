//! The workspace lane pool behind a shared [`SymbolicCholesky`].
//!
//! A numeric factorization needs mutable engine resources — the
//! factor-ordered matrix whose values are overwritten per call, the
//! engines' scratch buffers, recycled factor storage. Historically one
//! [`EngineWorkspace`] lived behind a handle-wide mutex, so concurrent
//! `factor_with` calls on a shared handle serialized completely. This
//! module replaces that lock with a pool of **lanes**: each lane is an
//! independent `(EngineWorkspace, factor-ordered matrix)` pair, so up to
//! `cap` factorizations of *different value sets* run concurrently on
//! one symbolic structure.
//!
//! * **Sizing.** The cap follows the workspace-wide precedence rule:
//!   an explicit [`SolverOptions::factor_lanes`](crate::SolverOptions)
//!   wins, else the `RLCHOL_FACTOR_LANES` environment variable, else the
//!   pool default ([`rlchol_dense::pool::default_threads`]). Resolved
//!   once at handle construction — environment reads allocate, and the
//!   factorization hot path must not.
//! * **Lazy growth, LIFO recycling.** Lanes are created on demand (a
//!   handle used from one thread ever pays for one lane) and returned to
//!   a free list on drop of the checkout guard; the most recently used
//!   lane — with its cache-warm scratch — is handed out first. When all
//!   `cap` lanes are in flight, [`checkout`](WorkspaceLanes::checkout)
//!   blocks until one returns — except on a thread that already holds a
//!   lane (a nested factorization picked up while an engine waits on
//!   the thread pool), which gets a temporary beyond-cap *overflow*
//!   lane instead, because blocking there could deadlock on a lane held
//!   further down its own stack. A lane is always returned, including
//!   on error and panic paths (the guard's `Drop` does it), so an
//!   indefinite value set in one lane never wedges the others.
//! * **Per-lane GPU stream options.** Each lane's workspace owns its own
//!   [`GpuOptions`] with the stream-pair count and retirement mode
//!   pre-resolved ([`GpuOptions::resolved_streams`] /
//!   [`resolved_retire`](GpuOptions::resolved_retire)), so concurrent
//!   pipelined-engine factorizations each drive their own full set of
//!   simulated compute/copy pairs and never re-read `RLCHOL_STREAMS` /
//!   `RLCHOL_RETIRE` mid-flight. Staged lanes also enable **device
//!   residency**: the pipelined engines keep their simulated device
//!   session (streams, per-lane buffers, uploaded pattern metadata)
//!   alive inside the lane between same-pattern refactorizations.
//! * **Shared recycle bins.** Factor storage and trace buffers returned
//!   through [`SymbolicCholesky::recycle`](crate::SymbolicCholesky::recycle)
//!   land in pool-wide bins (bounded by the lane cap) and are restocked
//!   into whichever lane is checked out next, so a
//!   `factor_with`/`recycle` serving loop allocates nothing after
//!   warm-up — the `factor_with` analogue of the zero-alloc solves.

use std::cell::Cell;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use rlchol_dense::pool::env_positive;
use rlchol_perfmodel::TraceOp;
use rlchol_sparse::SymCsc;

use crate::engine::GpuOptions;
use crate::error::FactorError;
use crate::registry::EngineWorkspace;
use crate::storage::FactorData;

/// One independent factorization lane: the engine resources plus the
/// factor-ordered matrix template whose values are overwritten through
/// the handle's value map on every (re)factorization.
pub(crate) struct Lane {
    /// Engine-resolved resources (scratch, recycled storage, per-lane
    /// GPU stream options).
    pub(crate) ws: EngineWorkspace,
    /// Structure of `P A Pᵀ` in factor order, private to this lane.
    pub(crate) a_fact: SymCsc,
}

/// Counters describing how a handle's lane pool has been used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Maximum concurrent factorizations the pool admits.
    pub cap: usize,
    /// Lanes created so far (lazily grown, never beyond `cap`;
    /// temporary overflow lanes are counted separately).
    pub created: usize,
    /// Lanes checked out right now (may briefly exceed `cap` when
    /// overflow lanes are in flight).
    pub in_use: usize,
    /// High-water mark of concurrently checked-out lanes.
    pub peak_in_use: usize,
    /// Total checkouts served.
    pub checkouts: u64,
    /// Checkouts that had to block for a lane to come back (counted
    /// once per blocked checkout, however many wakeups it took).
    pub contended: u64,
    /// Temporary beyond-cap lanes created for nested checkouts — a
    /// thread already holding a lane must never block on the pool (see
    /// [`HELD_LANES`]); dropped on return instead of joining the free
    /// list.
    pub overflow: u64,
    /// Lanes torn down instead of rejoining the free list because the
    /// factorization they served ended in a device fault or a panic.
    /// The cap slot is released, so the next checkout builds a fresh
    /// lane — possibly-poisoned scratch never serves another caller.
    pub quarantined: u64,
}

thread_local! {
    /// Lanes currently held by this OS thread, across **all** handles.
    /// A nested checkout happens when the engine inside `factor_with`
    /// waits on `rlchol_dense::pool` and the waiting thread pops another
    /// queued factorization (e.g. a sibling `batch_factor` task) to help
    /// out: blocking on the condvar there could deadlock, because the
    /// lane the pool is waiting for is held further down this very
    /// stack. A positive count therefore routes checkout to a temporary
    /// overflow lane instead of the wait loop.
    static HELD_LANES: Cell<usize> = const { Cell::new(0) };
}

struct LaneState {
    /// Returned lanes, most recently used last (LIFO handout).
    free: Vec<Lane>,
    /// Returned overflow lanes, cached (bounded by the cap) so repeated
    /// nested checkouts under sustained work-stealing contention reuse
    /// a built lane instead of re-cloning the template each time. Kept
    /// separate from `free`: these never satisfy a blocked waiter (no
    /// cap slot backs them).
    overflow_free: Vec<Lane>,
    created: usize,
    in_use: usize,
    peak_in_use: usize,
    checkouts: u64,
    contended: u64,
    overflow: u64,
    quarantined: u64,
    /// Factor storage returned via `recycle`, restocked at checkout.
    factors: Vec<FactorData>,
    /// Trace buffers returned via `recycle`, restocked at checkout.
    traces: Vec<Vec<TraceOp>>,
}

/// The pool of [`Lane`]s owned by a
/// [`SymbolicCholesky`](crate::SymbolicCholesky) handle.
pub(crate) struct WorkspaceLanes {
    cap: usize,
    /// Lanes for the task-parallel CPU engines inside one factorization.
    threads: usize,
    /// The per-lane GPU options (streams, retirement mode and fault plan
    /// pre-resolved).
    gpu: GpuOptions,
    /// Pristine factor-ordered structure new lanes are cloned from.
    template: SymCsc,
    /// How long a blocked checkout waits before giving up with
    /// [`FactorError::LanesExhausted`].
    wait: Duration,
    state: Mutex<LaneState>,
    /// Signalled when a lane returns to the free list (or a cap slot is
    /// released by quarantine).
    returned: Condvar,
}

/// The lane cap of a handle whose
/// [`SolverOptions::factor_lanes`](crate::SolverOptions) is `cap_option`:
/// the option when positive, else `RLCHOL_FACTOR_LANES`, else the pool
/// default. Public so a caller that sizes something by the lane count
/// (the service's admission gate) reads the same ladder.
pub fn resolved_cap(cap_option: usize) -> usize {
    if cap_option > 0 {
        cap_option
    } else {
        env_positive("RLCHOL_FACTOR_LANES").unwrap_or_else(rlchol_dense::pool::default_threads)
    }
}

/// Checkout wait budget from the environment: `RLCHOL_LANE_WAIT_MS`
/// when set to a positive integer (milliseconds).
fn env_lane_wait() -> Option<Duration> {
    env_positive("RLCHOL_LANE_WAIT_MS").map(|ms| Duration::from_millis(ms as u64))
}

/// Default checkout wait budget: long enough that a healthy pool under
/// momentary load never trips it, short enough that a wedged lane set
/// surfaces as a typed error rather than a hang.
const DEFAULT_LANE_WAIT: Duration = Duration::from_secs(30);

impl WorkspaceLanes {
    /// Builds the pool. `cap_option` is
    /// [`SolverOptions::factor_lanes`](crate::SolverOptions): `0` defers
    /// to `RLCHOL_FACTOR_LANES`, then the pool default. No lane is
    /// created yet — the first checkout does that.
    pub(crate) fn new(
        cap_option: usize,
        threads: usize,
        gpu: GpuOptions,
        template: SymCsc,
        wait_option: Option<Duration>,
    ) -> Self {
        let cap = resolved_cap(cap_option);
        let wait = wait_option
            .or_else(env_lane_wait)
            .unwrap_or(DEFAULT_LANE_WAIT);
        // Pre-resolve stream options and the fault plan once so every
        // lane's engine runs with explicit, stable settings (no env
        // reads per call, and `RLCHOL_FAULTS` cannot change mid-handle).
        let streams = gpu.resolved_streams();
        let retire = gpu.resolved_retire();
        let faults = gpu.resolved_faults();
        let mut gpu = gpu.with_streams(streams).with_retire(retire);
        gpu.faults = faults;
        WorkspaceLanes {
            cap,
            threads,
            gpu,
            template,
            wait,
            state: Mutex::new(LaneState {
                free: Vec::new(),
                overflow_free: Vec::new(),
                created: 0,
                in_use: 0,
                peak_in_use: 0,
                checkouts: 0,
                contended: 0,
                overflow: 0,
                quarantined: 0,
                factors: Vec::new(),
                traces: Vec::new(),
            }),
            returned: Condvar::new(),
        }
    }

    /// Maximum concurrent factorizations.
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Heap bytes of one lane's private factor-ordered matrix template
    /// (every lane clones it at construction).
    pub(crate) fn template_bytes(&self) -> u64 {
        self.template.memory_bytes()
    }

    /// Usage counters (cheap snapshot under the pool lock).
    pub(crate) fn stats(&self) -> LaneStats {
        let st = self.state.lock().unwrap();
        LaneStats {
            cap: self.cap,
            created: st.created,
            in_use: st.in_use,
            peak_in_use: st.peak_in_use,
            checkouts: st.checkouts,
            contended: st.contended,
            overflow: st.overflow,
            quarantined: st.quarantined,
        }
    }

    /// Checks a lane out: a free lane if one is ready, a newly created
    /// one while the pool is below its cap, otherwise blocks until a
    /// lane returns — unless this thread already holds a lane (nested
    /// checkout via pool work-stealing), where blocking could deadlock
    /// and a temporary overflow lane is built instead. A blocked
    /// checkout waits at most the pool's wait budget
    /// (`SolverOptions::lane_wait` / `RLCHOL_LANE_WAIT_MS` / 30 s)
    /// before giving up with [`FactorError::LanesExhausted`] — the
    /// admission-control signal that sheds load instead of queueing it
    /// forever. The returned guard hands the lane back on drop (also on
    /// panic), so a failed factorization cannot leak a lane.
    pub(crate) fn checkout(&self) -> Result<LaneGuard<'_>, FactorError> {
        let nested = HELD_LANES.with(|h| h.get()) > 0;
        let mut overflow = false;
        let mut st = self.state.lock().unwrap();
        st.checkouts += 1;
        let mut wait_started: Option<Instant> = None;
        let mut lane = loop {
            if let Some(lane) = st.free.pop() {
                break Some(lane);
            }
            if st.created < self.cap {
                st.created += 1;
                break None; // reserved a cap slot; build outside the lock
            }
            if nested {
                // Waiting here could wait on a lane held further down
                // this thread's own stack — never block, overflow.
                overflow = true;
                st.overflow += 1;
                break st.overflow_free.pop();
            }
            let started = *wait_started.get_or_insert_with(|| {
                st.contended += 1;
                Instant::now()
            });
            let elapsed = started.elapsed();
            let Some(remaining) = self.wait.checked_sub(elapsed) else {
                return Err(FactorError::LanesExhausted {
                    cap: self.cap,
                    waited: elapsed,
                });
            };
            st = self.returned.wait_timeout(st, remaining).unwrap().0;
        };
        if lane.is_none() {
            // Build the lane outside the lock: cloning the template of a
            // large pattern must not stall concurrent checkouts/returns.
            drop(st);
            // Staged lanes live across factorizations, so the pipelined
            // engines may keep their simulated device session resident
            // between same-pattern refactor calls.
            let mut ws = EngineWorkspace::new(self.threads, self.gpu.clone());
            ws.residency_enabled = true;
            let fresh = Lane {
                ws,
                a_fact: self.template.clone(),
            };
            st = self.state.lock().unwrap();
            lane = Some(fresh);
        }
        let mut lane = lane.expect("lane obtained above");
        // Restock from the shared recycle bins so a factor_with/recycle
        // loop reuses storage no matter which lane serves it.
        if !lane.ws.has_recycled_factor() {
            if let Some(data) = st.factors.pop() {
                lane.ws.recycle(data);
            }
        }
        if lane.ws.trace_ops.capacity() == 0 {
            if let Some(ops) = st.traces.pop() {
                lane.ws.trace_ops = ops;
            }
        }
        st.in_use += 1;
        st.peak_in_use = st.peak_in_use.max(st.in_use);
        drop(st);
        HELD_LANES.with(|h| h.set(h.get() + 1));
        Ok(LaneGuard {
            lanes: self,
            lane: Some(lane),
            overflow,
            quarantine: false,
        })
    }

    /// Returns factor storage and a trace buffer to the shared bins
    /// (bounded by the lane cap; surplus is dropped).
    pub(crate) fn recycle_parts(&self, data: FactorData, trace_ops: Option<Vec<TraceOp>>) {
        let mut st = self.state.lock().unwrap();
        if !data.sn.is_empty() && st.factors.len() < self.cap {
            st.factors.push(data);
        }
        if let Some(ops) = trace_ops {
            if ops.capacity() > 0 && st.traces.len() < self.cap {
                st.traces.push(ops);
            }
        }
    }

    fn hand_back(&self, lane: Lane, overflow: bool, quarantine: bool) {
        HELD_LANES.with(|h| h.set(h.get() - 1));
        let mut st: MutexGuard<'_, LaneState> = self.state.lock().unwrap();
        st.in_use -= 1;
        if quarantine {
            // The factorization this lane served ended in a device
            // fault or a panic: its scratch, recycled storage and
            // simulated device state are suspect. Tear the lane down
            // instead of recycling it; a cap-backed slot is released so
            // the next checkout (or a blocked waiter) builds a fresh
            // lane from the pristine template.
            st.quarantined += 1;
            if !overflow {
                st.created -= 1;
            }
            drop(st);
            drop(lane);
            if !overflow {
                self.returned.notify_one();
            }
            return;
        }
        if overflow {
            // Beyond-cap lane: cache it for the next nested checkout
            // (bounded), salvaging its recyclables when the cache is
            // full. Never joins `free` and never wakes a waiter — no
            // cap slot backs it.
            if st.overflow_free.len() < self.cap {
                st.overflow_free.push(lane);
            } else {
                let Lane { mut ws, .. } = lane;
                if let Some(data) = ws.take_recycled() {
                    if st.factors.len() < self.cap {
                        st.factors.push(data);
                    }
                }
                let ops = std::mem::take(&mut ws.trace_ops);
                if ops.capacity() > 0 && st.traces.len() < self.cap {
                    st.traces.push(ops);
                }
            }
        } else {
            st.free.push(lane);
            drop(st);
            self.returned.notify_one();
        }
    }
}

/// Exclusive access to one checked-out [`Lane`]; returns it on drop.
pub(crate) struct LaneGuard<'a> {
    lanes: &'a WorkspaceLanes,
    lane: Option<Lane>,
    /// True for a temporary beyond-cap lane (nested checkout).
    overflow: bool,
    /// Set when the factorization this lane served ended in a device
    /// fault — the lane is torn down on drop instead of recycled.
    quarantine: bool,
}

impl LaneGuard<'_> {
    pub(crate) fn lane(&mut self) -> &mut Lane {
        self.lane.as_mut().expect("lane present until drop")
    }

    /// Marks the lane for teardown on drop: its scratch and simulated
    /// device state are suspect after a device fault and must not serve
    /// another factorization.
    pub(crate) fn quarantine(&mut self) {
        self.quarantine = true;
    }
}

impl Drop for LaneGuard<'_> {
    fn drop(&mut self) {
        if let Some(lane) = self.lane.take() {
            // A panic unwinding through the guard quarantines the lane
            // too: the engine stopped mid-write, so the lane's factor
            // storage and scratch are in an undefined state.
            let quarantine = self.quarantine || std::thread::panicking();
            self.lanes.hand_back(lane, self.overflow, quarantine);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlchol_matgen::laplace2d;

    fn pool(cap: usize) -> WorkspaceLanes {
        WorkspaceLanes::new(
            cap,
            1,
            GpuOptions::with_threshold(usize::MAX),
            laplace2d(4, 3),
            None,
        )
    }

    #[test]
    fn lanes_grow_lazily_and_recycle_lifo() {
        let lanes = pool(3);
        assert_eq!(lanes.stats().created, 0, "no lane before first checkout");
        {
            let mut g1 = lanes.checkout().unwrap();
            let mut g2 = lanes.checkout().unwrap();
            g1.lane().ws.lanes = 11; // tag the lanes to observe reuse
            g2.lane().ws.lanes = 22;
            assert_eq!(lanes.stats().created, 2);
            assert_eq!(lanes.stats().in_use, 2);
        }
        assert_eq!(lanes.stats().in_use, 0);
        // LIFO: the last lane returned comes back first (guards drop in
        // reverse declaration order, so g1's lane returned last).
        let mut g = lanes.checkout().unwrap();
        assert_eq!(g.lane().ws.lanes, 11);
        let st = lanes.stats();
        assert_eq!((st.created, st.checkouts, st.contended), (2, 3, 0));
    }

    #[test]
    fn checkout_blocks_at_cap_until_a_lane_returns() {
        let lanes = std::sync::Arc::new(pool(1));
        let guard = lanes.checkout().unwrap();
        let l2 = std::sync::Arc::clone(&lanes);
        let waiter = std::thread::spawn(move || {
            let _g = l2.checkout().unwrap(); // must block until the guard drops
            l2.stats().peak_in_use
        });
        // Give the waiter time to reach the condvar, then release.
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(guard);
        assert_eq!(waiter.join().unwrap(), 1, "cap 1 never admits 2 lanes");
        let st = lanes.stats();
        assert_eq!(st.created, 1);
        assert!(st.contended >= 1, "the second checkout had to wait");
    }

    #[test]
    fn exhausted_checkout_times_out_with_a_typed_error() {
        let lanes = WorkspaceLanes::new(
            1,
            1,
            GpuOptions::with_threshold(usize::MAX),
            laplace2d(4, 3),
            Some(Duration::from_millis(30)),
        );
        let _held = lanes.checkout().unwrap();
        // Checkout from a fresh thread (no nested-overflow escape
        // hatch): it must give up after the wait budget, not hang.
        let err = std::thread::scope(|s| {
            s.spawn(|| lanes.checkout().map(|_| ()).unwrap_err())
                .join()
                .unwrap()
        });
        match err {
            FactorError::LanesExhausted { cap, waited } => {
                assert_eq!(cap, 1);
                assert!(waited >= Duration::from_millis(30), "waited {waited:?}");
            }
            other => panic!("expected LanesExhausted, got {other:?}"),
        }
        assert_eq!(lanes.stats().contended, 1);
    }

    #[test]
    fn quarantine_tears_the_lane_down_and_releases_the_cap_slot() {
        let lanes = pool(1);
        {
            let mut g = lanes.checkout().unwrap();
            g.lane().ws.lanes = 13; // tag: this lane must never come back
            g.quarantine();
        }
        let st = lanes.stats();
        assert_eq!(
            (st.created, st.in_use, st.quarantined),
            (0, 0, 1),
            "quarantine releases the cap slot instead of freeing the lane"
        );
        // The next checkout builds a fresh lane from the template.
        let mut g = lanes.checkout().unwrap();
        assert_ne!(g.lane().ws.lanes, 13, "quarantined lane must not return");
        assert_eq!(lanes.stats().created, 1);
    }

    #[test]
    fn panic_unwinding_through_the_guard_quarantines_the_lane() {
        let lanes = std::sync::Arc::new(pool(1));
        let l2 = std::sync::Arc::clone(&lanes);
        let joined = std::thread::spawn(move || {
            let mut g = l2.checkout().unwrap();
            g.lane().ws.lanes = 99;
            panic!("engine blew up mid-factorization");
        })
        .join();
        assert!(joined.is_err(), "the spawned thread must have panicked");
        let st = lanes.stats();
        assert_eq!((st.created, st.in_use, st.quarantined), (0, 0, 1));
        let mut g = lanes.checkout().unwrap();
        assert_ne!(g.lane().ws.lanes, 99, "poisoned lane must not be reused");
    }

    #[test]
    fn nested_checkout_overflows_instead_of_deadlocking() {
        // A thread that already holds a lane (an engine waiting on the
        // thread pool popped another queued factorization) must never
        // block on the condvar: with cap 1 that wait would be on the
        // lane held further down its own stack. It gets a temporary
        // overflow lane instead — this test deadlocks if it regresses.
        let lanes = pool(1);
        let outer = lanes.checkout().unwrap();
        let mut inner = lanes.checkout().unwrap();
        inner.lane().ws.lanes = 77; // tag the overflow lane
        let st = lanes.stats();
        assert_eq!((st.created, st.overflow, st.in_use), (1, 1, 2));
        drop(inner);
        drop(outer);
        let st = lanes.stats();
        assert_eq!((st.created, st.in_use), (1, 0));
        {
            // The overflow lane never joins the cap-backed free list; it
            // is cached separately for the next nested checkout.
            let inner_st = lanes.state.lock().unwrap();
            let lens = (inner_st.free.len(), inner_st.overflow_free.len());
            drop(inner_st);
            assert_eq!(lens, (1, 1));
        }
        // A later nested checkout reuses the cached lane instead of
        // cloning the template again.
        let _outer = lanes.checkout().unwrap();
        let mut inner = lanes.checkout().unwrap();
        assert_eq!(inner.lane().ws.lanes, 77, "cached overflow lane reused");
        assert_eq!(lanes.stats().overflow, 2);
    }

    #[test]
    fn recycle_bins_are_bounded_by_cap_and_restock_lanes() {
        let lanes = pool(1);
        let data = FactorData {
            sn: vec![vec![0.0; 4]],
        };
        lanes.recycle_parts(data.clone(), Some(vec![TraceOp::Potrf { n: 2 }]));
        // Cap 1: a second recycle is dropped, not hoarded.
        lanes.recycle_parts(data.clone(), Some(vec![TraceOp::Potrf { n: 3 }]));
        {
            let st = lanes.state.lock().unwrap();
            assert_eq!(st.factors.len(), 1);
            assert_eq!(st.traces.len(), 1);
        }
        // Checkout moves the binned storage into the lane's workspace.
        let mut g = lanes.checkout().unwrap();
        assert!(g.lane().ws.has_recycled_factor());
        assert!(g.lane().ws.trace_ops.capacity() > 0);
        drop(g);
        let st = lanes.state.lock().unwrap();
        assert!(st.factors.is_empty() && st.traces.is_empty());
    }
}
