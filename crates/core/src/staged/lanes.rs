//! The workspace lane pool behind a shared [`SymbolicCholesky`].
//!
//! A numeric factorization needs mutable engine resources — the
//! engines' scratch buffers, a trace buffer, per-lane GPU stream
//! options. Historically one [`EngineWorkspace`] lived behind a
//! handle-wide mutex, so concurrent `factor_with` calls on a shared
//! handle serialized completely. This module replaces that lock with a
//! pool of **lanes**: each lane is one independent [`EngineWorkspace`],
//! so up to `cap` factorizations of *different value sets* run
//! concurrently on one symbolic structure. A lane holds no copy of the
//! matrix: each factorization scatters its input's values straight into
//! factor storage through the handle's value map.
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
//!   blocks until one returns — for at most 30 s, and never past the
//!   caller's wall deadline, which counts the wait (the typed
//!   [`FactorError::LanesExhausted`] or
//!   [`FactorError::DeadlineExceeded`] says which ran out). No thread
//!   ever holds two lanes: a factorization runs on its caller's thread
//!   (a batch on threads of its own), never as an index of the shared
//!   pool's `run_for`. A lane is always returned, including on error
//!   and panic paths (the guard's `Drop` does it), so an indefinite
//!   value set in one lane never wedges the others.
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
//!   land in pool-wide bins (bounded by the lane cap): the next
//!   factorization takes its storage from the bin, and a checked-out
//!   lane without a trace buffer takes one, so a `factor_with`/`recycle`
//!   serving loop allocates nothing after warm-up — the `factor_with`
//!   analogue of the zero-alloc solves.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use rlchol_dense::pool::env_positive;
use rlchol_perfmodel::TraceOp;

use crate::engine::GpuOptions;
use crate::error::FactorError;
use crate::registry::EngineWorkspace;
use crate::resilience::RunCtl;
use crate::storage::FactorData;

/// Counters describing how a handle's lane pool has been used.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Maximum concurrent factorizations the pool admits.
    pub cap: usize,
    /// Lanes created so far (lazily grown, never beyond `cap`).
    pub created: usize,
    /// Lanes checked out right now (at most `cap`).
    pub in_use: usize,
    /// High-water mark of concurrently checked-out lanes.
    pub peak_in_use: usize,
    /// Total checkouts served.
    pub checkouts: u64,
    /// Checkouts that had to block for a lane to come back (counted
    /// once per blocked checkout, however many wakeups it took).
    pub contended: u64,
    /// Lanes torn down instead of rejoining the free list because the
    /// factorization they served ended in a device fault or a panic.
    /// The cap slot is released, so the next checkout builds a fresh
    /// lane — possibly-poisoned scratch never serves another caller.
    pub quarantined: u64,
}

struct LaneState {
    /// Returned lanes, most recently used last (LIFO handout).
    free: Vec<EngineWorkspace>,
    created: usize,
    in_use: usize,
    peak_in_use: usize,
    checkouts: u64,
    contended: u64,
    quarantined: u64,
    /// Factor storage returned via `recycle`, taken by the next
    /// factorization.
    factors: Vec<FactorData>,
    /// Trace buffers returned via `recycle`, restocked at checkout.
    traces: Vec<Vec<TraceOp>>,
}

/// The pool of lanes owned by a
/// [`SymbolicCholesky`](crate::SymbolicCholesky) handle.
pub(crate) struct WorkspaceLanes {
    cap: usize,
    /// Lanes of the CPU tree executor inside one factorization.
    threads: usize,
    /// The per-lane GPU options (streams, retirement mode and fault plan
    /// pre-resolved).
    gpu: GpuOptions,
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

/// Checkout wait budget of every handle: long enough that a healthy
/// pool under momentary load never trips it, short enough that a wedged
/// lane set surfaces as a typed error rather than a hang.
pub(crate) const DEFAULT_LANE_WAIT: Duration = Duration::from_secs(30);

impl WorkspaceLanes {
    /// Builds the pool. `cap_option` is
    /// [`SolverOptions::factor_lanes`](crate::SolverOptions): `0` defers
    /// to `RLCHOL_FACTOR_LANES`, then the pool default. `wait` is the
    /// checkout wait budget ([`DEFAULT_LANE_WAIT`] outside the unit
    /// tests). No lane is created yet — the first checkout does that.
    pub(crate) fn new(cap_option: usize, threads: usize, gpu: GpuOptions, wait: Duration) -> Self {
        let cap = resolved_cap(cap_option);
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
            wait,
            state: Mutex::new(LaneState {
                free: Vec::new(),
                created: 0,
                in_use: 0,
                peak_in_use: 0,
                checkouts: 0,
                contended: 0,
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

    /// Lanes of the CPU tree executor a factorization may run on.
    pub(crate) fn tree_lanes(&self) -> usize {
        crate::registry::resolve_lanes(self.threads)
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
            quarantined: st.quarantined,
        }
    }

    /// Checks a lane out: a free lane if one is ready, a newly created
    /// one while the pool is below its cap, otherwise blocks until a
    /// lane returns. A blocked checkout waits at most the pool's wait
    /// budget (30 s) before giving up with
    /// [`FactorError::LanesExhausted`] — the admission-control signal
    /// that sheds load instead of queueing it forever — and never past
    /// the caller's `ctl`: its wall deadline counts the wait, and running
    /// out of it (or a cancel seen on wake-up) fails the checkout with
    /// `ctl`'s own error. The returned guard hands the lane back on drop
    /// (also on panic), so a failed factorization cannot leak a lane.
    pub(crate) fn checkout(&self, ctl: &RunCtl) -> Result<LaneGuard<'_>, FactorError> {
        let mut st = self.state.lock().unwrap();
        st.checkouts += 1;
        let mut wait_started: Option<Instant> = None;
        let mut ws = loop {
            if let Some(ws) = st.free.pop() {
                break ws;
            }
            if st.created < self.cap {
                st.created += 1;
                // Staged lanes live across factorizations, so the
                // pipelined engines may keep their simulated device
                // session resident between same-pattern refactor calls.
                let mut ws = EngineWorkspace::new(self.threads, self.gpu.clone());
                ws.residency_enabled = true;
                break ws;
            }
            let started = *wait_started.get_or_insert_with(|| {
                st.contended += 1;
                Instant::now()
            });
            ctl.check()?;
            let elapsed = started.elapsed();
            let Some(remaining) = self.wait.checked_sub(elapsed) else {
                return Err(FactorError::LanesExhausted {
                    cap: self.cap,
                    waited: elapsed,
                });
            };
            let timeout = ctl.wall_left().map_or(remaining, |w| w.min(remaining));
            st = self.returned.wait_timeout(st, timeout).unwrap().0;
        };
        if ws.trace_ops.capacity() == 0 {
            if let Some(ops) = st.traces.pop() {
                ws.trace_ops = ops;
            }
        }
        st.in_use += 1;
        st.peak_in_use = st.peak_in_use.max(st.in_use);
        Ok(LaneGuard {
            lanes: self,
            ws: Some(ws),
            quarantine: false,
        })
    }

    /// Factor storage from the shared bin, if any was recycled.
    pub(crate) fn take_storage(&self) -> Option<FactorData> {
        self.state.lock().unwrap().factors.pop()
    }

    /// Returns factor storage and a trace buffer to the shared bins
    /// (bounded by the lane cap; surplus is dropped).
    pub(crate) fn recycle_parts(&self, data: FactorData, trace_ops: Option<Vec<TraceOp>>) {
        let mut st = self.state.lock().unwrap();
        if !data.values().is_empty() && st.factors.len() < self.cap {
            st.factors.push(data);
        }
        if let Some(ops) = trace_ops {
            if ops.capacity() > 0 && st.traces.len() < self.cap {
                st.traces.push(ops);
            }
        }
    }

    fn hand_back(&self, ws: EngineWorkspace, quarantine: bool) {
        let mut st = self.state.lock().unwrap();
        st.in_use -= 1;
        if quarantine {
            // The factorization this lane served ended in a device
            // fault or a panic: its scratch and simulated device state
            // are suspect. Tear the lane down instead of recycling it
            // and release its cap slot, so the next checkout (or a
            // blocked waiter) builds a fresh lane.
            st.quarantined += 1;
            st.created -= 1;
            drop(st);
            drop(ws);
        } else {
            st.free.push(ws);
            drop(st);
        }
        self.returned.notify_one();
    }
}

/// Exclusive access to one checked-out lane; returns it on drop.
pub(crate) struct LaneGuard<'a> {
    lanes: &'a WorkspaceLanes,
    ws: Option<EngineWorkspace>,
    /// Set when the factorization this lane served ended in a device
    /// fault — the lane is torn down on drop instead of recycled.
    quarantine: bool,
}

impl LaneGuard<'_> {
    pub(crate) fn lane(&mut self) -> &mut EngineWorkspace {
        self.ws.as_mut().expect("lane present until drop")
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
        if let Some(ws) = self.ws.take() {
            // A panic unwinding through the guard quarantines the lane
            // too: the engine stopped mid-write, so the lane's scratch
            // is in an undefined state.
            let quarantine = self.quarantine || std::thread::panicking();
            self.lanes.hand_back(ws, quarantine);
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
            DEFAULT_LANE_WAIT,
        )
    }

    #[test]
    fn lanes_grow_lazily_and_recycle_lifo() {
        let lanes = pool(3);
        assert_eq!(lanes.stats().created, 0, "no lane before first checkout");
        {
            let mut g1 = lanes.checkout(&RunCtl::default()).unwrap();
            let mut g2 = lanes.checkout(&RunCtl::default()).unwrap();
            g1.lane().lanes = 11; // tag the lanes to observe reuse
            g2.lane().lanes = 22;
            assert_eq!(lanes.stats().created, 2);
            assert_eq!(lanes.stats().in_use, 2);
        }
        assert_eq!(lanes.stats().in_use, 0);
        // LIFO: the last lane returned comes back first (guards drop in
        // reverse declaration order, so g1's lane returned last).
        let mut g = lanes.checkout(&RunCtl::default()).unwrap();
        assert_eq!(g.lane().lanes, 11);
        let st = lanes.stats();
        assert_eq!((st.created, st.checkouts, st.contended), (2, 3, 0));
    }

    #[test]
    fn checkout_blocks_at_cap_until_a_lane_returns() {
        let lanes = std::sync::Arc::new(pool(1));
        let guard = lanes.checkout(&RunCtl::default()).unwrap();
        let l2 = std::sync::Arc::clone(&lanes);
        let waiter = std::thread::spawn(move || {
            let _g = l2.checkout(&RunCtl::default()).unwrap(); // must block until the guard drops
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
            Duration::from_millis(30),
        );
        let _held = lanes.checkout(&RunCtl::default()).unwrap();
        // A second checkout must give up after the wait budget, not hang.
        let err = std::thread::scope(|s| {
            s.spawn(|| lanes.checkout(&RunCtl::default()).map(|_| ()).unwrap_err())
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
            let mut g = lanes.checkout(&RunCtl::default()).unwrap();
            g.lane().lanes = 13; // tag: this lane must never come back
            g.quarantine();
        }
        let st = lanes.stats();
        assert_eq!(
            (st.created, st.in_use, st.quarantined),
            (0, 0, 1),
            "quarantine releases the cap slot instead of freeing the lane"
        );
        // The next checkout builds a fresh lane.
        let mut g = lanes.checkout(&RunCtl::default()).unwrap();
        assert_ne!(g.lane().lanes, 13, "quarantined lane must not return");
        assert_eq!(lanes.stats().created, 1);
    }

    #[test]
    fn panic_unwinding_through_the_guard_quarantines_the_lane() {
        let lanes = std::sync::Arc::new(pool(1));
        let l2 = std::sync::Arc::clone(&lanes);
        let joined = std::thread::spawn(move || {
            let mut g = l2.checkout(&RunCtl::default()).unwrap();
            g.lane().lanes = 99;
            panic!("engine blew up mid-factorization");
        })
        .join();
        assert!(joined.is_err(), "the spawned thread must have panicked");
        let st = lanes.stats();
        assert_eq!((st.created, st.in_use, st.quarantined), (0, 0, 1));
        let mut g = lanes.checkout(&RunCtl::default()).unwrap();
        assert_ne!(g.lane().lanes, 99, "poisoned lane must not be reused");
    }

    #[test]
    fn recycle_bins_are_bounded_by_cap() {
        let lanes = pool(1);
        let sym = rlchol_symbolic::analyze(&laplace2d(2, 1), &Default::default());
        let data = FactorData::zeros(&sym);
        lanes.recycle_parts(data.clone(), Some(vec![TraceOp::Potrf { n: 2 }]));
        // Cap 1: a second recycle is dropped, not hoarded.
        lanes.recycle_parts(data.clone(), Some(vec![TraceOp::Potrf { n: 3 }]));
        {
            let st = lanes.state.lock().unwrap();
            assert_eq!(st.factors.len(), 1);
            assert_eq!(st.traces.len(), 1);
        }
        // Checkout moves the binned trace buffer into the lane; the
        // storage waits in its bin for the next factorization.
        let mut g = lanes.checkout(&RunCtl::default()).unwrap();
        assert!(g.lane().trace_ops.capacity() > 0);
        assert_eq!(lanes.take_storage(), Some(data));
        assert_eq!(lanes.take_storage(), None);
        drop(g);
        let st = lanes.state.lock().unwrap();
        assert!(st.factors.is_empty() && st.traces.is_empty());
    }
}
