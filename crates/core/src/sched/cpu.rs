//! The CPU tree executor: `RlCpu`, `RlbCpu` and their synonyms
//! `RlCpuPar` / `RlbCpuPar` all run here, at `SolverOptions::threads`
//! lanes, and the factor is the one-lane sweep's bit for bit at every
//! lane count. The units are those of the fan-both task graph of
//! Jacquelin et al.:
//!
//! * **factor s**: the panel step; under RL also `s`'s update matrix,
//!   formed once (`rl_update_matrix`);
//! * **apply s → t**: one `scatter_segment` of that matrix (RL), or one
//!   target run's direct kernels (`rlb_apply_run`, RLB), which read only
//!   `s`'s factored panel.
//!
//! **Order.** Apply s → t is released when `t`'s [`Sequencer`] cursor
//! reaches `s`, so every target takes its updates in the sweep's order,
//! ascending source. Factor t is released when the cursor has passed
//! every updater. Lanes take ready work lowest supernode first (the GPU
//! executor's heap order), every ready apply of a source at once.
//!
//! **Progress.** Let `s` be the lowest source not fully applied. All
//! sources below it are done, among them every updater of `s` and every
//! earlier updater of its targets: factor s is ready, then every apply
//! of `s`. The slab below always has room for `s`'s update matrix, so
//! some unit can always run and the executor cannot deadlock.
//!
//! **Held bytes.** An RL update matrix lives from factor s until its last
//! segment lands, in one slab of `lanes × max_update_matrix_entries` f64s
//! kept in the workspace. Its first largest-matrix room is for the lowest
//! source; the rest goes first fit, and a factor that does not fit waits.
//! RLB holds nothing. The peak is
//! [`FactorInfo::peak_held_bytes`](crate::FactorInfo::peak_held_bytes).
//!
//! **One lane when the tree does not pay**, below `TREE_FLOPS` or when
//! another CPU factorization is running as this one starts (a second
//! handle lane, a second service connection: the process is busy, and
//! the pool runs one kernel split at a time): the ascending sweep on the
//! caller, where every cursor is always ready. Once warm it allocates
//! nothing. A tree that is running when another factorization starts
//! shrinks to the caller's lane: the other lanes leave after their
//! current unit.
//!
//! **Lanes** are scoped threads, so no pool job waits on the tree. Kernels
//! split large calls across [`rlchol_dense::pool`] themselves, and an
//! idle lane helps the running split before it sleeps, so the one wide
//! supernode near the root still uses every lane.
//!
//! **Trace.** It depends on shapes only, so both paths emit it after the
//! run, in supernode order (`trace_supernode`), and the kernels run with
//! no accounting.
//!
//! **Errors.** [`RunCtl::check`](crate::resilience::RunCtl::check) runs
//! once per supernode at every lane count. A deadline, a cancellation, a
//! nonpositive pivot or a panicking unit stops every lane; the first
//! error is returned, a panic re-raised on the caller.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use rlchol_dense::pool;
use rlchol_perfmodel::{Trace, TraceOp};
use rlchol_sparse::SymCsc;
use rlchol_symbolic::SymbolicFactor;

use crate::assemble::{assemble_update, scatter_segment, segment_to, segments};
use crate::engine::{panel_step, CpuRun, Variant};
use crate::error::FactorError;
use crate::registry::EngineWorkspace;
use crate::resilience::RunCtl;
use crate::rl::rl_update_matrix;
use crate::rlb::{rlb_apply_run, rlb_run_ops, rlb_run_to, rlb_target_runs};
use crate::storage::FactorData;

use super::driver::Sequencer;

/// Factorizations below this many flops run the one-lane sweep. Best RL
/// refactor, sweep against two lanes, 2-vCPU host: `grid3d(12)` (7.7e6
/// flops) 1.95 against 2.20 ms, `grid3d(14)` (2.1e7) 4.61 against 4.46
/// ms, `grid3d(16)` (4.7e7) 7.94 against 7.41 ms.
const TREE_FLOPS: f64 = (1u64 << 24) as f64;

/// CPU factorizations in flight in this process.
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// One in-flight CPU factorization; `alone` when no other was running as
/// it started.
struct InFlight {
    alone: bool,
}

impl InFlight {
    fn enter() -> InFlight {
        InFlight {
            alone: IN_FLIGHT.fetch_add(1, Ordering::AcqRel) == 0,
        }
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        IN_FLIGHT.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The executor's buffers, kept in the workspace across factorizations so
/// a refactorization grows nothing.
#[derive(Debug, Default)]
pub(crate) struct CpuScratch {
    /// One per lane; the sweep uses the first.
    lanes: Vec<LaneScratch>,
    /// RL's update matrices: the sweep's one, or the tree's [`Slab`].
    upd: Vec<f64>,
    /// Test hook: cancelled right after each supernode is factored.
    #[cfg(test)]
    cancel_after_factor: Option<crate::resilience::CancelToken>,
}

/// One lane's scratch.
#[derive(Debug, Default)]
struct LaneScratch {
    /// The diagonal-block copy of the panel TRSM.
    l11: Vec<f64>,
    /// Relative indices of an RL scatter.
    rel: Vec<usize>,
    /// Targets of the apply batch the lane runs.
    batch: Vec<usize>,
    /// Units the lane ran in the last tree.
    #[cfg(test)]
    units: usize,
}

/// Grows `buf` to at least `len` entries. A fresh allocation is zeroed by
/// the system, so pages a run never touches stay unmapped.
fn grow(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        *buf = vec![0.0; len];
    }
}

/// Factors `a` (permuted into factor order) with `variant`, drawing
/// factor storage and scratch from `ws`, on `ws.resolved_lanes()` lanes
/// unless the tree does not pay (see the module docs).
pub(crate) fn factor_cpu_ws(
    sym: &SymbolicFactor,
    a: &SymCsc,
    variant: Variant,
    ws: &mut EngineWorkspace,
) -> Result<CpuRun, FactorError> {
    let in_flight = InFlight::enter();
    let lanes = if in_flight.alone && sym.flops >= TREE_FLOPS {
        ws.resolved_lanes()
    } else {
        1
    };
    execute(sym, a, variant, ws, lanes, true)
}

/// Runs the executor at `lanes` lanes (one: the sweep). With `shrink`,
/// lanes other than the caller's bow out, between units, once another
/// CPU factorization is in flight: the process is busy.
fn execute(
    sym: &SymbolicFactor,
    a: &SymCsc,
    variant: Variant,
    ws: &mut EngineWorkspace,
    lanes: usize,
    shrink: bool,
) -> Result<CpuRun, FactorError> {
    let t0 = Instant::now();
    let mut data = ws.take_factor(sym, a);
    let lanes = lanes.clamp(1, sym.nsup().max(1));
    let peak = if lanes == 1 {
        sweep(sym, variant, &mut data, ws)?
    } else {
        Tree::run(sym, variant, &mut data, ws, lanes, shrink)?
    };
    let mut trace = ws.take_trace();
    for s in 0..sym.nsup() {
        trace_supernode(sym, s, variant, &mut trace);
    }
    Ok(CpuRun {
        factor: data,
        trace,
        wall: t0.elapsed(),
        peak_held_bytes: peak * std::mem::size_of::<f64>(),
        lanes,
    })
}

/// Factor s: the panel step, then (RL) `s`'s update matrix into `upd`.
fn factor_unit(
    sym: &SymbolicFactor,
    variant: Variant,
    s: usize,
    arr: &mut [f64],
    l11: &mut Vec<f64>,
    upd: &mut [f64],
) -> Result<(), FactorError> {
    panel_step(sym, s, arr, l11, |_| {})?;
    if variant == Variant::Rl && sym.sn_nrows_below(s) > 0 {
        rl_update_matrix(sym, s, arr, upd, |_| {});
    }
    Ok(())
}

/// Supernode `s`'s kernels as trace records, in the sweep's order.
fn trace_supernode(sym: &SymbolicFactor, s: usize, variant: Variant, trace: &mut Trace) {
    let c = sym.sn_ncols(s);
    let r = sym.sn_nrows_below(s);
    trace.push(TraceOp::Potrf { n: c });
    if r == 0 {
        return;
    }
    trace.push(TraceOp::Trsm { m: r, n: c });
    match variant {
        Variant::Rl => {
            trace.push(TraceOp::Syrk { n: r, k: c });
            trace.push(TraceOp::Assemble {
                entries: r * (r + 1) / 2,
            });
        }
        Variant::Rlb => {
            for run in rlb_target_runs(sym, s) {
                rlb_run_ops(sym, s, &run, |op| trace.push(*op));
            }
        }
    }
}

/// The one-lane sweep: supernodes in ascending order, each factored and
/// then applied to all its targets. Returns the largest update matrix
/// held (entries).
fn sweep(
    sym: &SymbolicFactor,
    variant: Variant,
    data: &mut FactorData,
    ws: &mut EngineWorkspace,
) -> Result<usize, FactorError> {
    #[cfg(test)]
    let hook = ws.cpu.cancel_after_factor.clone();
    let ctl = &ws.ctl;
    let CpuScratch { lanes, upd, .. } = &mut ws.cpu;
    if lanes.is_empty() {
        lanes.push(LaneScratch::default());
    }
    let LaneScratch { l11, rel, .. } = &mut lanes[0];
    let mut peak = 0;
    if variant == Variant::Rl {
        // "The temporary working storage is preallocated so that it can
        // store the largest update matrix during the factorization."
        // (§II-A)
        peak = sym.max_update_matrix_entries();
        grow(upd, peak);
    }
    for s in 0..sym.nsup() {
        ctl.check()?;
        factor_unit(sym, variant, s, &mut data.sn[s], l11, upd)?;
        #[cfg(test)]
        if let Some(token) = &hook {
            token.cancel();
        }
        // Every cursor is ready: apply s → t for all targets, ascending.
        let r = sym.sn_nrows_below(s);
        match variant {
            Variant::Rl => {
                assemble_update(sym, &mut data.sn, s, upd, r, rel);
            }
            Variant::Rlb => {
                // Targets are strict ancestors (> s): a split borrow
                // separates the source panel from them.
                let (head, tail) = data.sn.split_at_mut(s + 1);
                for run in rlb_target_runs(sym, s) {
                    let tarr = &mut tail[run.target - s - 1];
                    rlb_apply_run(sym, s, &head[s], tarr, &run, |_| {});
                }
            }
        }
    }
    Ok(peak)
}

/// Raw supernode arrays and update-matrix slab shared by the lanes.
///
/// Safety rests on the schedule: apply s → t is the only unit writing
/// `t`, and only one apply into `t` is ever ready at a time (its cursor);
/// factor t writes `t` once every apply into it has completed; after
/// factor s, `s` is only read. A slab range is written by factor s and
/// read by `s`'s applies, which start after it and end before the range
/// is handed out again. Every hand-over goes through the state
/// lock, which orders the writes before the reads.
struct Arrays {
    sn: Vec<(*mut f64, usize)>,
    slab: *mut f64,
}

// SAFETY: see the type docs — the schedule hands each array and slab
// range to at most one writer at a time, never to a writer and a reader
// at once.
unsafe impl Sync for Arrays {}

impl Arrays {
    /// # Safety
    /// The caller runs the one unit that may write supernode `s` now.
    #[allow(clippy::mut_from_ref)]
    unsafe fn write(&self, s: usize) -> &mut [f64] {
        let (ptr, len) = self.sn[s];
        std::slice::from_raw_parts_mut(ptr, len)
    }

    /// # Safety
    /// Supernode `s` has been factored (nothing writes it any more).
    unsafe fn read(&self, s: usize) -> &[f64] {
        let (ptr, len) = self.sn[s];
        std::slice::from_raw_parts(ptr, len)
    }

    /// # Safety
    /// The slab range was handed to the caller's unit alone.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slab_write(&self, (start, len): (usize, usize)) -> &mut [f64] {
        std::slice::from_raw_parts_mut(self.slab.add(start), len)
    }

    /// # Safety
    /// The slab range holds a factored source's update matrix (nothing
    /// writes it any more) and stays handed out while the caller reads.
    unsafe fn slab_read(&self, (start, len): (usize, usize)) -> &[f64] {
        std::slice::from_raw_parts(self.slab.add(start), len)
    }
}

/// A unit handed to a lane, with what it takes from the shared state.
enum Unit {
    /// Factor `s`; (RL) its update matrix goes to slab range `upd`.
    Factor { s: usize, upd: (usize, usize) },
    /// Apply `s →` each target of the lane's batch, reading (RL) `s`'s
    /// update matrix in slab range `upd`.
    Apply { s: usize, upd: (usize, usize) },
}

/// Where RL's live update matrices sit: one slab of `lanes ×
/// max_update_matrix_entries` f64s. Its first `reserve` (one largest
/// matrix) are kept for the lowest unfinished source; the rest is handed
/// out first fit. Ranges are `(start, len)`.
struct Slab {
    /// Free ranges of the shared part, ascending, never adjacent.
    free: Vec<(usize, usize)>,
    /// Entries handed out, and their peak.
    held: usize,
    peak: usize,
    reserve: usize,
}

impl Slab {
    fn new(reserve: usize, len: usize) -> Self {
        Slab {
            free: if len > reserve {
                vec![(reserve, len - reserve)]
            } else {
                Vec::new()
            },
            held: 0,
            peak: 0,
            reserve,
        }
    }

    /// Whether an `need`-entry range is there: the kept part for the
    /// lowest source (no other source holds it: it is released before
    /// the next source becomes the lowest), else a free range that fits.
    fn fits(&self, need: usize, lowest: bool) -> bool {
        lowest || self.free.iter().any(|&(_, len)| len >= need)
    }

    fn take(&mut self, need: usize, lowest: bool) -> Option<(usize, usize)> {
        let start = if lowest {
            0
        } else {
            let i = self.free.iter().position(|&(_, len)| len >= need)?;
            let (start, len) = self.free[i];
            if len == need {
                self.free.remove(i);
            } else {
                self.free[i] = (start + need, len - need);
            }
            start
        };
        self.held += need;
        self.peak = self.peak.max(self.held);
        Some((start, need))
    }

    fn put(&mut self, (start, len): (usize, usize)) {
        self.held -= len;
        if start < self.reserve {
            return;
        }
        let i = self.free.partition_point(|&(s, _)| s < start);
        let joins_prev = i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == start;
        let joins_next = i < self.free.len() && start + len == self.free[i].0;
        match (joins_prev, joins_next) {
            (true, true) => {
                self.free[i - 1].1 += len + self.free[i].1;
                self.free.remove(i);
            }
            (true, false) => self.free[i - 1].1 += len,
            (false, true) => self.free[i] = (start, len + self.free[i].1),
            (false, false) => self.free.insert(i, (start, len)),
        }
    }
}

/// Scheduling state, behind one lock.
struct State {
    seq: Sequencer,
    /// Ready units, lowest `(source, target)` first; `(s, s)` is factor s.
    ready: BinaryHeap<Reverse<(usize, usize)>>,
    /// RL factor units waiting for slab room, lowest first.
    starved: BinaryHeap<Reverse<usize>>,
    factored: Vec<bool>,
    /// Applies of each source still to run.
    left: Vec<usize>,
    /// Each factored RL source's slab range, until its last apply.
    held: Vec<(usize, usize)>,
    slab: Slab,
    /// Sources fully applied, and the lowest one that is not (`nsup`
    /// once all are: the tree is done).
    finished: Vec<bool>,
    low: usize,
    /// Lanes waiting for work.
    sleeping: usize,
    stop: bool,
    error: Option<FactorError>,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Units run outside the state lock and catch their panics, so no lane
/// panics while holding it.
const POISON: &str = "no lane panics holding the state lock";

/// What the lanes share.
struct Tree<'a> {
    sym: &'a SymbolicFactor,
    variant: Variant,
    arrays: Arrays,
    ctl: &'a RunCtl,
    shrink: bool,
    #[cfg(test)]
    hook: Option<crate::resilience::CancelToken>,
    state: Mutex<State>,
    wake: Condvar,
}

impl<'a> Tree<'a> {
    /// Runs the tree at `lanes` lanes: the caller plus `lanes - 1` scoped
    /// threads. Returns the peak of held update-matrix entries.
    fn run(
        sym: &'a SymbolicFactor,
        variant: Variant,
        data: &mut FactorData,
        ws: &'a mut EngineWorkspace,
        lanes: usize,
        shrink: bool,
    ) -> Result<usize, FactorError> {
        let nsup = sym.nsup();
        let seq = Sequencer::new(sym);
        let ready = seq.leaves().map(|t| Reverse((t, t))).collect();
        let left = (0..nsup).map(|s| segments(sym, s).count()).collect();
        let max_upd = sym.max_update_matrix_entries();
        let slab_len = if variant == Variant::Rl {
            lanes * max_upd
        } else {
            0
        };
        grow(&mut ws.cpu.upd, slab_len);
        let mut scratch = std::mem::take(&mut ws.cpu.lanes);
        scratch.resize_with(lanes, LaneScratch::default);
        #[cfg(test)]
        for sc in &mut scratch {
            sc.units = 0;
        }
        let tree = Tree {
            sym,
            variant,
            arrays: Arrays {
                sn: data
                    .sn
                    .iter_mut()
                    .map(|v| (v.as_mut_ptr(), v.len()))
                    .collect(),
                slab: ws.cpu.upd.as_mut_ptr(),
            },
            ctl: &ws.ctl,
            shrink,
            #[cfg(test)]
            hook: ws.cpu.cancel_after_factor.clone(),
            state: Mutex::new(State {
                seq,
                ready,
                starved: BinaryHeap::new(),
                factored: vec![false; nsup],
                left,
                held: vec![(0, 0); nsup],
                slab: Slab::new(max_upd, slab_len),
                finished: vec![false; nsup],
                low: 0,
                sleeping: 0,
                stop: false,
                error: None,
                panic: None,
            }),
            wake: Condvar::new(),
        };
        let scratch = std::thread::scope(|scope| {
            let mut lanes = scratch.into_iter();
            let mut mine = lanes.next().expect("at least one lane");
            let others: Vec<_> = lanes
                .map(|mut sc| {
                    let tree = &tree;
                    scope.spawn(move || {
                        tree.lane(&mut sc, true);
                        sc
                    })
                })
                .collect();
            tree.lane(&mut mine, false);
            let mut all = vec![mine];
            all.extend(
                others
                    .into_iter()
                    .map(|h| h.join().expect("lanes catch unit panics")),
            );
            all
        });
        let st = tree.state.into_inner().expect(POISON);
        ws.cpu.lanes = scratch;
        if let Some(payload) = st.panic {
            resume_unwind(payload);
        }
        if let Some(err) = st.error {
            return Err(err);
        }
        debug_assert_eq!(st.low, nsup);
        debug_assert_eq!(st.slab.held, 0);
        Ok(st.slab.peak)
    }

    /// One lane: run the lowest ready unit; with none ready, help the
    /// pool's running split, else sleep until a unit is released. A
    /// `spawned` lane bows out when the tree shrinks and the process is
    /// busy, handing any ready work on; the caller's lane alone can
    /// finish the tree.
    fn lane(&self, scratch: &mut LaneScratch, spawned: bool) {
        let mut st = self.state.lock().expect(POISON);
        loop {
            if st.stop {
                return;
            }
            if spawned && self.shrink && IN_FLIGHT.load(Ordering::Acquire) > 1 {
                self.wake.notify_one();
                return;
            }
            if let Some(unit) = self.pop(&mut st, &mut scratch.batch) {
                if st.sleeping > 0 && !st.ready.is_empty() {
                    self.wake.notify_one();
                }
                drop(st);
                let result = catch_unwind(AssertUnwindSafe(|| self.work(unit, scratch)));
                #[cfg(test)]
                {
                    scratch.units += 1;
                }
                st = self.state.lock().expect(POISON);
                match result {
                    Ok(Ok(done)) => self.complete(&mut st, done, &scratch.batch),
                    Ok(Err(err)) => {
                        st.error.get_or_insert(err);
                        st.stop = true;
                    }
                    Err(payload) => {
                        st.panic.get_or_insert(payload);
                        st.stop = true;
                    }
                }
                if st.stop {
                    self.wake.notify_all();
                }
                continue;
            }
            drop(st);
            let helped = pool::global().try_run_one();
            st = self.state.lock().expect(POISON);
            if !helped && !st.stop && st.ready.is_empty() {
                st.sleeping += 1;
                st = self.wake.wait(st).expect(POISON);
                st.sleeping -= 1;
            }
        }
    }

    /// Takes the lowest ready unit there is slab room for. Applies go in
    /// batches: every ready apply of the lowest source, whose targets are
    /// put in `batch`.
    fn pop(&self, st: &mut State, batch: &mut Vec<usize>) -> Option<Unit> {
        while let Some(Reverse((s, t))) = st.ready.pop() {
            if s != t {
                batch.clear();
                batch.push(t);
                while let Some(&Reverse((q, u))) = st.ready.peek() {
                    if q != s {
                        break;
                    }
                    st.ready.pop();
                    batch.push(u);
                }
                return Some(Unit::Apply { s, upd: st.held[s] });
            }
            let r = self.sym.sn_nrows_below(s);
            let upd = if self.variant == Variant::Rlb || r == 0 {
                (0, 0)
            } else if let Some(upd) = st.slab.take(r * r, s == st.low) {
                upd
            } else {
                st.starved.push(Reverse(s));
                continue;
            };
            return Some(Unit::Factor { s, upd });
        }
        None
    }

    /// Runs one unit outside the lock; returns it for [`complete`].
    fn work(&self, unit: Unit, scratch: &mut LaneScratch) -> Result<Unit, FactorError> {
        let (sym, variant) = (self.sym, self.variant);
        match unit {
            Unit::Factor { s, upd } => {
                self.ctl.check()?;
                // SAFETY: factor s is popped once, after every apply into
                // `s` completed; its slab range was handed to it alone.
                let arr = unsafe { self.arrays.write(s) };
                let upd_m = unsafe { self.arrays.slab_write(upd) };
                factor_unit(sym, variant, s, arr, &mut scratch.l11, upd_m)?;
                #[cfg(test)]
                if let Some(token) = &self.hook {
                    token.cancel();
                }
                Ok(unit)
            }
            Unit::Apply { s, upd } => {
                // SAFETY: `s` is factored, so only read, and its slab range
                // stays handed out until its last apply completes.
                let (src, upd_m) = unsafe { (self.arrays.read(s), self.arrays.slab_read(upd)) };
                let (rows, r) = (&sym.rows[s], sym.sn_nrows_below(s));
                let LaneScratch { rel, batch, .. } = scratch;
                for &t in batch.iter() {
                    // SAFETY: `t`'s cursor is at `s`, so this apply is the
                    // one unit that may write `t` now.
                    let tarr = unsafe { self.arrays.write(t) };
                    match variant {
                        Variant::Rl => {
                            let seg = segment_to(sym, s, t);
                            scatter_segment(sym, tarr, seg, rows, upd_m, r, rel);
                        }
                        Variant::Rlb => {
                            rlb_apply_run(sym, s, src, tarr, &rlb_run_to(sym, s, t), |_| {})
                        }
                    }
                }
                Ok(unit)
            }
        }
    }

    /// Records a finished unit and releases what it unblocks.
    fn complete(&self, st: &mut State, unit: Unit, batch: &[usize]) {
        match unit {
            Unit::Factor { s, upd } => {
                st.factored[s] = true;
                st.held[s] = upd;
                // Queue every apply whose target's cursor is at `s`.
                for seg in segments(self.sym, s) {
                    if st.seq.next(seg.target) == Some(s) {
                        st.ready.push(Reverse((s, seg.target)));
                    }
                }
                if st.left[s] == 0 {
                    self.finish(st, s);
                }
            }
            Unit::Apply { s, .. } => {
                for &t in batch {
                    st.left[s] -= 1;
                    if st.seq.advance(t) {
                        st.ready.push(Reverse((t, t)));
                    } else if let Some(q) = st.seq.next(t).filter(|&q| st.factored[q]) {
                        st.ready.push(Reverse((q, t)));
                    }
                }
                if st.left[s] == 0 {
                    self.finish(st, s);
                }
            }
        }
    }

    /// Source `s` is fully applied: release its slab range and re-admit
    /// the starved factor units that now fit.
    fn finish(&self, st: &mut State, s: usize) {
        if st.held[s].1 > 0 {
            st.slab.put(st.held[s]);
        }
        st.finished[s] = true;
        while st.low < st.finished.len() && st.finished[st.low] {
            st.low += 1;
        }
        if st.low == st.finished.len() {
            st.stop = true;
            return;
        }
        self.readmit(st);
    }

    /// Moves starved factor units back to the ready queue, lowest first,
    /// while they fit (the pop takes the range).
    fn readmit(&self, st: &mut State) {
        while let Some(&Reverse(q)) = st.starved.peek() {
            let r = self.sym.sn_nrows_below(q);
            if !st.slab.fits(r * r, q == st.low) {
                return;
            }
            st.starved.pop();
            st.ready.push(Reverse((q, q)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{CancelToken, Deadline};
    use rlchol_dense::{flops_potrf, flops_trsm};
    use rlchol_matgen::{grid2d, grid3d, kkt3d, laplace2d, perturbed_grid3d, Stencil};
    use rlchol_ordering::{order, OrderingMethod};
    use rlchol_symbolic::{analyze, SymbolicOptions};

    /// `a` in nested-dissection order (a bushy tree, where the lanes run
    /// ahead of the lowest source), with its symbolic factor.
    fn prepared(a: &SymCsc) -> (SymbolicFactor, SymCsc) {
        let a = a.permute(&order(a, OrderingMethod::NestedDissection));
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        (sym, ap)
    }

    /// The executor at exactly `lanes` lanes, bypassing the flop cutoff
    /// and the one-active-tree rule.
    fn at(sym: &SymbolicFactor, ap: &SymCsc, variant: Variant, lanes: usize) -> CpuRun {
        let mut ws = EngineWorkspace::default();
        execute(sym, ap, variant, &mut ws, lanes, false).unwrap()
    }

    /// Factor and trace at 2, 4 and 8 lanes equal the sweep's, bit for
    /// bit and op for op.
    fn check_lanes(a: &SymCsc) {
        let (sym, ap) = prepared(a);
        for variant in [Variant::Rl, Variant::Rlb] {
            let sweep = at(&sym, &ap, variant, 1);
            for lanes in [2, 4, 8] {
                let tree = at(&sym, &ap, variant, lanes);
                assert_eq!(tree.lanes, lanes);
                assert_eq!(sweep.factor, tree.factor, "{variant:?} lanes={lanes}");
                assert_eq!(sweep.trace.ops, tree.trace.ops, "{variant:?} lanes={lanes}");
            }
        }
    }

    #[test]
    fn lanes_match_the_sweep_2d() {
        check_lanes(&laplace2d(24, 5));
    }

    #[test]
    fn lanes_match_the_sweep_3d() {
        check_lanes(&grid3d(7, 7, 7, Stencil::Star7, 1, 3));
        check_lanes(&grid3d(12, 10, 9, Stencil::Star7, 1, 4));
    }

    #[test]
    fn slab_keeps_room_for_the_lowest_and_merges_free_ranges() {
        let mut slab = Slab::new(10, 30);
        assert_eq!(slab.take(10, true), Some((0, 10)), "the kept part");
        let a = slab.take(8, false).unwrap();
        let b = slab.take(8, false).unwrap();
        assert_eq!((a, b), ((10, 8), (18, 8)));
        assert!(!slab.fits(5, false) && slab.take(5, false).is_none());
        assert!(slab.fits(10, true), "the lowest always fits");
        slab.put(a);
        slab.put(b);
        assert_eq!(slab.free, vec![(10, 20)], "neighbours merge");
        slab.put((0, 10));
        assert_eq!((slab.held, slab.peak), (0, 26));
    }

    #[test]
    fn lanes_match_the_sweep_on_varied_trees() {
        // Denser stencils, several unknowns per node, random extra edges
        // and a KKT-like system give other tree shapes and block
        // structures.
        check_lanes(&grid3d(8, 7, 6, Stencil::Star27, 1, 21));
        check_lanes(&grid2d(30, 25, Stencil::Star9, 2, 22));
        check_lanes(&perturbed_grid3d(9, 8, 7, Stencil::Star7, 1, 0.05, 23));
        check_lanes(&kkt3d(6, 24));
    }

    #[test]
    fn more_lanes_than_pool_threads_never_deadlocks() {
        // Regression: with more lanes than the pool has AND supernodes big
        // enough that their kernels split across the pool, lanes that were
        // pool jobs could run a queued lane nested on a waiting kernel's
        // stack and deadlock. Lanes are scoped threads now; the grid is
        // sized so a panel kernel is above rlchol-dense's split cutoff
        // (2²² flops), and the test machine's pool typically has far fewer
        // lanes than the 8 requested here. In natural order, its
        // separators are whole planes.
        let a = grid3d(14, 14, 14, Stencil::Star7, 1, 7);
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        assert!(
            (0..sym.nsup()).any(|s| {
                let c = sym.sn_ncols(s);
                let r = sym.sn_nrows_below(s);
                flops_potrf(c).max(flops_trsm(r, c)) >= (1u64 << 22) as f64
            }),
            "test matrix must split a panel kernel across lanes"
        );
        for variant in [Variant::Rl, Variant::Rlb] {
            let sweep = at(&sym, &ap, variant, 1);
            assert_eq!(
                sweep.factor,
                at(&sym, &ap, variant, 8).factor,
                "{variant:?}"
            );
        }
    }

    /// The kernels' own accounting over a plain ascending sweep.
    fn accounted(sym: &SymbolicFactor, ap: &SymCsc, variant: Variant) -> Vec<TraceOp> {
        let mut data = FactorData::load(sym, ap);
        let (mut ops, mut l11, mut rel) = (Vec::new(), Vec::new(), Vec::new());
        let mut upd = vec![0.0; sym.max_update_matrix_entries()];
        for s in 0..sym.nsup() {
            panel_step(sym, s, &mut data.sn[s], &mut l11, |op| ops.push(*op)).unwrap();
            let r = sym.sn_nrows_below(s);
            match variant {
                Variant::Rl if r > 0 => {
                    rl_update_matrix(sym, s, &data.sn[s], &mut upd, |op| ops.push(*op));
                    let entries = assemble_update(sym, &mut data.sn, s, &upd, r, &mut rel);
                    ops.push(TraceOp::Assemble { entries });
                }
                Variant::Rl => {}
                Variant::Rlb => {
                    let (head, tail) = data.sn.split_at_mut(s + 1);
                    for run in rlb_target_runs(sym, s) {
                        let tarr = &mut tail[run.target - s - 1];
                        rlb_apply_run(sym, s, &head[s], tarr, &run, |op| ops.push(*op));
                    }
                }
            }
        }
        ops
    }

    #[test]
    fn trace_flops_match_serial() {
        // The trace is emitted from shapes; it must be the kernels' own
        // accounting op for op, at one lane and at three.
        let a = grid3d(6, 5, 7, Stencil::Star7, 1, 3);
        let (sym, ap) = prepared(&a);
        for variant in [Variant::Rl, Variant::Rlb] {
            let kernels = accounted(&sym, &ap, variant);
            assert_eq!(at(&sym, &ap, variant, 1).trace.ops, kernels, "{variant:?}");
            assert_eq!(at(&sym, &ap, variant, 3).trace.ops, kernels, "{variant:?}");
        }
    }

    #[test]
    fn held_update_matrices_stay_within_the_budget() {
        let a = grid3d(9, 8, 7, Stencil::Star7, 1, 5);
        let (sym, ap) = prepared(&a);
        let max = sym.max_update_matrix_entries() * std::mem::size_of::<f64>();
        assert_eq!(at(&sym, &ap, Variant::Rl, 1).peak_held_bytes, max);
        for lanes in [2, 4] {
            let peak = at(&sym, &ap, Variant::Rl, lanes).peak_held_bytes;
            assert!(
                peak >= max && peak <= lanes * max,
                "lanes={lanes}: {peak} > {lanes} × {max}"
            );
        }
        assert_eq!(at(&sym, &ap, Variant::Rlb, 2).peak_held_bytes, 0);
    }

    #[test]
    fn cancel_after_the_first_supernode_stops_every_lane() {
        let a = grid3d(7, 6, 5, Stencil::Star7, 1, 8);
        let (sym, ap) = prepared(&a);
        for variant in [Variant::Rl, Variant::Rlb] {
            for lanes in [1, 2] {
                let token = CancelToken::new();
                let mut ws = EngineWorkspace::default();
                ws.ctl = RunCtl::armed(Deadline::none(), token.clone());
                ws.cpu.cancel_after_factor = Some(token.clone());
                let err = execute(&sym, &ap, variant, &mut ws, lanes, false).unwrap_err();
                assert_eq!(err, FactorError::Cancelled, "{variant:?} lanes={lanes}");
                // Every lane came home: the workspace runs again.
                ws.cpu.cancel_after_factor = None;
                token.reset();
                assert!(execute(&sym, &ap, variant, &mut ws, lanes, false).is_ok());
            }
        }
    }

    #[test]
    fn lanes_bow_out_when_the_process_is_busy() {
        // With another factorization in flight, the spawned lanes leave
        // before their first unit and the caller's lane runs the tree.
        let (sym, ap) = prepared(&grid3d(8, 7, 6, Stencil::Star7, 1, 6));
        let busy = (InFlight::enter(), InFlight::enter());
        for variant in [Variant::Rl, Variant::Rlb] {
            let mut ws = EngineWorkspace::default();
            let tree = execute(&sym, &ap, variant, &mut ws, 4, true).unwrap();
            let units: Vec<usize> = ws.cpu.lanes.iter().map(|l| l.units).collect();
            assert_eq!(tree.lanes, 4);
            assert!(
                units[0] >= sym.nsup() && units[1..].iter().all(|&u| u == 0),
                "{variant:?}: units per lane {units:?}"
            );
            assert_eq!(tree.factor, at(&sym, &ap, variant, 1).factor);
        }
        drop(busy);
    }

    #[test]
    fn a_factorization_that_starts_beside_another_takes_one_lane() {
        let four = || EngineWorkspace::new(4, crate::GpuOptions::with_threshold(usize::MAX));
        // Above the flop cutoff: alone, it would run the tree.
        let (sym, ap) = prepared(&grid3d(16, 16, 16, Stencil::Star7, 1, 9));
        assert!(sym.flops >= TREE_FLOPS, "{} flops", sym.flops);
        let other = InFlight::enter();
        let run = factor_cpu_ws(&sym, &ap, Variant::Rl, &mut four()).unwrap();
        drop(other);
        assert_eq!(run.lanes, 1, "a second factorization runs the sweep");
        // Below the cutoff: the sweep, whatever else runs.
        let (small, sap) = prepared(&grid3d(8, 8, 8, Stencil::Star7, 1, 9));
        assert!(small.flops < TREE_FLOPS, "{} flops", small.flops);
        let run = factor_cpu_ws(&small, &sap, Variant::Rl, &mut four()).unwrap();
        assert_eq!(run.lanes, 1, "below the cutoff");
    }
}
