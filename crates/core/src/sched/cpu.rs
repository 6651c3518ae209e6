//! The task-parallel CPU executor over the frontier driver.
//!
//! * **Ready queue.** Seeded with the forest's leaves from the
//!   [`Frontier`]. A fixed team of scheduler workers (running as jobs on
//!   the persistent [`rlchol_dense::pool`]) pops supernodes, factors the
//!   panel, applies the fan-out updates guarded by a per-supernode lock
//!   on the target's storage, and releases the targets through the
//!   frontier — pushing any that become ready.
//! * **Two-level parallelism.** Inside a task, BLAS calls are the plain
//!   `rlchol_dense` kernels, which split any large call across the same
//!   pool themselves (one split at a time; a concurrent one runs on its
//!   caller). Idle scheduler workers help with the running split instead
//!   of sleeping, so near the root, where one wide supernode is the only
//!   ready task, its kernels still use every lane.
//! * **Error propagation.** A non-positive-definite pivot stops the
//!   scheduler: the failing worker records the error and raises the stop
//!   flag; everyone drains and the first error is returned. No task is
//!   left blocked — waits are bounded and re-check the flag.
//!
//! Floating-point note: updates into a target may apply in any order, so
//! parallel factors differ from serial ones by roundoff (≈1e-15
//! relative); tests compare at 1e-11. (The pipelined GPU executor makes
//! the opposite trade — every target's updates apply in ascending
//! source order, under either retirement discipline, for bit-exactness;
//! see [`super::gpu`].)

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use rlchol_dense::pool;
use rlchol_perfmodel::{Trace, TraceOp};
use rlchol_sparse::SymCsc;
use rlchol_symbolic::SymbolicFactor;

use crate::assemble::{scatter_segment, segments};
use crate::engine::{panel_step, CpuRun, Variant};
use crate::error::FactorError;
use crate::registry::EngineWorkspace;
use crate::rl::rl_update_matrix;
use crate::rlb::{rlb_apply_run, rlb_target_runs};
use crate::storage::FactorData;

use super::driver::Frontier;

/// Task-parallel RL factorization with `threads` lanes, drawing factor
/// storage from `ws`. `threads <= 1` runs the serial engine.
pub(crate) fn factor_rl_cpu_par_ws(
    sym: &SymbolicFactor,
    a: &SymCsc,
    threads: usize,
    ws: &mut EngineWorkspace,
) -> Result<CpuRun, FactorError> {
    if threads <= 1 || sym.nsup() <= 1 {
        return crate::rl::factor_rl_cpu_ws(sym, a, ws);
    }
    run_scheduler(sym, a, threads, Variant::Rl, ws)
}

/// Task-parallel RLB factorization with `threads` lanes, drawing factor
/// storage from `ws`. `threads <= 1` runs the serial engine.
pub(crate) fn factor_rlb_cpu_par_ws(
    sym: &SymbolicFactor,
    a: &SymCsc,
    threads: usize,
    ws: &mut EngineWorkspace,
) -> Result<CpuRun, FactorError> {
    if threads <= 1 || sym.nsup() <= 1 {
        return crate::rlb::factor_rlb_cpu_ws(sym, a, ws);
    }
    run_scheduler(sym, a, threads, Variant::Rlb, ws)
}

/// Ready queue and termination state, guarded by one mutex.
struct Ctrl {
    ready: std::collections::VecDeque<usize>,
    /// Supernodes fully processed (factored + updates applied).
    done: usize,
    /// Raised on completion or error; workers exit when they see it.
    stop: bool,
}

struct Shared<'a> {
    sym: &'a SymbolicFactor,
    /// Per-supernode storage, each behind its own lock. A supernode is
    /// written by its updaters (serialized by the lock) and then by its
    /// own factor task (exclusive by scheduling: its count is zero and
    /// nothing reads it until it finishes).
    sn: Vec<Mutex<Vec<f64>>>,
    /// Remaining-updater counts (the engine-agnostic frontier driver).
    frontier: Frontier,
    ctrl: Mutex<Ctrl>,
    wake: Condvar,
    variant: Variant,
    /// Deadline/cancel control, checked once per popped supernode (the
    /// workers' natural checkpoint granularity).
    ctl: crate::resilience::RunCtl,
    error: Mutex<Option<FactorError>>,
    /// Payload of the first task panic; re-raised by the driver so a
    /// panicking parallel factorization behaves like the serial one.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    trace: Mutex<Trace>,
}

impl Shared<'_> {
    /// Marks one supernode fully processed; raises stop on the last.
    fn complete_one(&self) {
        let mut ctrl = self.ctrl.lock().unwrap();
        ctrl.done += 1;
        if ctrl.done == self.sym.nsup() {
            ctrl.stop = true;
            self.wake.notify_all();
        }
    }

    /// Records `err` (first wins) and stops the scheduler.
    fn fail(&self, err: FactorError) {
        let mut e = self.error.lock().unwrap();
        if e.is_none() {
            *e = Some(err);
        }
        drop(e);
        let mut ctrl = self.ctrl.lock().unwrap();
        ctrl.stop = true;
        self.wake.notify_all();
    }

    /// Records a task panic (first wins) and stops the scheduler.
    fn fail_panic(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut p = self.panic.lock().unwrap();
        if p.is_none() {
            *p = Some(payload);
        }
        drop(p);
        let mut ctrl = self.ctrl.lock().unwrap();
        ctrl.stop = true;
        self.wake.notify_all();
    }

    /// Releases `p` through the frontier; queues it when it became ready.
    fn release_target(&self, p: usize) {
        if self.frontier.release(p) {
            let mut ctrl = self.ctrl.lock().unwrap();
            ctrl.ready.push_back(p);
            drop(ctrl);
            self.wake.notify_one();
        }
    }
}

fn run_scheduler(
    sym: &SymbolicFactor,
    a: &SymCsc,
    threads: usize,
    variant: Variant,
    ws: &mut EngineWorkspace,
) -> Result<CpuRun, FactorError> {
    let t0 = Instant::now();
    let nsup = sym.nsup();
    // The recycled per-supernode buffers move into the mutexes and back
    // out at the end — reused, never reallocated.
    let data = ws.take_factor(sym, a);

    let frontier = Frontier::new(sym);
    let mut ready: std::collections::VecDeque<usize> = frontier.initial_ready().into();
    debug_assert!(!ready.is_empty(), "a forest always has leaves");
    // Factor large leaves first: they unlock deeper chains sooner and
    // keep the team busy while small leaves fill the gaps.
    ready
        .make_contiguous()
        .sort_by_key(|&s| std::cmp::Reverse(sym.sn_size(s)));

    let shared = Shared {
        sym,
        sn: data.sn.into_iter().map(Mutex::new).collect(),
        frontier,
        ctrl: Mutex::new(Ctrl {
            ready,
            done: 0,
            stop: false,
        }),
        wake: Condvar::new(),
        variant,
        ctl: ws.ctl.clone(),
        error: Mutex::new(None),
        panic: Mutex::new(None),
        trace: Mutex::new(Trace::new()),
    };

    // One scheduler worker per lane, on dedicated scoped threads (one
    // spawn per *factorization*, not per BLAS call — the pool still
    // carries the kernels' lane splits). Scheduler workers must NOT run as
    // pool jobs: a task that waits for pool work while holding a
    // target lock would then execute a queued scheduler worker nested on
    // its stack, which can try to take the same lock — a same-thread
    // deadlock. Keeping the pool's work down to non-blocking kernel parts
    // makes every nested "help while waiting" execution safe.
    let team = threads.min(nsup).max(1);
    std::thread::scope(|scope| {
        for _ in 1..team {
            scope.spawn(|| worker(&shared));
        }
        worker(&shared);
    });

    if let Some(payload) = shared.panic.lock().unwrap().take() {
        // A task panicked (BLAS kernel, debug assertion, ...): re-raise
        // on the driver, exactly as the serial engines would.
        std::panic::resume_unwind(payload);
    }
    if let Some(err) = shared.error.lock().unwrap().take() {
        return Err(err);
    }
    debug_assert_eq!(shared.ctrl.lock().unwrap().done, nsup);
    let factor = FactorData {
        sn: shared
            .sn
            .into_iter()
            .map(|m| m.into_inner().unwrap())
            .collect(),
    };
    Ok(CpuRun {
        factor,
        trace: shared.trace.into_inner().unwrap(),
        wall: t0.elapsed(),
    })
}

/// Scheduler worker loop: pop ready supernodes and process them; while
/// idle, help with pending pool work (a busy teammate's kernel split).
fn worker(shared: &Shared<'_>) {
    loop {
        let s = {
            let mut ctrl = shared.ctrl.lock().unwrap();
            // Escalating idle wait: stay responsive right after running
            // dry, but back off toward 2 ms on long-idle lanes (e.g. a
            // path-shaped tree where one lane works for all) so idle
            // polling stops contending the queue mutexes.
            let mut idle_wait = Duration::from_micros(100);
            loop {
                if ctrl.stop {
                    return;
                }
                if let Some(s) = ctrl.ready.pop_front() {
                    break s;
                }
                drop(ctrl);
                if !pool::global().try_run_one() {
                    // Nothing to help with: sleep briefly, re-check. The
                    // bounded wait guarantees stop/error always terminate
                    // the loop.
                    let guard = shared.ctrl.lock().unwrap();
                    let (guard, _) = shared.wake.wait_timeout(guard, idle_wait).unwrap();
                    ctrl = guard;
                    idle_wait = (idle_wait * 2).min(Duration::from_millis(2));
                } else {
                    ctrl = shared.ctrl.lock().unwrap();
                    idle_wait = Duration::from_micros(100);
                }
            }
        };
        // Deadline/cancel checkpoint before committing to the task: a
        // tripped control stops the whole scheduler (first error wins)
        // instead of letting the sweep run to completion.
        if let Err(err) = shared.ctl.check() {
            shared.fail(err);
            return;
        }
        // A panicking task must still stop the scheduler: letting it
        // unwind freely would leave `stop` unset and every other worker
        // (and the scope join) waiting forever.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process_supernode(shared, s)
        }));
        match result {
            Ok(Ok(())) => shared.complete_one(),
            Ok(Err(err)) => {
                shared.fail(err);
                return;
            }
            Err(payload) => {
                shared.fail_panic(payload);
                return;
            }
        }
    }
}

std::thread_local! {
    /// Per-thread scratch reused across tasks: the `l11` triangle copy
    /// for the panel TRSM and (RL only) the dense update matrix.
    static SCRATCH: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Factors supernode `s` and applies its fan-out updates.
fn process_supernode(shared: &Shared<'_>, s: usize) -> Result<(), FactorError> {
    let sym = shared.sym;
    let mut ops: Vec<TraceOp> = Vec::new();

    // The factor task holds `s`'s lock for its whole duration: all
    // updaters have finished (deps reached zero) and no other task reads
    // `s` before it completes, so there is no contention — the lock is
    // the happens-before edge collecting the updaters' writes.
    let mut src = shared.sn[s].lock().unwrap();
    SCRATCH.with(|cell| -> Result<(), FactorError> {
        let (l11, upd) = &mut *cell.borrow_mut();
        panel_step(sym, s, &mut src, l11, |op| ops.push(*op))?;
        if sym.sn_nrows_below(s) == 0 {
            return Ok(());
        }
        match shared.variant {
            Variant::Rl => apply_updates_rl(shared, s, &src, upd, &mut ops),
            Variant::Rlb => apply_updates_rlb(shared, s, &src, &mut ops),
        }
        Ok(())
    })?;
    drop(src);
    shared.trace.lock().unwrap().ops.append(&mut ops);
    Ok(())
}

/// RL fan-out: one coarse SYRK into the per-thread update workspace, then
/// scatter each target segment under that target's lock.
fn apply_updates_rl(
    shared: &Shared<'_>,
    s: usize,
    src: &[f64],
    upd: &mut Vec<f64>,
    ops: &mut Vec<TraceOp>,
) {
    let sym = shared.sym;
    let r = sym.sn_nrows_below(s);
    let upd = rl_update_matrix(sym, s, src, upd, |op| ops.push(*op));
    let rows = &sym.rows[s];
    let mut entries = 0usize;
    for seg in segments(sym, s) {
        let mut target = shared.sn[seg.target].lock().unwrap();
        entries += scatter_segment(sym, &mut target, seg, rows, upd, r);
        drop(target);
        shared.release_target(seg.target);
    }
    ops.push(TraceOp::Assemble { entries });
}

/// RLB fan-out: each target run's direct update ([`rlb_apply_run`])
/// under that target's lock — one lock acquisition per run — releasing
/// the target once its run completes.
fn apply_updates_rlb(shared: &Shared<'_>, s: usize, src: &[f64], ops: &mut Vec<TraceOp>) {
    let sym = shared.sym;
    for run in rlb_target_runs(sym, s) {
        let mut parr = shared.sn[run.target].lock().unwrap();
        rlb_apply_run(sym, s, src, &mut parr, &run, |op| ops.push(*op));
        drop(parr);
        shared.release_target(run.target);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fresh::{factor_rl_cpu, factor_rl_cpu_par, factor_rlb_cpu, factor_rlb_cpu_par};
    use rlchol_dense::{flops_potrf, flops_trsm};
    use rlchol_matgen::{grid3d, laplace2d, Stencil};
    use rlchol_symbolic::{analyze, SymbolicOptions};

    fn prepared(a: &SymCsc) -> (SymbolicFactor, SymCsc) {
        let sym = analyze(a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        (sym, ap)
    }

    #[test]
    fn parallel_rlb_matches_serial_2d() {
        let a = laplace2d(24, 5);
        let (sym, ap) = prepared(&a);
        let serial = factor_rlb_cpu(&sym, &ap).unwrap();
        for threads in [1, 2, 4, 8] {
            let par = factor_rlb_cpu_par(&sym, &ap, threads).unwrap();
            let d = serial.factor.max_rel_diff(&par.factor);
            assert!(d < 1e-11, "threads={threads}: diff {d}");
        }
    }

    #[test]
    fn parallel_rl_matches_serial_3d() {
        let a = grid3d(7, 7, 7, Stencil::Star7, 1, 3);
        let (sym, ap) = prepared(&a);
        let serial = factor_rl_cpu(&sym, &ap).unwrap();
        for threads in [2, 4, 8] {
            let par = factor_rl_cpu_par(&sym, &ap, threads).unwrap();
            let d = serial.factor.max_rel_diff(&par.factor);
            assert!(d < 1e-11, "threads={threads}: diff {d}");
        }
    }

    #[test]
    fn more_lanes_than_pool_threads_never_deadlocks() {
        // Regression: with a scheduler team larger than the pool's lane
        // count AND supernodes big enough that their kernels split across
        // the pool, scheduler workers used to be pool jobs — a task
        // waiting on its kernel's parts while holding a target lock could
        // execute a queued scheduler worker nested on its own stack and
        // self-deadlock. The grid is sized so a panel kernel is above
        // rlchol-dense's split cutoff (2²² flops); the test machine's
        // pool typically has far fewer lanes than the 8 requested here.
        let a = grid3d(14, 14, 14, Stencil::Star7, 1, 7);
        let (sym, ap) = prepared(&a);
        assert!(
            (0..sym.nsup()).any(|s| {
                let c = sym.sn_ncols(s);
                let r = sym.sn_nrows_below(s);
                flops_potrf(c).max(flops_trsm(r, c)) >= (1u64 << 22) as f64
            }),
            "test matrix must split a panel kernel across lanes"
        );
        let serial = factor_rlb_cpu(&sym, &ap).unwrap();
        let par = factor_rlb_cpu_par(&sym, &ap, 8).unwrap();
        let d = serial.factor.max_rel_diff(&par.factor);
        assert!(d < 1e-11, "diff {d}");
    }

    #[test]
    fn trace_flops_match_serial() {
        // The parallel trace holds the same multiset of BLAS calls (order
        // aside) as the serial engine's.
        let a = laplace2d(16, 3);
        let (sym, ap) = prepared(&a);
        let serial = factor_rlb_cpu(&sym, &ap).unwrap();
        let par = factor_rlb_cpu_par(&sym, &ap, 4).unwrap();
        assert_eq!(serial.trace.blas_calls(), par.trace.blas_calls());
    }
}
