//! GPU-accelerated RL (§III), as a clock over shapes.
//!
//! Per supernode above the size threshold:
//!
//! 1. transfer the supernode to the device (its pending updates were
//!    already assembled into host storage by earlier supernodes);
//! 2. DPOTRF + DTRSM on the device;
//! 3. start the copy-back of the factored supernode **asynchronously** on
//!    a second stream — the host does not need it yet;
//! 4. one coarse DSYRK on the device forms the full update matrix;
//! 5. transfer the update matrix back and assemble it on the host
//!    (OpenMP-parallel in the paper), its simulated cost taken from the
//!    CPU model.
//!
//! Supernodes below the threshold run entirely on the CPU — the transfer
//! cost would exceed their compute time.
//!
//! [`simulate`] only prices these steps: device calls and host charges
//! follow from shapes, so the clock does not depend on the values. The
//! factor is RL's on the CPU tree executor (`sched::cpu`), the same bits
//! as `RlCpu`'s.
//!
//! Device memory: one panel buffer sized for the largest offloaded
//! supernode plus one update buffer sized for the largest update matrix.
//! When that allocation exceeds device capacity the method fails with
//! [`FactorError::GpuOutOfMemory`] — the nlpkkt120 row of Table I.

use rlchol_gpu::{Buffer, Event, Gpu, StreamId, StreamRole};
use rlchol_perfmodel::{CpuModel, TraceOp};
use rlchol_symbolic::SymbolicFactor;

use crate::engine::{GpuOptions, GpuRun, RetireMode, Variant};
use crate::error::FactorError;
use crate::registry::EngineWorkspace;
use crate::sched::cpu::update_ops;
use crate::storage::FactorData;

/// Decides which supernodes are offloaded under the threshold rule.
pub fn offload_set(sym: &SymbolicFactor, threshold: usize) -> Vec<bool> {
    (0..sym.nsup())
        .map(|s| sym.sn_size(s) >= threshold.max(1))
        .collect()
}

/// The largest `f(s)` over the offloaded supernodes `s` (0 when none
/// is): what device working storage is sized by.
pub(crate) fn max_offloaded(on_gpu: &[bool], f: impl Fn(usize) -> usize) -> usize {
    let offloaded = (0..on_gpu.len()).filter(|&s| on_gpu[s]);
    offloaded.map(f).max().unwrap_or(0)
}

/// A fresh device under `opts` with one compute and one copy stream: what
/// the single-stream methods run on.
pub(crate) fn single_stream_device(opts: &GpuOptions) -> (Gpu, StreamId, StreamId) {
    let gpu = opts.device();
    gpu.set_blocking(!opts.overlap);
    let compute = gpu.default_stream();
    let copy = gpu.create_stream();
    gpu.set_stream_role(compute, StreamRole::Compute);
    gpu.set_stream_role(copy, StreamRole::Copy);
    (gpu, compute, copy)
}

/// Simulates GPU-accelerated RL over `data`'s supernodes under `opts`:
/// the device's clock and counters, with no numerics. Fails typed on a
/// device fault, an out-of-memory or a simulated deadline.
pub(crate) fn simulate(
    sym: &SymbolicFactor,
    data: &FactorData,
    opts: &GpuOptions,
    ws: &EngineWorkspace,
) -> Result<GpuRun, FactorError> {
    let (gpu, compute, copy) = single_stream_device(opts);
    let cpu = opts.machine.cpu;
    let on_gpu = offload_set(sym, opts.threshold);

    // Preallocated device working storage (paper §II-A / §III): the
    // largest offloaded panel and the largest update matrix.
    let max_panel = max_offloaded(&on_gpu, |s| sym.sn_size(s));
    let max_upd = max_offloaded(&on_gpu, |s| sym.update_matrix_entries(s));
    let panel_buf = gpu.alloc(max_panel)?;
    let upd_buf = gpu.alloc(max_upd)?;
    // The previous panel copy-back must finish before the panel buffer is
    // reused by the next supernode's H2D.
    let mut prev_copyback = None;

    for s in 0..sym.nsup() {
        // Deadline/cancel checkpoint: a stalled stream inflates the
        // simulated clock, so a sim budget aborts here instead of
        // grinding through the remaining supernodes.
        ws.ctl.check_sim(gpu.elapsed())?;
        if !on_gpu[s] {
            host_node(&gpu, &cpu, sym, s, Variant::Rl);
            continue;
        }

        // --- GPU path ---
        let (c, r, len) = (sym.sn_ncols(s), sym.sn_nrows_below(s), sym.sn_len(s));
        let gate = prev_copyback.take();
        let arr = data.sn(sym, s);
        prev_copyback = Some(device_panel(
            &gpu, sym, s, compute, copy, panel_buf, gate, arr,
        )?);
        if r > 0 {
            // The coarse-grain DSYRK forming the whole update matrix.
            gpu.syrk(compute, panel_buf, c, len, r, c, upd_buf, 0, r)?;
            gpu.memcpy_d2h(compute, upd_buf, 0, r * r)?;
            // The host needs the update matrix now.
            gpu.sync_stream(compute);
            host_assembly(&gpu, &cpu, r * (r + 1) / 2);
        }
    }
    gpu.synchronize();
    Ok(GpuRun {
        offloaded: on_gpu,
        strip_rows: usize::MAX,
        sim_seconds: gpu.elapsed(),
        stats: gpu.stats(),
        streams_used: 1,
        retire: RetireMode::InOrder,
        lookahead: 0,
        transfers_saved: 0,
    })
}

/// The device panel phase of supernode `s`, shared by every GPU method:
/// the compute stream waits on `gate` (the panel buffer's previous
/// occupant), then H2D of the panel `arr`, device POTRF + TRSM, and the
/// copy-back on the `copy` stream — asynchronous, since the host does not
/// need the factored panel yet (§III). Returns the copy-back's
/// completion event.
#[allow(clippy::too_many_arguments)]
pub(crate) fn device_panel(
    gpu: &Gpu,
    sym: &SymbolicFactor,
    s: usize,
    compute: StreamId,
    copy: StreamId,
    panel_buf: Buffer,
    gate: Option<Event>,
    arr: &[f64],
) -> Result<Event, FactorError> {
    let (c, r, len) = (sym.sn_ncols(s), sym.sn_nrows_below(s), sym.sn_len(s));
    if let Some(ev) = gate {
        gpu.stream_wait_event(compute, ev);
    }
    gpu.memcpy_h2d(compute, panel_buf, 0, arr)?;
    gpu.potrf(compute, panel_buf, 0, c, len)?;
    gpu.trsm_panel(compute, panel_buf, 0, len, c, r)?;
    let factored = gpu.record_event(compute);
    gpu.stream_wait_event(copy, factored);
    gpu.memcpy_d2h(copy, panel_buf, 0, arr.len())?;
    Ok(gpu.record_event(copy))
}

/// Charges the host's scatter of `entries` landed update entries.
pub(crate) fn host_assembly(gpu: &Gpu, cpu: &CpuModel, entries: usize) {
    gpu.host_compute(cpu.op_time(&TraceOp::Assemble { entries }));
}

/// Charges the panel step of a below-threshold supernode to the host
/// clock: its POTRF and TRSM as one interval. The TRSM's call overhead is
/// charged even when no rows lie below.
pub(crate) fn host_panel(gpu: &Gpu, cpu: &CpuModel, sym: &SymbolicFactor, s: usize) {
    let (c, r) = (sym.sn_ncols(s), sym.sn_nrows_below(s));
    let potrf = cpu.op_time(&TraceOp::Potrf { n: c });
    gpu.host_compute(potrf + cpu.op_time(&TraceOp::Trsm { m: r, n: c }));
}

/// Charges below-threshold supernode `s`, which runs entirely on the
/// host — the transfers would cost more than its kernels — to the host
/// clock: the panel step ([`host_panel`]), then RL's update matrix and
/// its scatter, charged separately, or RLB's direct update, charged once
/// as the sum over its kernels in sweep order ([`update_ops`]).
pub(crate) fn host_node(
    gpu: &Gpu,
    cpu: &CpuModel,
    sym: &SymbolicFactor,
    s: usize,
    variant: Variant,
) {
    host_panel(gpu, cpu, sym, s);
    match variant {
        Variant::Rl => update_ops(sym, s, variant, |op| gpu.host_compute(cpu.op_time(op))),
        Variant::Rlb => {
            let mut seconds = 0.0;
            update_ops(sym, s, variant, |op| seconds += cpu.op_time(op));
            gpu.host_compute(seconds);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fresh::{factor_rl_cpu, factor_rl_gpu};
    use rlchol_matgen::{laplace2d, laplace3d};
    use rlchol_perfmodel::MachineModel;
    use rlchol_symbolic::{analyze, SymbolicOptions};

    fn setup(a: &rlchol_sparse::SymCsc) -> (SymbolicFactor, rlchol_sparse::SymCsc) {
        let sym = analyze(a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        (sym, ap)
    }

    #[test]
    fn gpu_factor_matches_cpu_factor() {
        let a = laplace3d(6, 21);
        let (sym, ap) = setup(&a);
        let cpu = factor_rl_cpu(&sym, &ap).unwrap();
        for threshold in [0, 500, usize::MAX] {
            let opts = GpuOptions::with_threshold(threshold);
            let run = factor_rl_gpu(&sym, &ap, &opts).unwrap();
            let diff = cpu.factor.max_rel_diff(&run.factor);
            assert!(diff < 1e-12, "threshold {threshold}: diff {diff}");
        }
    }

    #[test]
    fn threshold_controls_offload_count() {
        let a = laplace3d(6, 22);
        let (sym, ap) = setup(&a);
        let all = factor_rl_gpu(&sym, &ap, &GpuOptions::with_threshold(0)).unwrap();
        assert_eq!(all.info.sn_on_gpu, sym.nsup());
        let none = factor_rl_gpu(&sym, &ap, &GpuOptions::with_threshold(usize::MAX)).unwrap();
        assert_eq!(none.info.sn_on_gpu, 0);
        // A threshold strictly between the smallest and largest supernode
        // size must split the set.
        let sizes: Vec<usize> = (0..sym.nsup()).map(|s| sym.sn_size(s)).collect();
        let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(lo < hi, "test matrix must have varied supernode sizes");
        let some = factor_rl_gpu(&sym, &ap, &GpuOptions::with_threshold(hi)).unwrap();
        assert!(some.info.sn_on_gpu > 0 && some.info.sn_on_gpu < sym.nsup());
    }

    #[test]
    fn hybrid_beats_gpu_only_on_small_matrices() {
        // A small matrix: pure GPU pays transfers for tiny supernodes;
        // the hybrid keeps them on CPU and must be faster (the paper's
        // motivation for the threshold, §III).
        let a = laplace2d(16, 23);
        let (sym, ap) = setup(&a);
        let gpu_only = factor_rl_gpu(&sym, &ap, &GpuOptions::with_threshold(0)).unwrap();
        let hybrid = factor_rl_gpu(&sym, &ap, &GpuOptions::with_threshold(2_000)).unwrap();
        assert!(
            hybrid.info.sim_seconds.unwrap() < gpu_only.info.sim_seconds.unwrap(),
            "hybrid {} vs gpu-only {}",
            hybrid.info.sim_seconds.unwrap(),
            gpu_only.info.sim_seconds.unwrap()
        );
    }

    #[test]
    fn oom_when_update_matrix_exceeds_capacity() {
        let a = laplace3d(6, 24);
        let (sym, ap) = setup(&a);
        let mut opts = GpuOptions::with_threshold(0);
        // Capacity below the largest update matrix.
        let need = (sym.max_update_matrix_entries() * 8) as u64;
        opts.machine = MachineModel::perlmutter(16).with_gpu_capacity(need / 2);
        assert!(matches!(
            factor_rl_gpu(&sym, &ap, &opts),
            Err(FactorError::GpuOutOfMemory { .. })
        ));
    }

    #[test]
    fn overlap_helps_or_ties() {
        let a = laplace3d(7, 25);
        let (sym, ap) = setup(&a);
        let mut with = GpuOptions::with_threshold(0);
        with.overlap = true;
        let mut without = with.clone();
        without.overlap = false;
        let sim = |opts| {
            factor_rl_gpu(&sym, &ap, opts)
                .unwrap()
                .info
                .sim_seconds
                .unwrap()
        };
        let (t_with, t_without) = (sim(&with), sim(&without));
        assert!(t_with <= t_without + 1e-12);
    }
}
