//! GPU-accelerated RL (§III).
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
//!    (OpenMP-parallel in the paper; here the scatter fans out across
//!    `rlchol_dense::pool`, one job per target, with the simulated cost
//!    still taken from the CPU model).
//!
//! Supernodes below the threshold run entirely on the CPU — the transfer
//! cost would exceed their compute time.
//!
//! Device memory: one panel buffer sized for the largest offloaded
//! supernode plus one update buffer sized for the largest update matrix.
//! When that allocation exceeds device capacity the engine fails with
//! [`FactorError::GpuOutOfMemory`] — the nlpkkt120 row of Table I.

use std::time::Instant;

use rlchol_dense::pool;
use rlchol_gpu::{Buffer, Event, Gpu, GpuError, StreamId};
use rlchol_perfmodel::{CpuModel, TraceOp};
use rlchol_sparse::SymCsc;
use rlchol_symbolic::SymbolicFactor;

use crate::assemble::assemble_update_pool;
use crate::engine::{panel_step, GpuOptions, GpuRun, Variant};
use crate::error::FactorError;
use crate::registry::EngineWorkspace;
use crate::rl::rl_update_matrix;
use crate::rlb::rlb_update_pool;

/// Decides which supernodes are offloaded under the threshold rule.
pub fn offload_set(sym: &SymbolicFactor, threshold: usize) -> Vec<bool> {
    (0..sym.nsup())
        .map(|s| sym.sn_size(s) >= threshold.max(1))
        .collect()
}

/// Factors `a` (permuted into factor order) with GPU-accelerated RL,
/// drawing factor storage from `ws` (recycled storage is reused, no
/// reallocation).
pub(crate) fn factor_rl_gpu_ws(
    sym: &SymbolicFactor,
    a: &SymCsc,
    opts: &GpuOptions,
    ws: &mut EngineWorkspace,
) -> Result<GpuRun, FactorError> {
    let t0 = Instant::now();
    let ctl = ws.ctl.clone();
    let mut data = ws.take_factor(sym, a);
    let gpu = opts.device();
    gpu.set_blocking(!opts.overlap);
    let compute = gpu.default_stream();
    let copy = gpu.create_stream();
    gpu.set_stream_role(compute, rlchol_gpu::StreamRole::Compute);
    gpu.set_stream_role(copy, rlchol_gpu::StreamRole::Copy);
    let cpu = opts.machine.cpu;

    let on_gpu = offload_set(sym, opts.threshold);
    let sn_on_gpu = on_gpu.iter().filter(|&&b| b).count();

    // Preallocated device working storage (paper §II-A / §III): the
    // largest offloaded panel and the largest update matrix.
    let max_panel = (0..sym.nsup())
        .filter(|&s| on_gpu[s])
        .map(|s| sym.sn_storage(s))
        .max()
        .unwrap_or(0);
    let max_upd = (0..sym.nsup())
        .filter(|&s| on_gpu[s])
        .map(|s| sym.update_matrix_entries(s))
        .max()
        .unwrap_or(0);
    let panel_buf = gpu.alloc(max_panel)?;
    let upd_buf = gpu.alloc(max_upd)?;
    let mut host_upd = vec![0.0f64; max_upd];
    let mut l11 = Vec::new();
    // The previous panel copy-back must finish before the panel buffer is
    // reused by the next supernode's H2D.
    let mut prev_copyback = None;

    for s in 0..sym.nsup() {
        // Deadline/cancel checkpoint: a stalled stream inflates the
        // simulated clock, so a sim budget aborts here instead of
        // grinding through the remaining supernodes.
        ctl.check_sim(gpu.elapsed())?;
        if !on_gpu[s] {
            host_node(
                &gpu,
                &cpu,
                sym,
                &mut data.sn,
                s,
                Variant::Rl,
                &mut l11,
                &mut host_upd,
            )?;
            continue;
        }

        // --- GPU path ---
        let (c, r, len) = (sym.sn_ncols(s), sym.sn_nrows_below(s), sym.sn_len(s));
        let gate = prev_copyback.take();
        prev_copyback = Some(device_panel(
            &gpu,
            sym,
            s,
            compute,
            copy,
            panel_buf,
            gate,
            &mut data.sn[s],
        )?);
        if r > 0 {
            // The coarse-grain DSYRK forming the whole update matrix.
            gpu.syrk(compute, panel_buf, c, len, r, c, 1.0, 0.0, upd_buf, 0, r)?;
            gpu.memcpy_d2h(compute, upd_buf, 0, &mut host_upd[..r * r])?;
            // The host needs the update matrix now.
            gpu.sync_stream(compute);
            let upd = &host_upd[..r * r];
            let entries = assemble_update_pool(pool::global(), sym, &mut data.sn, s, upd, r);
            gpu.host_compute(cpu.op_time(&TraceOp::Assemble { entries }));
        }
    }
    gpu.synchronize();
    Ok(GpuRun {
        factor: data,
        sim_seconds: gpu.elapsed(),
        stats: gpu.stats(),
        sn_on_gpu,
        streams_used: 1,
        retire: crate::engine::RetireMode::InOrder,
        lookahead: 0,
        transfers_saved: 0,
        wall: t0.elapsed(),
    })
}

/// The device panel phase of supernode `s`, shared by every GPU engine:
/// the compute stream waits on `gate` (the panel buffer's previous
/// occupant), then H2D of the panel `arr`, device POTRF + TRSM, and the
/// copy-back on the `copy` stream — asynchronous, since the host does not
/// need the factored panel yet (§III). Returns the copy-back's
/// completion event. A nonpositive pivot becomes
/// [`FactorError::NotPositiveDefinite`] at its global column, as on the
/// host.
#[allow(clippy::too_many_arguments)]
pub(crate) fn device_panel(
    gpu: &Gpu,
    sym: &SymbolicFactor,
    s: usize,
    compute: StreamId,
    copy: StreamId,
    panel_buf: Buffer,
    gate: Option<Event>,
    arr: &mut [f64],
) -> Result<Event, FactorError> {
    let (c, r, len) = (sym.sn_ncols(s), sym.sn_nrows_below(s), sym.sn_len(s));
    if let Some(ev) = gate {
        gpu.stream_wait_event(compute, ev);
    }
    gpu.memcpy_h2d(compute, panel_buf, 0, arr)?;
    gpu.potrf(compute, panel_buf, 0, c, len)
        .map_err(|e| match e {
            GpuError::Numerical { pivot } => FactorError::NotPositiveDefinite {
                column: sym.sn.first_col(s) + pivot,
            },
            other => other.into(),
        })?;
    gpu.trsm_panel(compute, panel_buf, 0, len, c, r)?;
    let factored = gpu.record_event(compute);
    gpu.stream_wait_event(copy, factored);
    gpu.memcpy_d2h(copy, panel_buf, 0, arr)?;
    Ok(gpu.record_event(copy))
}

/// The panel step of a below-threshold supernode on the simulated host:
/// real numerics, with the POTRF and TRSM model times charged to the
/// host clock as one interval. The TRSM's call overhead is charged even
/// when no rows lie below (and [`panel_step`] reports no TRSM).
pub(crate) fn host_panel(
    gpu: &Gpu,
    cpu: &CpuModel,
    sym: &SymbolicFactor,
    s: usize,
    arr: &mut [f64],
    l11: &mut Vec<f64>,
) -> Result<(), FactorError> {
    let mut seconds = 0.0;
    panel_step(sym, s, arr, l11, |op| seconds += cpu.op_time(op))?;
    if sym.sn_nrows_below(s) == 0 {
        seconds += cpu.op_time(&TraceOp::Trsm {
            m: 0,
            n: sym.sn_ncols(s),
        });
    }
    gpu.host_compute(seconds);
    Ok(())
}

/// Runs below-threshold supernode `s` entirely on the simulated host —
/// the transfers would cost more than its kernels — with real numerics
/// and model time charged to the host clock: the panel step
/// ([`host_panel`]), then RL's update matrix (`upd` is its workspace) and
/// its scatter, charged separately, or RLB's direct update, charged once
/// as the sum over its kernels in sweep order. The scatter and the direct
/// update fan out over the global pool, one job per target.
#[allow(clippy::too_many_arguments)]
pub(crate) fn host_node(
    gpu: &Gpu,
    cpu: &CpuModel,
    sym: &SymbolicFactor,
    data: &mut [Vec<f64>],
    s: usize,
    variant: Variant,
    l11: &mut Vec<f64>,
    upd: &mut Vec<f64>,
) -> Result<(), FactorError> {
    host_panel(gpu, cpu, sym, s, &mut data[s], l11)?;
    let r = sym.sn_nrows_below(s);
    if r == 0 {
        return Ok(());
    }
    match variant {
        Variant::Rl => {
            if upd.len() < r * r {
                upd.resize(r * r, 0.0);
            }
            let upd = rl_update_matrix(sym, s, &data[s], upd, |op| {
                gpu.host_compute(cpu.op_time(op))
            });
            let entries = assemble_update_pool(pool::global(), sym, data, s, upd, r);
            gpu.host_compute(cpu.op_time(&TraceOp::Assemble { entries }));
        }
        Variant::Rlb => {
            let mut seconds = 0.0;
            rlb_update_pool(pool::global(), sym, data, s, |op| {
                seconds += cpu.op_time(op)
            });
            gpu.host_compute(seconds);
        }
    }
    Ok(())
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
        assert_eq!(all.sn_on_gpu, sym.nsup());
        let none = factor_rl_gpu(&sym, &ap, &GpuOptions::with_threshold(usize::MAX)).unwrap();
        assert_eq!(none.sn_on_gpu, 0);
        // A threshold strictly between the smallest and largest supernode
        // size must split the set.
        let sizes: Vec<usize> = (0..sym.nsup()).map(|s| sym.sn_size(s)).collect();
        let (lo, hi) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
        assert!(lo < hi, "test matrix must have varied supernode sizes");
        let some = factor_rl_gpu(&sym, &ap, &GpuOptions::with_threshold(hi)).unwrap();
        assert!(some.sn_on_gpu > 0 && some.sn_on_gpu < sym.nsup());
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
            hybrid.sim_seconds < gpu_only.sim_seconds,
            "hybrid {} vs gpu-only {}",
            hybrid.sim_seconds,
            gpu_only.sim_seconds
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
        let t_with = factor_rl_gpu(&sym, &ap, &with).unwrap().sim_seconds;
        let t_without = factor_rl_gpu(&sym, &ap, &without).unwrap().sim_seconds;
        assert!(t_with <= t_without + 1e-12);
    }
}
