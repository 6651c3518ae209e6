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

use rlchol_dense::syrk_ln;
use rlchol_perfmodel::TraceOp;
use rlchol_sparse::SymCsc;
use rlchol_symbolic::SymbolicFactor;

use crate::assemble::assemble_update_pool;
use crate::engine::{factor_panel, GpuOptions, GpuRun};
use crate::error::FactorError;
use crate::registry::EngineWorkspace;

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
        let c = sym.sn_ncols(s);
        let r = sym.sn_nrows_below(s);
        let len = sym.sn_len(s);
        let first = sym.sn.first_col(s);

        if !on_gpu[s] {
            // CPU path: real numerics; host clock advances by model time.
            {
                let arr = &mut data.sn[s];
                factor_panel(arr, len, c, r, &mut l11).map_err(|pivot| {
                    FactorError::NotPositiveDefinite {
                        column: first + pivot,
                    }
                })?;
            }
            gpu.host_compute(
                cpu.op_time(&TraceOp::Potrf { n: c }) + cpu.op_time(&TraceOp::Trsm { m: r, n: c }),
            );
            if r > 0 {
                {
                    let ws = host_upd_grow(&mut host_upd, r);
                    let arr = &data.sn[s];
                    syrk_ln(r, c, 1.0, &arr[c..], len, 0.0, ws, r);
                }
                gpu.host_compute(cpu.op_time(&TraceOp::Syrk { n: r, k: c }));
                let entries = assemble_update_pool(sym, &mut data.sn, s, &host_upd[..r * r], r);
                gpu.host_compute(cpu.op_time(&TraceOp::Assemble { entries }));
            }
            continue;
        }

        // --- GPU path ---
        if let Some(ev) = prev_copyback.take() {
            gpu.stream_wait_event(compute, ev);
        }
        gpu.memcpy_h2d(compute, panel_buf, 0, &data.sn[s])?;
        gpu.potrf(compute, panel_buf, 0, c, len)
            .map_err(map_device_pivot(first))?;
        gpu.trsm_panel(compute, panel_buf, 0, len, c, r)?;
        // Asynchronous copy-back of the factored supernode (§III: "this
        // second transfer is asynchronous since the CPU does not
        // immediately require the data").
        let factored = gpu.record_event(compute);
        gpu.stream_wait_event(copy, factored);
        gpu.memcpy_d2h(copy, panel_buf, 0, &mut data.sn[s])?;
        prev_copyback = Some(gpu.record_event(copy));
        if r > 0 {
            // The coarse-grain DSYRK forming the whole update matrix.
            gpu.syrk(compute, panel_buf, c, len, r, c, 1.0, 0.0, upd_buf, 0, r)?;
            gpu.memcpy_d2h(compute, upd_buf, 0, &mut host_upd[..r * r])?;
            // The host needs the update matrix now.
            gpu.sync_stream(compute);
            let entries = assemble_update_pool(sym, &mut data.sn, s, &host_upd[..r * r], r);
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

/// Ensures the host update workspace can hold an `r x r` matrix (CPU-path
/// supernodes may exceed every *offloaded* supernode's update size).
fn host_upd_grow(buf: &mut Vec<f64>, r: usize) -> &mut [f64] {
    if buf.len() < r * r {
        buf.resize(r * r, 0.0);
    }
    &mut buf[..r * r]
}

/// Maps a device-side POTRF failure to the factorization error type.
pub(crate) fn map_device_pivot(first_col: usize) -> impl Fn(rlchol_gpu::GpuError) -> FactorError {
    move |e| match e {
        rlchol_gpu::GpuError::Numerical(_) => {
            FactorError::NotPositiveDefinite { column: first_col }
        }
        other => other.into(),
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
