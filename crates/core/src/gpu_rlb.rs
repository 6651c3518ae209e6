//! GPU-accelerated RLB, both versions of §III, as a clock over shapes.
//!
//! The panel phase (H2D, DPOTRF, DTRSM, asynchronous copy-back) is shared
//! with GPU-RL. The update phase differs:
//!
//! * **v1** — every per-block DSYRK/DGEMM writes into a *compacted
//!   staging buffer on the device*; when the supernode's updates are all
//!   computed, **one** device→host transfer returns them and the host
//!   assembles. The staging buffer is comparable in size to RL's full
//!   update matrix, so v1 shares RL's memory wall (and OOMs on the
//!   nlpkkt120 analogue).
//! * **v2** — each block update is transferred back **as soon as it is
//!   computed** and assembled while the device works on the next block.
//!   Device footprint: panel + one block-sized buffer — this is the
//!   variant that factors matrices whose update matrices exceed device
//!   memory (Table II's nlpkkt120 row).
//!
//! The direct update (what makes CPU-RLB assembly-free) is *not* used
//! for offloaded supernodes: applying updates in factor storage on the
//! device would require round-tripping ancestor supernodes over PCIe
//! (§III), so both GPU versions assemble on the host like RL does. Only
//! below-threshold supernodes, which run wholly on the host
//! (`gpu_rl::host_node`), update their ancestors directly.
//!
//! [`simulate`] only prices these steps, from shapes. The factor is
//! computed on the CPU tree executor in the same forms: each offloaded
//! supernode's strips are formed, then subtracted (`rlb_apply_strips`,
//! with v2's blocks cut as its buffer cuts them), and the other
//! supernodes update directly.

use rlchol_gpu::{Buffer, Event, Gpu, StreamId};
use rlchol_symbolic::blocks::RowBlock;
use rlchol_symbolic::SymbolicFactor;

use crate::engine::{GpuOptions, GpuRun, RetireMode, Variant};
use crate::error::FactorError;
use crate::gpu_rl::{
    device_panel, host_assembly, host_node, max_offloaded, offload_set, single_stream_device,
};
use crate::registry::EngineWorkspace;
use crate::rlb::split_blocks_into;
use crate::storage::FactorData;

/// Which RLB GPU variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RlbGpuVersion {
    /// Batched: one staging buffer, one transfer per supernode.
    V1,
    /// Streaming: per-block transfers, minimal device memory.
    V2,
}

/// A block-pair update strip: the `m × n` update `L[B′, B]` (`B′ = B`
/// gives the diagonal strip, of which only the lower triangle is used).
#[derive(Clone, Copy)]
pub(crate) struct Strip {
    pub(crate) b1: usize,
    pub(crate) b2: usize,
    pub(crate) m: usize,
    pub(crate) n: usize,
    /// Offset in the compacted staging buffer (v1) or 0 (v2).
    pub(crate) stage_off: usize,
}

impl Strip {
    /// Entries the host subtracts landing this strip: the diagonal
    /// strip's lower triangle, or the whole strip.
    pub(crate) fn entries(&self) -> usize {
        if self.b1 == self.b2 {
            self.m * (self.m + 1) / 2
        } else {
            self.m * self.n
        }
    }
}

/// Enumerates the update strips of a supernode and the compacted staging
/// size (the v1 device/host footprint for that supernode).
pub(crate) fn strips_of(blocks: &[RowBlock]) -> (Vec<Strip>, usize) {
    let mut strips = Vec::new();
    let mut off = 0usize;
    for (b1, blk) in blocks.iter().enumerate() {
        for (b2, blk2) in blocks.iter().enumerate().skip(b1) {
            let (m, n) = (blk2.len, blk.len);
            strips.push(Strip {
                b1,
                b2,
                m,
                n,
                stage_off: off,
            });
            off += m * n;
        }
    }
    (strips, off)
}

/// Groups a supernode's strips by target, in ascending target order:
/// strips are ordered by `b1`, whose targets ascend, so each target owns
/// one contiguous strip range.
pub(crate) fn strip_groups<'a>(
    blocks: &'a [RowBlock],
    strips: &'a [Strip],
) -> impl Iterator<Item = (usize, &'a [Strip])> + 'a {
    strips
        .chunk_by(|a, b| blocks[a.b1].target == blocks[b.b1].target)
        .map(|group| (blocks[group[0].b1].target, group))
}

/// Simulates GPU-accelerated RLB (version `version`) over `data`'s
/// supernodes under `opts`: the device's clock and counters, with no
/// numerics. Fails typed on a device fault, an out-of-memory or a
/// simulated deadline.
pub(crate) fn simulate(
    sym: &SymbolicFactor,
    data: &FactorData,
    opts: &GpuOptions,
    version: RlbGpuVersion,
    ws: &EngineWorkspace,
) -> Result<GpuRun, FactorError> {
    let (gpu, compute, copy) = single_stream_device(opts);
    let cpu = opts.machine.cpu;
    let on_gpu = offload_set(sym, opts.threshold);

    let max_panel = max_offloaded(&on_gpu, |s| sym.sn_size(s));
    let panel_buf = gpu.alloc(max_panel)?;

    // Version-specific device working storage: v1's staging buffer, or
    // v2's block buffer and the rows it cuts blocks to.
    let (stage_buf, chunk) = match version {
        RlbGpuVersion::V1 => {
            let max_stage = max_offloaded(&on_gpu, |s| strips_of(&sym.blocks[s]).1);
            (gpu.alloc(max_stage)?, usize::MAX)
        }
        RlbGpuVersion::V2 => {
            // Streaming memory budget: whatever remains after the panel.
            // Blocks whose pairwise strips would exceed it are split into
            // row chunks — the natural degradation of a streaming engine,
            // and what lets v2 factor matrices whose full update matrices
            // cannot fit on the device (Table II's nlpkkt120 row). The
            // largest strip is a diagonal one, a cut block squared.
            let capacity = opts.machine.gpu.memory_capacity;
            let used = gpu.stats().used_bytes;
            let budget = (capacity.saturating_sub(used) / 8) as usize;
            let chunk = ((budget as f64).sqrt().floor() as usize).max(1);
            let max_block = max_offloaded(&on_gpu, |s| {
                let rows = sym.blocks[s].iter().map(|b| b.len.min(chunk)).max();
                rows.map_or(0, |rows| rows * rows)
            });
            (gpu.alloc(max_block)?, chunk)
        }
    };

    let mut prev_copyback: Option<Event> = None;
    let mut split = Vec::new();
    for s in 0..sym.nsup() {
        // Deadline/cancel checkpoint, against the simulated device clock
        // (what an injected stream stall inflates).
        ws.ctl.check_sim(gpu.elapsed())?;
        if !on_gpu[s] {
            // CPU path: the direct in-place RLB update (no staging).
            host_node(&gpu, &cpu, sym, s, Variant::Rlb);
            continue;
        }

        // --- GPU path ---
        let (c, r, len) = (sym.sn_ncols(s), sym.sn_nrows_below(s), sym.sn_len(s));
        let gate = prev_copyback.take();
        let arr = data.sn(sym, s);
        prev_copyback = Some(device_panel(
            &gpu, sym, s, compute, copy, panel_buf, gate, arr,
        )?);
        if r == 0 {
            continue;
        }
        split_blocks_into(&sym.blocks[s], chunk, &mut split);
        let (strips, stage_len) = strips_of(&split);
        match version {
            RlbGpuVersion::V1 => {
                // All block kernels write into compacted staging; one
                // transfer returns the whole supernode.
                for st in &strips {
                    launch_strip_kernel(&gpu, compute, panel_buf, stage_buf, st, &split, c, len)?;
                }
                gpu.memcpy_d2h(compute, stage_buf, 0, stage_len)?;
                gpu.sync_stream(compute);
                host_assembly(&gpu, &cpu, strips.iter().map(Strip::entries).sum());
            }
            RlbGpuVersion::V2 => {
                let mut copy_done: Vec<Event> = Vec::with_capacity(strips.len());
                let mut reuse_gate: Option<Event> = None;
                for st in strips.iter() {
                    // The single block buffer may not be overwritten while
                    // the previous strip's transfer still reads it.
                    if let Some(ev) = reuse_gate.take() {
                        gpu.stream_wait_event(compute, ev);
                    }
                    let st0 = Strip {
                        stage_off: 0,
                        ..*st
                    };
                    launch_strip_kernel(&gpu, compute, panel_buf, stage_buf, &st0, &split, c, len)?;
                    let done = gpu.record_event(compute);
                    gpu.stream_wait_event(copy, done);
                    gpu.memcpy_d2h(copy, stage_buf, 0, st.m * st.n)?;
                    let ev = gpu.record_event(copy);
                    reuse_gate = Some(ev);
                    copy_done.push(ev);
                }
                // Host assembles each strip as its transfer completes,
                // overlapping the device's remaining kernels.
                for (st, &ev) in strips.iter().zip(&copy_done) {
                    gpu.host_wait_event(ev);
                    host_assembly(&gpu, &cpu, st.entries());
                }
            }
        }
    }
    gpu.synchronize();
    Ok(GpuRun {
        offloaded: on_gpu,
        strip_rows: chunk,
        sim_seconds: gpu.elapsed(),
        stats: gpu.stats(),
        streams_used: 1,
        retire: RetireMode::InOrder,
        lookahead: 0,
        transfers_saved: 0,
    })
}

/// Launches the DSYRK (diagonal strip) or DGEMM (lower strip) for one
/// block pair into `dst` at the strip's staging offset.
#[allow(clippy::too_many_arguments)]
pub(crate) fn launch_strip_kernel(
    gpu: &Gpu,
    compute: StreamId,
    panel_buf: Buffer,
    dst: Buffer,
    st: &Strip,
    blocks: &[RowBlock],
    c: usize,
    len: usize,
) -> Result<(), FactorError> {
    let (a_off, b_off) = (c + blocks[st.b2].offset, c + blocks[st.b1].offset);
    let (out, ldc) = (st.stage_off, st.m);
    if st.b1 == st.b2 {
        gpu.syrk(compute, panel_buf, b_off, len, st.n, c, dst, out, ldc)?;
    } else {
        gpu.gemm_nt(
            compute, panel_buf, a_off, len, panel_buf, b_off, len, st.m, st.n, c, dst, out, ldc,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fresh::{factor_rl_cpu, factor_rl_gpu, factor_rlb_cpu, factor_rlb_gpu, stats};
    use rlchol_matgen::{laplace2d, laplace3d};
    use rlchol_perfmodel::MachineModel;
    use rlchol_symbolic::{analyze, SymbolicOptions};

    fn setup(a: &rlchol_sparse::SymCsc) -> (SymbolicFactor, rlchol_sparse::SymCsc) {
        let sym = analyze(a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        (sym, ap)
    }

    /// Setup with merging and PR disabled: supernode rows stay fragmented
    /// into many small blocks, which is the regime where v2's per-block
    /// streaming shows its memory advantage.
    fn setup_fragmented(a: &rlchol_sparse::SymCsc) -> (SymbolicFactor, rlchol_sparse::SymCsc) {
        let opts = SymbolicOptions {
            merge: false,
            partition_refine: false,
            ..SymbolicOptions::default()
        };
        let sym = analyze(a, &opts);
        let ap = a.permute(&sym.perm);
        (sym, ap)
    }

    /// A three-supernode chain A = {0..4}, B = {4..7}, C = {7..12} where
    /// A's rows split into two blocks ({4,5,6} in B and {8,9,10} in C),
    /// while B additionally reaches row 11 (so A cannot legally fuse with
    /// B into one supernode). A's staging (three 3×3 strips = 27 doubles)
    /// then exceeds the largest single strip (B's 4×4 = 16) — the
    /// structure that separates the memory footprints of the two RLB GPU
    /// variants.
    fn three_level() -> rlchol_sparse::SymCsc {
        let n = 12;
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let clique = |edges: &mut Vec<(usize, usize)>, lo: usize, hi: usize| {
            for a in lo..hi {
                for b in a + 1..hi {
                    edges.push((b, a));
                }
            }
        };
        clique(&mut edges, 0, 4);
        clique(&mut edges, 4, 7);
        clique(&mut edges, 7, 12);
        for a in 0..4 {
            for r in [4, 5, 6, 8, 9, 10] {
                edges.push((r, a));
            }
        }
        for b in 4..7 {
            for r in 8..12 {
                edges.push((r, b));
            }
        }
        let mut t = rlchol_sparse::TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 16.0);
        }
        for (i, j) in edges {
            t.push(i, j, -1.0);
        }
        rlchol_sparse::SymCsc::from_lower_triplets(&t).unwrap()
    }

    #[test]
    fn both_versions_match_cpu_factors() {
        let a = laplace3d(5, 31);
        let (sym, ap) = setup(&a);
        let cpu = factor_rlb_cpu(&sym, &ap).unwrap();
        for version in [RlbGpuVersion::V1, RlbGpuVersion::V2] {
            for threshold in [0usize, 300] {
                let run =
                    factor_rlb_gpu(&sym, &ap, &GpuOptions::with_threshold(threshold), version)
                        .unwrap();
                let diff = cpu.factor.max_rel_diff(&run.factor);
                assert!(diff < 1e-11, "{version:?} thr {threshold}: diff {diff}");
            }
        }
    }

    #[test]
    fn v2_uses_less_device_memory_than_v1() {
        let a = three_level();
        let (sym, ap) = setup_fragmented(&a);
        let opts = GpuOptions::with_threshold(0);
        let v1 = factor_rlb_gpu(&sym, &ap, &opts, RlbGpuVersion::V1).unwrap();
        let v2 = factor_rlb_gpu(&sym, &ap, &opts, RlbGpuVersion::V2).unwrap();
        assert!(
            stats(&v2).peak_bytes < stats(&v1).peak_bytes,
            "v2 {} vs v1 {}",
            stats(&v2).peak_bytes,
            stats(&v1).peak_bytes
        );
    }

    #[test]
    fn v2_survives_capacity_that_ooms_v1() {
        let a = three_level();
        let (sym, ap) = setup_fragmented(&a);
        let opts0 = GpuOptions::with_threshold(0);
        let v1_full = factor_rlb_gpu(&sym, &ap, &opts0, RlbGpuVersion::V1).unwrap();
        let v2_full = factor_rlb_gpu(&sym, &ap, &opts0, RlbGpuVersion::V2).unwrap();
        // Pick a capacity between the two footprints.
        let cap = (stats(&v2_full).peak_bytes + stats(&v1_full).peak_bytes) / 2;
        let mut opts = GpuOptions::with_threshold(0);
        opts.machine = MachineModel::perlmutter(16).with_gpu_capacity(cap);
        assert!(matches!(
            factor_rlb_gpu(&sym, &ap, &opts, RlbGpuVersion::V1),
            Err(FactorError::GpuOutOfMemory { .. })
        ));
        let ok = factor_rlb_gpu(&sym, &ap, &opts, RlbGpuVersion::V2).unwrap();
        assert!(ok.factor.max_rel_diff(&v2_full.factor) < 1e-12);
    }

    #[test]
    fn v2_chunks_through_capacity_that_ooms_rl() {
        // The Table I/II nlpkkt120 mechanism: capacity above the panel but
        // below panel + full update matrix. RL must OOM; v2 splits blocks
        // to the remaining budget and still produces the right factor.
        let a = laplace3d(6, 36);
        let (sym, ap) = setup(&a);
        let max_panel = (0..sym.nsup()).map(|s| sym.sn_size(s)).max().unwrap();
        let max_upd = sym.max_update_matrix_entries();
        assert!(max_upd > 16, "test needs a nontrivial update matrix");
        let cap = ((max_panel + max_upd / 4) * 8) as u64;
        let mut opts = GpuOptions::with_threshold(0);
        opts.machine = MachineModel::perlmutter(16).with_gpu_capacity(cap);
        assert!(matches!(
            factor_rl_gpu(&sym, &ap, &opts),
            Err(FactorError::GpuOutOfMemory { .. })
        ));
        let run = factor_rlb_gpu(&sym, &ap, &opts, RlbGpuVersion::V2).unwrap();
        let cpu = factor_rlb_cpu(&sym, &ap).unwrap();
        assert!(cpu.factor.max_rel_diff(&run.factor) < 1e-11);
        assert!(stats(&run).peak_bytes <= cap);
    }

    #[test]
    fn transfers_same_bytes_different_counts() {
        // v1 moves the same update data as v2 but in far fewer transfers.
        let a = laplace2d(8, 34);
        let (sym, ap) = setup(&a);
        let opts = GpuOptions::with_threshold(0);
        let v1 = factor_rlb_gpu(&sym, &ap, &opts, RlbGpuVersion::V1).unwrap();
        let v2 = factor_rlb_gpu(&sym, &ap, &opts, RlbGpuVersion::V2).unwrap();
        assert_eq!(stats(&v1).d2h_bytes, stats(&v2).d2h_bytes);
        assert!(stats(&v1).d2h_count < stats(&v2).d2h_count);
    }

    #[test]
    fn rl_and_rlb_gpu_agree_numerically() {
        let a = laplace3d(4, 35);
        let (sym, ap) = setup(&a);
        let rl = factor_rl_cpu(&sym, &ap).unwrap();
        let run = factor_rlb_gpu(
            &sym,
            &ap,
            &GpuOptions::with_threshold(100),
            RlbGpuVersion::V2,
        )
        .unwrap();
        assert!(rl.factor.max_rel_diff(&run.factor) < 1e-11);
    }
}
