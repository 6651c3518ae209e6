//! GPU-accelerated RLB, both versions of §III.
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

use std::time::Instant;

use rlchol_dense::pool::{self, ThreadPool};
use rlchol_gpu::{Buffer, Event, Gpu, StreamId};
use rlchol_perfmodel::TraceOp;
use rlchol_symbolic::blocks::RowBlock;
use rlchol_symbolic::relind::relative_indices;
use rlchol_symbolic::SymbolicFactor;

use crate::assemble::fan_out;
use crate::engine::{GpuOptions, GpuRun, Variant};
use crate::error::FactorError;
use crate::gpu_rl::{device_panel, host_node, max_offloaded, offload_set};
use crate::registry::EngineWorkspace;
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

/// Splits blocks longer than `chunk` rows into consecutive sub-blocks.
///
/// Sub-blocks keep the target supernode and contiguity, so the strip
/// machinery works on them unchanged; this is how the streaming v2 engine
/// bounds its device buffer to the post-panel memory budget (and what
/// lets it factor matrices whose full update matrices exceed capacity).
fn split_blocks(blocks: &[RowBlock], chunk: usize) -> Vec<RowBlock> {
    let mut out = Vec::with_capacity(blocks.len());
    for b in blocks {
        let mut done = 0usize;
        while done < b.len {
            let piece = chunk.min(b.len - done);
            out.push(RowBlock {
                offset: b.offset + done,
                len: piece,
                first: b.first + done,
                target: b.target,
            });
            done += piece;
        }
    }
    out
}

/// Applies one host-side strip into `parr`, the storage of the ancestor
/// holding block `b1`. Returns the entries touched (assembly cost
/// metric).
pub(crate) fn apply_strip(
    sym: &SymbolicFactor,
    parr: &mut [f64],
    blocks: &[RowBlock],
    strip: &Strip,
    host: &[f64],
) -> usize {
    let blk = blocks[strip.b1];
    let blk2 = blocks[strip.b2];
    let p = blk.target;
    let p_first = sym.sn.first_col(p);
    let p_len = sym.sn_len(p);
    let tcol = blk.first - p_first;
    let roff = relative_indices(
        std::slice::from_ref(&blk2.first),
        p_first,
        sym.sn_ncols(p),
        &sym.rows[p],
    )[0];
    let mut entries = 0usize;
    let diagonal = strip.b1 == strip.b2;
    for j in 0..strip.n {
        let dst = &mut parr[(tcol + j) * p_len + roff..];
        let src = &host[j * strip.m..(j + 1) * strip.m];
        let i0 = if diagonal { j } else { 0 };
        for i in i0..strip.m {
            dst[i] -= src[i];
        }
        entries += strip.m - i0;
    }
    entries
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

/// Applies one target's group of staged strips ([`strip_groups`]) into
/// its storage `parr`, reading each strip at its offset in `staged`.
/// Returns the entries touched.
pub(crate) fn apply_strips(
    sym: &SymbolicFactor,
    parr: &mut [f64],
    blocks: &[RowBlock],
    group: &[Strip],
    staged: &[f64],
) -> usize {
    group
        .iter()
        .map(|st| {
            let host = &staged[st.stage_off..st.stage_off + st.m * st.n];
            apply_strip(sym, parr, blocks, st, host)
        })
        .sum()
}

/// Applies supernode `s`'s staged strips (of its own block list) with
/// one `pool` index per target ([`fan_out`]). Bit-identical to the serial
/// sweep: only the lane changes, never the per-strip subtraction order.
/// Returns the entries touched.
pub(crate) fn scatter_strips(
    pool: &ThreadPool,
    sym: &SymbolicFactor,
    data: &mut FactorData,
    s: usize,
    strips: &[Strip],
    staged: &[f64],
) -> usize {
    let blocks = &sym.blocks[s];
    let (_, targets) = data.split_source(sym, s);
    let groups = strip_groups(blocks, strips);
    fan_out(pool, targets, groups, |group, parr| {
        apply_strips(sym, parr, blocks, group, staged)
    })
}

/// Factors `data` (the matrix's values in factor order) in place with
/// GPU-accelerated RLB (version selected by `version`).
pub(crate) fn factor_rlb_gpu_ws(
    sym: &SymbolicFactor,
    mut data: FactorData,
    opts: &GpuOptions,
    version: RlbGpuVersion,
    ws: &mut EngineWorkspace,
) -> Result<GpuRun, FactorError> {
    let t0 = Instant::now();
    let ctl = ws.ctl.clone();
    let gpu = opts.device();
    gpu.set_blocking(!opts.overlap);
    let compute = gpu.default_stream();
    let copy = gpu.create_stream();
    gpu.set_stream_role(compute, rlchol_gpu::StreamRole::Compute);
    gpu.set_stream_role(copy, rlchol_gpu::StreamRole::Copy);
    let cpu = opts.machine.cpu;

    let on_gpu = offload_set(sym, opts.threshold);
    let sn_on_gpu = on_gpu.iter().filter(|&&b| b).count();

    let max_panel = max_offloaded(&on_gpu, |s| sym.sn_size(s));
    let panel_buf = gpu.alloc(max_panel)?;

    // Version-specific device working storage.
    // (v1 staging buffer, v2 block buffer + row-chunk bound)
    let (stage_buf, block_bufs, v2_chunk) = match version {
        RlbGpuVersion::V1 => {
            let max_stage = max_offloaded(&on_gpu, |s| strips_of(&sym.blocks[s]).1);
            (Some(gpu.alloc(max_stage)?), None, 0)
        }
        RlbGpuVersion::V2 => {
            // Streaming memory budget: whatever remains after the panel.
            // Blocks whose pairwise strips would exceed it are split into
            // row chunks — the natural degradation of a streaming engine,
            // and what lets v2 factor matrices whose full update matrices
            // cannot fit on the device (Table II's nlpkkt120 row).
            let capacity = opts.machine.gpu.memory_capacity;
            let used = gpu.stats().used_bytes;
            let budget = (capacity.saturating_sub(used) / 8) as usize;
            let chunk = ((budget as f64).sqrt().floor() as usize).max(1);
            let max_block = max_offloaded(&on_gpu, |s| {
                let (strips, _) = strips_of(&split_blocks(&sym.blocks[s], chunk));
                strips.iter().map(|st| st.m * st.n).max().unwrap_or(0)
            });
            (None, Some(gpu.alloc(max_block)?), chunk)
        }
    };

    let mut prev_copyback: Option<Event> = None;
    // Host-side staging of the v1 update transfers.
    let mut host_ws: Vec<f64> = Vec::new();
    let mut l11 = Vec::new();

    for s in 0..sym.nsup() {
        // Deadline/cancel checkpoint, against the simulated device clock
        // (what an injected stream stall inflates).
        ctl.check_sim(gpu.elapsed())?;
        if !on_gpu[s] {
            // CPU path: the direct in-place RLB update (no staging).
            host_node(
                &gpu,
                &cpu,
                sym,
                &mut data,
                s,
                Variant::Rlb,
                &mut l11,
                &mut host_ws,
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
            data.sn_mut(sym, s),
        )?);
        if r == 0 {
            continue;
        }
        match version {
            RlbGpuVersion::V1 => {
                let blocks = &sym.blocks[s];
                let (strips, stage_len) = strips_of(blocks);
                let stage = stage_buf.expect("v1 allocates a staging buffer");
                // All block kernels write into compacted staging.
                for st in &strips {
                    launch_strip_kernel(&gpu, compute, panel_buf, stage, st, blocks, c, len)?;
                }
                // One transfer for the whole supernode; the host-side
                // scatter fans out across the pool (one `run_for` index
                // per target).
                host_ws.resize(stage_len.max(host_ws.len()), 0.0);
                gpu.memcpy_d2h(compute, stage, 0, &mut host_ws[..stage_len])?;
                gpu.sync_stream(compute);
                let staged = &host_ws[..stage_len];
                let entries = scatter_strips(pool::global(), sym, &mut data, s, &strips, staged);
                gpu.host_compute(cpu.op_time(&TraceOp::Assemble { entries }));
            }
            RlbGpuVersion::V2 => {
                let split = split_blocks(&sym.blocks[s], v2_chunk);
                let blocks = &split[..];
                let (strips, stage_len) = strips_of(blocks);
                let buf = block_bufs.expect("v2 allocates a block buffer");
                // Host landing area, each strip at its offset in the
                // compacted layout (kept whole so the eager copies and
                // the simulated pipeline stay consistent).
                let mut landed = vec![0.0f64; stage_len];
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
                    launch_strip_kernel(&gpu, compute, panel_buf, buf, &st0, blocks, c, len)?;
                    let done = gpu.record_event(compute);
                    gpu.stream_wait_event(copy, done);
                    let host = &mut landed[st.stage_off..st.stage_off + st.m * st.n];
                    gpu.memcpy_d2h(copy, buf, 0, host)?;
                    let ev = gpu.record_event(copy);
                    reuse_gate = Some(ev);
                    copy_done.push(ev);
                }
                // Host assembles each strip as its transfer completes,
                // overlapping the device's remaining kernels.
                for (i, st) in strips.iter().enumerate() {
                    gpu.host_wait_event(copy_done[i]);
                    let parr = data.sn_mut(sym, blocks[st.b1].target);
                    let host = &landed[st.stage_off..st.stage_off + st.m * st.n];
                    let entries = apply_strip(sym, parr, blocks, st, host);
                    gpu.host_compute(cpu.op_time(&TraceOp::Assemble { entries }));
                }
            }
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
    let blk = blocks[st.b1];
    let blk2 = blocks[st.b2];
    if st.b1 == st.b2 {
        gpu.syrk(
            compute,
            panel_buf,
            c + blk.offset,
            len,
            st.n,
            c,
            1.0,
            0.0,
            dst,
            st.stage_off,
            st.m,
        )?;
    } else {
        gpu.gemm_nt(
            compute,
            panel_buf,
            c + blk2.offset,
            len,
            panel_buf,
            c + blk.offset,
            len,
            st.m,
            st.n,
            c,
            1.0,
            0.0,
            dst,
            st.stage_off,
            st.m,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fresh::{factor_rl_cpu, factor_rl_gpu, factor_rlb_cpu, factor_rlb_gpu};
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
            v2.stats.peak_bytes < v1.stats.peak_bytes,
            "v2 {} vs v1 {}",
            v2.stats.peak_bytes,
            v1.stats.peak_bytes
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
        let cap = (v2_full.stats.peak_bytes + v1_full.stats.peak_bytes) / 2;
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
        assert!(run.stats.peak_bytes <= cap);
    }

    #[test]
    fn transfers_same_bytes_different_counts() {
        // v1 moves the same update data as v2 but in far fewer transfers.
        let a = laplace2d(8, 34);
        let (sym, ap) = setup(&a);
        let opts = GpuOptions::with_threshold(0);
        let v1 = factor_rlb_gpu(&sym, &ap, &opts, RlbGpuVersion::V1).unwrap();
        let v2 = factor_rlb_gpu(&sym, &ap, &opts, RlbGpuVersion::V2).unwrap();
        assert_eq!(v1.stats.d2h_bytes, v2.stats.d2h_bytes);
        assert!(v1.stats.d2h_count < v2.stats.d2h_count);
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
