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
//! The CPU-side of the direct update (what makes CPU-RLB assembly-free)
//! is *not* used here: applying updates in factor storage on the device
//! would require round-tripping ancestor supernodes over PCIe (§III), so
//! both GPU versions assemble on the host like RL does.

use std::time::Instant;

use rlchol_dense::{gemm_nt, pool, syrk_ln};
use rlchol_gpu::{Buffer, Event, Gpu, StreamId};
use rlchol_perfmodel::TraceOp;
use rlchol_sparse::SymCsc;
use rlchol_symbolic::blocks::RowBlock;
use rlchol_symbolic::relind::relative_indices;
use rlchol_symbolic::SymbolicFactor;

use crate::engine::{factor_panel, GpuOptions, GpuRun};
use crate::error::FactorError;
use crate::gpu_rl::offload_set;
use crate::registry::EngineWorkspace;
use crate::rlb::{rlb_run_updates, rlb_target_runs};

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

/// Applies a whole supernode's staged strips, one pool job per target
/// supernode (strips are ordered by `b1`, whose targets ascend, so each
/// target owns one contiguous strip range and the splits are disjoint).
/// Bit-identical to the serial sweep: only the lane changes, never the
/// per-strip subtraction order.
pub(crate) fn apply_strips_pool(
    sym: &SymbolicFactor,
    data: &mut [Vec<f64>],
    blocks: &[RowBlock],
    strips: &[Strip],
    staged: &[f64],
) -> usize {
    if pool::global().threads() <= 1 {
        // Single-lane pool: skip the per-target task boxing and run the
        // identical sweep inline.
        let mut entries = 0usize;
        for st in strips {
            let p = blocks[st.b1].target;
            entries += apply_strip(
                sym,
                &mut data[p],
                blocks,
                st,
                &staged[st.stage_off..st.stage_off + st.m * st.n],
            );
        }
        return entries;
    }
    let total: std::sync::atomic::AtomicUsize = 0.into();
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    let mut rest: &mut [Vec<f64>] = data;
    let mut consumed = 0usize;
    let mut s1 = 0usize;
    while s1 < strips.len() {
        let p = blocks[strips[s1].b1].target;
        let s_end = strips[s1..]
            .iter()
            .position(|st| blocks[st.b1].target != p)
            .map_or(strips.len(), |off| s1 + off);
        let (head, tail) = rest.split_at_mut(p - consumed + 1);
        let parr = head.last_mut().expect("nonempty split");
        rest = tail;
        consumed = p + 1;
        let group = &strips[s1..s_end];
        let total = &total;
        tasks.push(Box::new(move || {
            let mut entries = 0usize;
            for st in group {
                entries += apply_strip(
                    sym,
                    parr,
                    blocks,
                    st,
                    &staged[st.stage_off..st.stage_off + st.m * st.n],
                );
            }
            total.fetch_add(entries, std::sync::atomic::Ordering::Relaxed);
        }));
        s1 = s_end;
    }
    pool::global().run(tasks);
    total.into_inner()
}

/// Shared panel phase: H2D, device POTRF + TRSM, async copy-back.
#[allow(clippy::too_many_arguments)]
fn panel_on_device(
    gpu: &Gpu,
    compute: StreamId,
    copy: StreamId,
    panel_buf: Buffer,
    data_s: &mut Vec<f64>,
    len: usize,
    c: usize,
    r: usize,
    first: usize,
    prev_copyback: &mut Option<Event>,
) -> Result<(), FactorError> {
    if let Some(ev) = prev_copyback.take() {
        gpu.stream_wait_event(compute, ev);
    }
    gpu.memcpy_h2d(compute, panel_buf, 0, data_s)?;
    gpu.potrf(compute, panel_buf, 0, c, len)
        .map_err(|e| match e {
            rlchol_gpu::GpuError::Numerical(_) => {
                FactorError::NotPositiveDefinite { column: first }
            }
            other => other.into(),
        })?;
    gpu.trsm_panel(compute, panel_buf, 0, len, c, r)?;
    let factored = gpu.record_event(compute);
    gpu.stream_wait_event(copy, factored);
    gpu.memcpy_d2h(copy, panel_buf, 0, data_s)?;
    *prev_copyback = Some(gpu.record_event(copy));
    Ok(())
}

/// Factors `a` with GPU-accelerated RLB (version selected by `version`),
/// drawing factor storage from `ws` (recycled storage is reused, no
/// reallocation).
pub(crate) fn factor_rlb_gpu_ws(
    sym: &SymbolicFactor,
    a: &SymCsc,
    opts: &GpuOptions,
    version: RlbGpuVersion,
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

    let max_panel = (0..sym.nsup())
        .filter(|&s| on_gpu[s])
        .map(|s| sym.sn_storage(s))
        .max()
        .unwrap_or(0);
    let panel_buf = gpu.alloc(max_panel)?;

    // Version-specific device working storage.
    // (v1 staging buffer, v2 block buffer + row-chunk bound)
    let (stage_buf, block_bufs, v2_chunk) = match version {
        RlbGpuVersion::V1 => {
            let max_stage = (0..sym.nsup())
                .filter(|&s| on_gpu[s])
                .map(|s| strips_of(&sym.blocks[s]).1)
                .max()
                .unwrap_or(0);
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
            let max_block = (0..sym.nsup())
                .filter(|&s| on_gpu[s])
                .flat_map(|s| {
                    let blocks = split_blocks(&sym.blocks[s], chunk);
                    let (strips, _) = strips_of(&blocks);
                    strips.into_iter().map(|st| st.m * st.n)
                })
                .max()
                .unwrap_or(0);
            (None, Some(gpu.alloc(max_block)?), chunk)
        }
    };

    let mut prev_copyback: Option<Event> = None;
    // Host-side CPU-path update workspace.
    let mut host_ws: Vec<f64> = Vec::new();
    let mut l11 = Vec::new();

    for s in 0..sym.nsup() {
        // Deadline/cancel checkpoint, against the simulated device clock
        // (what an injected stream stall inflates).
        ctl.check_sim(gpu.elapsed())?;
        let c = sym.sn_ncols(s);
        let r = sym.sn_nrows_below(s);
        let len = sym.sn_len(s);
        let first = sym.sn.first_col(s);

        if !on_gpu[s] {
            // CPU path: the direct in-place RLB update (no staging).
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
                let mut host_seconds = 0.0;
                cpu_direct_update(sym, &mut data.sn, s, c, len, &cpu, &mut host_seconds);
                gpu.host_compute(host_seconds);
            }
            continue;
        }

        // --- GPU path ---
        panel_on_device(
            &gpu,
            compute,
            copy,
            panel_buf,
            &mut data.sn[s],
            len,
            c,
            r,
            first,
            &mut prev_copyback,
        )?;
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
                // scatter fans out across the pool (one job per target).
                host_ws.resize(stage_len.max(host_ws.len()), 0.0);
                gpu.memcpy_d2h(compute, stage, 0, &mut host_ws[..stage_len])?;
                gpu.sync_stream(compute);
                let entries =
                    apply_strips_pool(sym, &mut data.sn, blocks, &strips, &host_ws[..stage_len]);
                gpu.host_compute(cpu.op_time(&TraceOp::Assemble { entries }));
            }
            RlbGpuVersion::V2 => {
                let split = split_blocks(&sym.blocks[s], v2_chunk);
                let blocks = &split[..];
                let (strips, _) = strips_of(blocks);
                let buf = block_bufs.expect("v2 allocates a block buffer");
                // Per-strip host landing areas (kept alive so the eager
                // copies and the simulated pipeline stay consistent).
                let mut landed: Vec<Vec<f64>> = Vec::with_capacity(strips.len());
                let mut copy_done: Vec<Event> = Vec::with_capacity(strips.len());
                let mut reuse_gate: Option<Event> = None;
                for st in strips.iter() {
                    // The single block buffer may not be overwritten while
                    // the previous strip's transfer still reads it.
                    if let Some(ev) = reuse_gate.take() {
                        gpu.stream_wait_event(compute, ev);
                    }
                    let st0 = Strip {
                        b1: st.b1,
                        b2: st.b2,
                        m: st.m,
                        n: st.n,
                        stage_off: 0,
                    };
                    launch_strip_kernel(&gpu, compute, panel_buf, buf, &st0, blocks, c, len)?;
                    let done = gpu.record_event(compute);
                    gpu.stream_wait_event(copy, done);
                    let mut host = vec![0.0f64; st.m * st.n];
                    gpu.memcpy_d2h(copy, buf, 0, &mut host)?;
                    let ev = gpu.record_event(copy);
                    reuse_gate = Some(ev);
                    copy_done.push(ev);
                    landed.push(host);
                }
                // Host assembles each strip as its transfer completes,
                // overlapping the device's remaining kernels.
                for (i, st) in strips.iter().enumerate() {
                    gpu.host_wait_event(copy_done[i]);
                    let p = blocks[st.b1].target;
                    let entries = apply_strip(sym, &mut data.sn[p], blocks, st, &landed[i]);
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

/// The CPU-side direct RLB update (same sweep as `factor_rlb_cpu`'s inner
/// loop, via the shared [`rlb_run_updates`] enumerator) for
/// below-threshold supernodes, accumulating model time. Real numerics run
/// one pool job per target run — targets are disjoint ancestor arrays, so
/// the fan-out is lock-free and bit-identical to the serial sweep. Model
/// time is the serial op-time sum either way (the host cost model is
/// thread-count-aware at replay, not here).
pub(crate) fn cpu_direct_update(
    sym: &SymbolicFactor,
    sn_data: &mut [Vec<f64>],
    s: usize,
    c: usize,
    len: usize,
    cpu: &rlchol_perfmodel::CpuModel,
    host_seconds: &mut f64,
) {
    /// The real numerics of one target run (identical kernels whichever
    /// lane executes them).
    fn run_kernels(
        sym: &SymbolicFactor,
        s: usize,
        c: usize,
        len: usize,
        src: &[f64],
        parr: &mut Vec<f64>,
        run: &crate::rlb::RlbTargetRun,
    ) {
        rlb_run_updates(sym, s, c, run, |u| {
            if u.diagonal {
                syrk_ln(
                    u.n,
                    c,
                    -1.0,
                    &src[u.a_off..],
                    len,
                    1.0,
                    &mut parr[u.dst_off..],
                    run.p_len,
                );
            } else {
                gemm_nt(
                    u.m,
                    u.n,
                    c,
                    -1.0,
                    &src[u.a_off..],
                    len,
                    &src[u.b_off..],
                    len,
                    1.0,
                    &mut parr[u.dst_off..],
                    run.p_len,
                );
            }
        });
    }

    let (head, tail) = sn_data.split_at_mut(s + 1);
    let src: &[f64] = head.last().expect("source exists");
    // Single-lane pool: run the sweep inline, no task boxing.
    let single = pool::global().threads() <= 1;
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    let mut rest: &mut [Vec<f64>] = tail;
    let mut consumed = s + 1;
    for run in rlb_target_runs(sym, s) {
        rlb_run_updates(sym, s, c, &run, |u| {
            *host_seconds += cpu.op_time(&if u.diagonal {
                TraceOp::Syrk { n: u.n, k: c }
            } else {
                TraceOp::Gemm {
                    m: u.m,
                    n: u.n,
                    k: c,
                }
            });
        });
        let (h, t) = rest.split_at_mut(run.target - consumed + 1);
        let parr = h.last_mut().expect("nonempty split");
        rest = t;
        consumed = run.target + 1;
        if single {
            run_kernels(sym, s, c, len, src, parr, &run);
        } else {
            tasks.push(Box::new(move || {
                run_kernels(sym, s, c, len, src, parr, &run)
            }));
        }
    }
    pool::global().run(tasks);
}

/// One target's slice of [`cpu_direct_update`]: the SYRK/GEMM kernels of
/// supernode `s`'s run into ancestor `p` alone, reading the (final,
/// factored) source panel. The out-of-order retirement loop applies CPU
/// supernodes' updates per target so each destination still receives its
/// sources in ascending order; running the runs one at a time with the
/// identical kernels keeps the result bit-equal to the full sweep.
pub(crate) fn cpu_direct_update_target(
    sym: &SymbolicFactor,
    sn_data: &mut [Vec<f64>],
    s: usize,
    p: usize,
    c: usize,
    len: usize,
    cpu: &rlchol_perfmodel::CpuModel,
    host_seconds: &mut f64,
) {
    debug_assert!(s < p, "RLB targets are strict ancestors");
    let (head, tail) = sn_data.split_at_mut(p);
    let src: &[f64] = &head[s];
    let parr = &mut tail[0];
    for run in rlb_target_runs(sym, s) {
        if run.target != p {
            continue;
        }
        rlb_run_updates(sym, s, c, &run, |u| {
            *host_seconds += cpu.op_time(&if u.diagonal {
                TraceOp::Syrk { n: u.n, k: c }
            } else {
                TraceOp::Gemm {
                    m: u.m,
                    n: u.n,
                    k: c,
                }
            });
            if u.diagonal {
                syrk_ln(
                    u.n,
                    c,
                    -1.0,
                    &src[u.a_off..],
                    len,
                    1.0,
                    &mut parr[u.dst_off..],
                    run.p_len,
                );
            } else {
                gemm_nt(
                    u.m,
                    u.n,
                    c,
                    -1.0,
                    &src[u.a_off..],
                    len,
                    &src[u.b_off..],
                    len,
                    1.0,
                    &mut parr[u.dst_off..],
                    run.p_len,
                );
            }
        });
        break;
    }
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
        let max_panel = (0..sym.nsup()).map(|s| sym.sn_storage(s)).max().unwrap();
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
