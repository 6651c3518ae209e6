//! RLB: the right-looking *blocked* method (§II-B).
//!
//! The panel factorization is identical to RL's; the update is then
//! decomposed over the supernode's row blocks. For each pair of blocks
//! `B` (giving the target columns) and `B′` at or below it:
//!
//! * `B′ = B` — a DSYRK updates the diagonal part `L[B,B]` of the
//!   ancestor supernode holding `B`;
//! * `B′ > B` — a DGEMM updates `L[B′, B]` inside that same ancestor.
//!
//! On the CPU the updates are applied **directly into factor storage** —
//! no temporary update matrix exists — and each block needs just one
//! generalized relative index (its offset in the ancestor's index list),
//! since consecutive global indices stay consecutive there.
//!
//! The RLB device methods give their offloaded supernodes a second
//! form, the **strips** of [`rlb_apply_strips`]: each block pair's
//! update is formed on its own, then subtracted, as the device would
//! stage it (§III). Both forms run on the CPU tree executor; the
//! relative index arithmetic and the update kernels live here and
//! nowhere else.

use rlchol_dense::{gemm_nt, syrk_ln};
use rlchol_perfmodel::TraceOp;
use rlchol_symbolic::blocks::RowBlock;
use rlchol_symbolic::relind::relative_index_of;
use rlchol_symbolic::SymbolicFactor;

/// A maximal run of consecutive row blocks of one source supernode aimed
/// at a single target supernode, with the target geometry resolved once.
///
/// Blocks are listed in ascending row order and targets are ancestors in
/// ascending order too, so each target owns exactly one run — callers may
/// treat runs as disjoint (one target array, one lock, one pool index).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RlbTargetRun {
    /// Target supernode.
    pub(crate) target: usize,
    /// Target's leading dimension (`sn_len`) — the `ldc` of every kernel
    /// in the run.
    pub(crate) p_len: usize,
    /// Range of the source's block list covered by this run.
    pub(crate) b_start: usize,
    pub(crate) b_end: usize,
}

/// One SYRK (`diagonal`) or GEMM update of the RLB sweep, with all
/// relative-index arithmetic resolved: kernels read the source panel at
/// `a_off`/`b_off` and write `m × n` values at `dst_off` of the target
/// (leading dimension [`RlbTargetRun::p_len`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RlbUpdate {
    pub(crate) diagonal: bool,
    /// Update rows (`== n` for the diagonal SYRK).
    pub(crate) m: usize,
    /// Update columns.
    pub(crate) n: usize,
    /// Source-panel offset of the `B′` rows.
    pub(crate) a_off: usize,
    /// Source-panel offset of the `B` rows.
    pub(crate) b_off: usize,
    /// Offset in the target supernode's storage.
    pub(crate) dst_off: usize,
}

impl RlbUpdate {
    /// The update's kernel as a trace record; `k` is the source's column
    /// count.
    pub(crate) fn op(&self, k: usize) -> TraceOp {
        if self.diagonal {
            TraceOp::Syrk { n: self.n, k }
        } else {
            TraceOp::Gemm {
                m: self.m,
                n: self.n,
                k,
            }
        }
    }
}

/// Groups supernode `s`'s row blocks into target runs, in ascending
/// target order. Allocation-free (the iterator walks the block list).
pub(crate) fn rlb_target_runs(
    sym: &SymbolicFactor,
    s: usize,
) -> impl Iterator<Item = RlbTargetRun> + '_ {
    let blocks = &sym.blocks[s];
    let mut b1 = 0usize;
    std::iter::from_fn(move || {
        if b1 >= blocks.len() {
            return None;
        }
        let target = blocks[b1].target;
        let b_end = blocks[b1..]
            .iter()
            .position(|b| b.target != target)
            .map_or(blocks.len(), |off| b1 + off);
        let run = RlbTargetRun {
            target,
            p_len: sym.sn_len(target),
            b_start: b1,
            b_end,
        };
        b1 = b_end;
        Some(run)
    })
}

/// The target run of supernode `s` aimed at `target`, which must be one
/// of `s`'s targets (blocks are sorted by target).
pub(crate) fn rlb_run_to(sym: &SymbolicFactor, s: usize, target: usize) -> RlbTargetRun {
    let blocks = &sym.blocks[s];
    let b_start = blocks.partition_point(|b| b.target < target);
    let b_end = b_start + blocks[b_start..].partition_point(|b| b.target == target);
    debug_assert!(b_start < b_end, "supernode {target} is not a target of {s}");
    RlbTargetRun {
        target,
        p_len: sym.sn_len(target),
        b_start,
        b_end,
    }
}

/// The kernels of one target run as trace records, in
/// [`rlb_run_updates`] order. They depend on block shapes only, so no
/// relative index is resolved.
pub(crate) fn rlb_run_ops(
    sym: &SymbolicFactor,
    s: usize,
    run: &RlbTargetRun,
    mut account: impl FnMut(&TraceOp),
) {
    let blocks = &sym.blocks[s];
    let k = sym.sn_ncols(s);
    for bi in run.b_start..run.b_end {
        let n = blocks[bi].len;
        account(&TraceOp::Syrk { n, k });
        for blk2 in &blocks[bi + 1..] {
            account(&TraceOp::Gemm { m: blk2.len, n, k });
        }
    }
}

/// Enumerates the block updates of one target run — the single home of
/// the RLB relative-index arithmetic (§II-B's generalized relative
/// indices). For each outer block `B` in the run: a diagonal SYRK update
/// `L[B, B]`, then one GEMM update `L[B′, B]` per block `B′` below it
/// (below-blocks may extend past the run — their *rows* live in later
/// ancestors but the written columns stay inside this run's target).
pub(crate) fn rlb_run_updates(
    sym: &SymbolicFactor,
    s: usize,
    c: usize,
    run: &RlbTargetRun,
    mut kernel: impl FnMut(&RlbUpdate),
) {
    let blocks = &sym.blocks[s];
    let p = run.target;
    let p_first = sym.sn.first_col(p);
    let p_ncols = sym.sn_ncols(p);
    for (bi, blk) in blocks.iter().enumerate().take(run.b_end).skip(run.b_start) {
        // Target columns: the block's columns inside supernode p.
        let tcol = blk.first - p_first;
        kernel(&RlbUpdate {
            diagonal: true,
            m: blk.len,
            n: blk.len,
            a_off: c + blk.offset,
            b_off: c + blk.offset,
            dst_off: tcol * run.p_len + tcol,
        });
        for blk2 in &blocks[bi + 1..] {
            // One generalized relative index per block: the offset of
            // B′'s first row in p's index list (consecutive indices
            // remain consecutive there). The single-index lookup keeps
            // the update loop allocation-free.
            let roff = relative_index_of(blk2.first, p_first, p_ncols, &sym.rows[p]);
            kernel(&RlbUpdate {
                diagonal: false,
                m: blk2.len,
                n: blk.len,
                a_off: c + blk2.offset,
                b_off: c + blk.offset,
                dst_off: tcol * run.p_len + roff,
            });
        }
    }
}

/// The direct update of one target run: every block update of
/// supernode `s`'s `run` ([`rlb_run_updates`]) applied straight into the
/// target's storage `parr` — a DSYRK on the diagonal part `L[B, B]`, a
/// DGEMM on each lower part `L[B′, B]` — reading the factored source
/// panel `src`. Each kernel is reported to `account` after it runs.
pub(crate) fn rlb_apply_run(
    sym: &SymbolicFactor,
    s: usize,
    src: &[f64],
    parr: &mut [f64],
    run: &RlbTargetRun,
    mut account: impl FnMut(&TraceOp),
) {
    let c = sym.sn_ncols(s);
    let len = sym.sn_len(s);
    rlb_run_updates(sym, s, c, run, |u| {
        let dst = &mut parr[u.dst_off..];
        if u.diagonal {
            syrk_ln(u.n, c, -1.0, &src[u.a_off..], len, 1.0, dst, run.p_len);
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
                dst,
                run.p_len,
            );
        }
        account(&u.op(c));
    });
}

/// Splits `blocks` longer than `chunk` rows into consecutive
/// sub-blocks, into `out` (cleared first). Sub-blocks keep their target
/// supernode and contiguity, so strips work on them unchanged: this is
/// how the streaming RLB device method bounds its block buffer to the
/// memory left after the panel.
pub(crate) fn split_blocks_into(blocks: &[RowBlock], chunk: usize, out: &mut Vec<RowBlock>) {
    out.clear();
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
}

/// The strips form of supernode `s`'s update into `target`: for every
/// block `B` of `blocks` (`s`'s row blocks, possibly split by
/// [`split_blocks_into`]) lying in `target`, and every block `B′` at or
/// below it, the strip `L[B′] L[B]ᵀ` is formed with `beta = 0` in
/// `strip` (a DSYRK for `B′ = B`, a DGEMM below), then subtracted from
/// the target's storage `parr` — the diagonal strip's lower triangle
/// only. It reads the factored source panel `src`. Forming a strip
/// before subtracting it rounds differently from the direct update
/// ([`rlb_apply_run`]), so the RLB device methods have factors of their
/// own.
pub(crate) fn rlb_apply_strips(
    sym: &SymbolicFactor,
    s: usize,
    src: &[f64],
    parr: &mut [f64],
    target: usize,
    blocks: &[RowBlock],
    strip: &mut Vec<f64>,
) {
    let (c, len) = (sym.sn_ncols(s), sym.sn_len(s));
    let p_first = sym.sn.first_col(target);
    let (p_ncols, p_len) = (sym.sn_ncols(target), sym.sn_len(target));
    let b_start = blocks.partition_point(|b| b.target < target);
    let outer = blocks.iter().enumerate().skip(b_start);
    for (b1, blk) in outer.take_while(|(_, b)| b.target == target) {
        let tcol = blk.first - p_first;
        for (b2, blk2) in blocks.iter().enumerate().skip(b1) {
            let (m, n) = (blk2.len, blk.len);
            if strip.len() < m * n {
                strip.resize(m * n, 0.0);
            }
            let out = &mut strip[..m * n];
            let diagonal = b1 == b2;
            if diagonal {
                syrk_ln(n, c, 1.0, &src[c + blk.offset..], len, 0.0, out, m);
            } else {
                let (a, b) = (&src[c + blk2.offset..], &src[c + blk.offset..]);
                gemm_nt(m, n, c, 1.0, a, len, b, len, 0.0, out, m);
            }
            let roff = relative_index_of(blk2.first, p_first, p_ncols, &sym.rows[target]);
            for j in 0..n {
                let dst = &mut parr[(tcol + j) * p_len + roff..];
                let i0 = if diagonal { j } else { 0 };
                for i in i0..m {
                    dst[i] -= out[j * m + i];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fresh::{factor_rl_cpu, factor_rlb_cpu, trace};
    use rlchol_matgen::{grid3d, laplace2d, Stencil};
    use rlchol_symbolic::{analyze, SymbolicOptions};

    #[test]
    fn factors_small_spd_with_tiny_residual() {
        let a = laplace2d(8, 3);
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let run = factor_rlb_cpu(&sym, &ap).unwrap();
        let res = run.factor.residual(&sym, &ap, 3);
        assert!(res < 1e-12, "residual {res}");
    }

    #[test]
    fn rl_and_rlb_produce_the_same_factor() {
        let a = grid3d(5, 5, 5, Stencil::Star7, 1, 11);
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let rl = factor_rl_cpu(&sym, &ap).unwrap();
        let rlb = factor_rlb_cpu(&sym, &ap).unwrap();
        let diff = rl.factor.max_rel_diff(&rlb.factor);
        assert!(diff < 1e-11, "factor mismatch {diff}");
    }

    #[test]
    fn rlb_issues_more_blas_calls_than_rl() {
        // RLB decomposes each update into per-block calls, so on any
        // matrix with multi-block supernodes it must issue at least as
        // many BLAS calls as RL (strictly more unless every supernode has
        // a single block).
        let a = laplace2d(10, 5);
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let rl = factor_rl_cpu(&sym, &ap).unwrap();
        let rlb = factor_rlb_cpu(&sym, &ap).unwrap();
        assert!(trace(&rlb).blas_calls() >= trace(&rl).blas_calls());
    }

    #[test]
    fn rlb_has_no_assembly_records() {
        // The defining feature: direct updates, no scatter step.
        let a = laplace2d(8, 4);
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let run = factor_rlb_cpu(&sym, &ap).unwrap();
        assert!(run
            .info
            .trace
            .unwrap()
            .ops
            .iter()
            .all(|o| !matches!(o, TraceOp::Assemble { .. })));
    }

    #[test]
    fn partition_refinement_reduces_gemm_calls() {
        // PR exists to shrink the number of blocks; compare RLB call
        // counts with and without it on a 3-D problem.
        let a = grid3d(6, 6, 6, Stencil::Star7, 1, 5);
        let with_pr = SymbolicOptions::default();
        let without_pr = SymbolicOptions {
            partition_refine: false,
            ..SymbolicOptions::default()
        };
        let sym1 = analyze(&a, &with_pr);
        let sym2 = analyze(&a, &without_pr);
        let r1 = factor_rlb_cpu(&sym1, &a.permute(&sym1.perm)).unwrap();
        let r2 = factor_rlb_cpu(&sym2, &a.permute(&sym2.perm)).unwrap();
        assert!(
            trace(&r1).blas_calls() <= trace(&r2).blas_calls(),
            "PR should not increase call count: {} vs {}",
            trace(&r1).blas_calls(),
            trace(&r2).blas_calls()
        );
    }
}
