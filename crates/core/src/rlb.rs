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
//! The sweep itself ([`rlb_target_runs`] + [`rlb_run_updates`]) and the
//! direct update of one target run (`rlb_apply_run`) are shared by the
//! CPU tree executor and the GPU engines' CPU path, which differ only in
//! scheduling, accounting and lanes — the relative index arithmetic and
//! the update kernels live here and nowhere else.

use rlchol_dense::pool::ThreadPool;
use rlchol_dense::{gemm_nt, syrk_ln};
use rlchol_perfmodel::TraceOp;
use rlchol_symbolic::relind::relative_index_of;
use rlchol_symbolic::SymbolicFactor;

use crate::assemble::fan_out;

/// A maximal run of consecutive row blocks of one source supernode aimed
/// at a single target supernode, with the target geometry resolved once.
///
/// Blocks are listed in ascending row order and targets are ancestors in
/// ascending order too, so each target owns exactly one run — callers may
/// treat runs as disjoint (`split_at_mut`, one lock, one pool job).
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

/// Supernode `s`'s whole direct update with one `pool` job per target
/// run ([`fan_out`]): runs target disjoint ancestor arrays, so the
/// fan-out is lock-free and bit-identical to the serial sweep. The
/// kernels are reported to `account` on the calling thread, in sweep
/// order, as the runs are handed out.
pub(crate) fn rlb_update_pool(
    pool: &ThreadPool,
    sym: &SymbolicFactor,
    data: &mut [Vec<f64>],
    s: usize,
    mut account: impl FnMut(&TraceOp),
) {
    // Targets are strict ancestors (> s), so a split borrow separates
    // the source panel from the targets.
    let (head, tail) = data.split_at_mut(s + 1);
    let src: &[f64] = &head[s];
    let units = rlb_target_runs(sym, s).map(|run| {
        rlb_run_ops(sym, s, &run, &mut account);
        (run.target - s - 1, run)
    });
    fan_out(pool, tail, units, |run, parr| {
        rlb_apply_run(sym, s, src, parr, &run, |_| {});
        0
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fresh::{factor_rl_cpu, factor_rlb_cpu};
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
        assert!(rlb.trace.blas_calls() >= rl.trace.blas_calls());
    }

    #[test]
    fn rlb_has_no_assembly_records() {
        // The defining feature: direct updates, no scatter step.
        let a = laplace2d(8, 4);
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let run = factor_rlb_cpu(&sym, &ap).unwrap();
        assert!(run
            .trace
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
            r1.trace.blas_calls() <= r2.trace.blas_calls(),
            "PR should not increase call count: {} vs {}",
            r1.trace.blas_calls(),
            r2.trace.blas_calls()
        );
    }
}
