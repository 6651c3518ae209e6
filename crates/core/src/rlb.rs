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
//! The sweep itself ([`rlb_target_runs`] + [`rlb_run_updates`]) is shared
//! with the task-parallel scheduler and the GPU engines' CPU path, which
//! differ only in locking, tracing and kernel dispatch — the relative
//! index arithmetic lives here and nowhere else.

use std::time::Instant;

use rlchol_dense::{gemm_nt, syrk_ln};
use rlchol_perfmodel::TraceOp;
use rlchol_sparse::SymCsc;
use rlchol_symbolic::relind::relative_index_of;
use rlchol_symbolic::SymbolicFactor;

use crate::engine::{factor_panel, CpuRun};
use crate::error::FactorError;
use crate::registry::EngineWorkspace;

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

/// Factors `a` (permuted into factor order) with CPU-only RLB, drawing
/// factor storage and scratch from `ws` (recycled storage is reused, no
/// reallocation).
pub(crate) fn factor_rlb_cpu_ws(
    sym: &SymbolicFactor,
    a: &SymCsc,
    ws: &mut EngineWorkspace,
) -> Result<CpuRun, FactorError> {
    let t0 = Instant::now();
    let mut data = ws.take_factor(sym, a);
    let mut trace = ws.take_trace();

    for s in 0..sym.nsup() {
        let c = sym.sn_ncols(s);
        let r = sym.sn_nrows_below(s);
        let len = sym.sn_len(s);
        let first = sym.sn.first_col(s);
        {
            let arr = &mut data.sn[s];
            factor_panel(arr, len, c, r, &mut ws.l11).map_err(|pivot| {
                FactorError::NotPositiveDefinite {
                    column: first + pivot,
                }
            })?;
        }
        trace.push(TraceOp::Potrf { n: c });
        if r == 0 {
            continue;
        }
        trace.push(TraceOp::Trsm { m: r, n: c });

        // Per-block direct updates. Targets are strict ancestors (> s),
        // so a split borrow separates the source panel from the targets.
        let (head, tail) = data.sn.split_at_mut(s + 1);
        let src = head.last().expect("source supernode exists");
        for run in rlb_target_runs(sym, s) {
            let parr = &mut tail[run.target - s - 1];
            rlb_run_updates(sym, s, c, &run, |u| {
                if u.diagonal {
                    // Diagonal part L[B, B] via DSYRK.
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
                    trace.push(TraceOp::Syrk { n: u.n, k: c });
                } else {
                    // Lower part L[B′, B] via DGEMM.
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
                    trace.push(TraceOp::Gemm {
                        m: u.m,
                        n: u.n,
                        k: c,
                    });
                }
            });
        }
    }
    Ok(CpuRun {
        factor: data,
        trace,
        wall: t0.elapsed(),
    })
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
