//! RL: the right-looking method with a full update matrix (§II-A).
//!
//! Supernodes are processed left to right. Factoring supernode `J` is a
//! DPOTRF on the diagonal block and a DTRSM on the rectangular part; the
//! entire update matrix `U_J = L₂₁ L₂₁ᵀ` is then formed by **one DSYRK**
//! into a preallocated workspace (sized for the largest update matrix in
//! the factor) and scattered into the ancestors via relative indices.

use std::time::Instant;

use rlchol_dense::syrk_ln;
use rlchol_perfmodel::TraceOp;
use rlchol_sparse::SymCsc;
use rlchol_symbolic::SymbolicFactor;

use crate::assemble::assemble_update;
use crate::engine::{panel_step, CpuRun};
use crate::error::FactorError;
use crate::registry::EngineWorkspace;

/// Forms supernode `s`'s whole update matrix `U = L₂₁ L₂₁ᵀ` from its
/// factored panel `arr` in one coarse DSYRK, into `upd` (grown to
/// `r × r`, never shrunk), and reports the SYRK to `account`. Returns the
/// `r × r` matrix (lower triangle valid).
pub(crate) fn rl_update_matrix<'u>(
    sym: &SymbolicFactor,
    s: usize,
    arr: &[f64],
    upd: &'u mut Vec<f64>,
    mut account: impl FnMut(&TraceOp),
) -> &'u [f64] {
    let c = sym.sn_ncols(s);
    let r = sym.sn_nrows_below(s);
    if upd.len() < r * r {
        upd.resize(r * r, 0.0);
    }
    syrk_ln(
        r,
        c,
        1.0,
        &arr[c..],
        sym.sn_len(s),
        0.0,
        &mut upd[..r * r],
        r,
    );
    account(&TraceOp::Syrk { n: r, k: c });
    &upd[..r * r]
}

/// Factors `a` (permuted into factor order) with CPU-only RL, drawing
/// factor storage and scratch from `ws` (recycled storage is reused, no
/// reallocation).
pub(crate) fn factor_rl_cpu_ws(
    sym: &SymbolicFactor,
    a: &SymCsc,
    ws: &mut EngineWorkspace,
) -> Result<CpuRun, FactorError> {
    let t0 = Instant::now();
    let mut data = ws.take_factor(sym, a);
    let mut trace = ws.take_trace();
    // "The temporary working storage is preallocated so that it can store
    // the largest update matrix during the factorization." (§II-A)
    ws.upd_mut(sym.max_update_matrix_entries());

    for s in 0..sym.nsup() {
        panel_step(sym, s, &mut data.sn[s], &mut ws.l11, |op| trace.push(*op))?;
        let r = sym.sn_nrows_below(s);
        if r > 0 {
            let upd = rl_update_matrix(sym, s, &data.sn[s], &mut ws.upd, |op| trace.push(*op));
            let entries = assemble_update(sym, &mut data.sn, s, upd, r);
            trace.push(TraceOp::Assemble { entries });
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
    use crate::fresh::factor_rl_cpu;
    use rlchol_matgen::laplace2d;
    use rlchol_sparse::TripletMatrix;
    use rlchol_symbolic::{analyze, SymbolicOptions};

    #[test]
    fn factors_small_spd_with_tiny_residual() {
        let a = laplace2d(8, 3);
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let run = factor_rl_cpu(&sym, &ap).unwrap();
        let res = run.factor.residual(&sym, &ap, 3);
        assert!(res < 1e-12, "residual {res}");
        assert!(run.trace.blas_calls() > 0);
    }

    #[test]
    fn rejects_indefinite_matrices() {
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(1, 1, 1.0);
        t.push(2, 2, 1.0);
        t.push(1, 0, 5.0); // breaks positive definiteness
        let a = rlchol_sparse::SymCsc::from_lower_triplets(&t).unwrap();
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        assert!(matches!(
            factor_rl_cpu(&sym, &ap),
            Err(FactorError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn trace_counts_one_syrk_per_updating_supernode() {
        let a = laplace2d(6, 1);
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let run = factor_rl_cpu(&sym, &ap).unwrap();
        let syrks = run
            .trace
            .ops
            .iter()
            .filter(|o| matches!(o, TraceOp::Syrk { .. }))
            .count();
        let updating = (0..sym.nsup()).filter(|&s| !sym.rows[s].is_empty()).count();
        assert_eq!(syrks, updating);
    }

    #[test]
    fn works_without_merge_or_pr() {
        let a = laplace2d(7, 2);
        let opts = SymbolicOptions {
            merge: false,
            partition_refine: false,
            ..SymbolicOptions::default()
        };
        let sym = analyze(&a, &opts);
        let ap = a.permute(&sym.perm);
        let run = factor_rl_cpu(&sym, &ap).unwrap();
        assert!(run.factor.residual(&sym, &ap, 2) < 1e-12);
    }
}
