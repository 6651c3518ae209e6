//! RL: the right-looking method with a full update matrix (§II-A).
//!
//! Supernodes are processed left to right. Factoring supernode `J` is a
//! DPOTRF on the diagonal block and a DTRSM on the rectangular part; the
//! entire update matrix `U_J = L₂₁ L₂₁ᵀ` is then formed by **one DSYRK**
//! into a preallocated workspace (sized for the largest update matrix in
//! the factor) and scattered into the ancestors via relative indices.

use rlchol_dense::syrk_ln;
use rlchol_perfmodel::TraceOp;
use rlchol_symbolic::SymbolicFactor;

/// Forms supernode `s`'s whole update matrix `U = L₂₁ L₂₁ᵀ` from its
/// factored panel `arr` in one coarse DSYRK, into the first `r × r`
/// entries of `upd`, and reports the SYRK to `account`. Returns those
/// entries (lower triangle valid).
pub(crate) fn rl_update_matrix<'u>(
    sym: &SymbolicFactor,
    s: usize,
    arr: &[f64],
    upd: &'u mut [f64],
    mut account: impl FnMut(&TraceOp),
) -> &'u [f64] {
    let c = sym.sn_ncols(s);
    let r = sym.sn_nrows_below(s);
    let upd = &mut upd[..r * r];
    syrk_ln(r, c, 1.0, &arr[c..], sym.sn_len(s), 0.0, upd, r);
    account(&TraceOp::Syrk { n: r, k: c });
    upd
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::FactorError;
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
