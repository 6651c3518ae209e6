//! Serial supernodal triangular sweeps — the reference arithmetic.
//!
//! Every other solve path in the subsystem (the level-set sweeps in
//! [`super::levelset`], the blocked multi-RHS variants) is defined as
//! "bit-identical to this module": per solution entry, the same
//! floating-point operations in the same order. These functions are also
//! the production path for small systems and single-lane configurations,
//! where the level-set machinery is pure overhead.

use rlchol_symbolic::SymbolicFactor;

use crate::storage::FactorData;

/// Forward substitution `L y = b`, in place.
pub fn solve_forward(sym: &SymbolicFactor, f: &FactorData, b: &mut [f64]) {
    assert_eq!(b.len(), sym.n);
    for s in 0..sym.nsup() {
        let first = sym.sn.first_col(s);
        let c = sym.sn_ncols(s);
        let len = sym.sn_len(s);
        let arr = &f.sn[s];
        // Dense forward solve on the diagonal block.
        rlchol_dense::trsv_ln(c, arr, len, &mut b[first..first + c]);
        // Propagate into below-diagonal rows: b[rows] -= L21 · y.
        let rows = &sym.rows[s];
        for lc in 0..c {
            let yj = b[first + lc];
            if yj == 0.0 {
                continue;
            }
            let col = &arr[lc * len + c..(lc + 1) * len];
            for (pos, &v) in col.iter().enumerate() {
                if v != 0.0 {
                    b[rows[pos]] -= v * yj;
                }
            }
        }
    }
}

/// Backward substitution `Lᵀ x = y`, in place.
pub fn solve_backward(sym: &SymbolicFactor, f: &FactorData, b: &mut [f64]) {
    assert_eq!(b.len(), sym.n);
    for s in (0..sym.nsup()).rev() {
        let first = sym.sn.first_col(s);
        let c = sym.sn_ncols(s);
        let len = sym.sn_len(s);
        let arr = &f.sn[s];
        let rows = &sym.rows[s];
        // Gather below-diagonal contributions, then solve the block.
        for lc in (0..c).rev() {
            let col = &arr[lc * len..(lc + 1) * len];
            let mut acc = b[first + lc];
            for li in lc + 1..c {
                acc -= col[li] * b[first + li];
            }
            for (pos, &v) in col[c..].iter().enumerate() {
                if v != 0.0 {
                    acc -= v * b[rows[pos]];
                }
            }
            b[first + lc] = acc / col[lc];
        }
    }
}

/// Full solve `(L Lᵀ) x = b` in factor ordering; returns `x`.
pub fn solve(sym: &SymbolicFactor, f: &FactorData, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    solve_forward(sym, f, &mut x);
    solve_backward(sym, f, &mut x);
    x
}

/// Forward substitution for `nrhs` right-hand sides stored column-major
/// in `b` (leading dimension `n`): the diagonal-block solves become
/// level-3 TRSM calls, the propagation a GEMM-shaped loop.
pub fn solve_forward_multi(sym: &SymbolicFactor, f: &FactorData, b: &mut [f64], nrhs: usize) {
    let n = sym.n;
    assert_eq!(b.len(), n * nrhs);
    for s in 0..sym.nsup() {
        let first = sym.sn.first_col(s);
        let c = sym.sn_ncols(s);
        let len = sym.sn_len(s);
        let arr = &f.sn[s];
        let rows = &sym.rows[s];
        for rhs in 0..nrhs {
            let col = &mut b[rhs * n..(rhs + 1) * n];
            rlchol_dense::trsv_ln(c, arr, len, &mut col[first..first + c]);
            for lc in 0..c {
                let yj = col[first + lc];
                if yj == 0.0 {
                    continue;
                }
                let lcol = &arr[lc * len + c..(lc + 1) * len];
                for (pos, &v) in lcol.iter().enumerate() {
                    if v != 0.0 {
                        col[rows[pos]] -= v * yj;
                    }
                }
            }
        }
    }
}

/// Backward substitution for `nrhs` column-major right-hand sides,
/// blocked like the forward sweep: one pass over the supernodes
/// (outer), all right-hand sides inside (inner), so each supernode's
/// panel is read once per sweep instead of once per RHS. Per-column
/// arithmetic order is identical to [`solve_backward`], so results are
/// bit-identical to solving each RHS alone.
pub fn solve_backward_multi(sym: &SymbolicFactor, f: &FactorData, b: &mut [f64], nrhs: usize) {
    let n = sym.n;
    assert_eq!(b.len(), n * nrhs);
    for s in (0..sym.nsup()).rev() {
        let first = sym.sn.first_col(s);
        let c = sym.sn_ncols(s);
        let len = sym.sn_len(s);
        let arr = &f.sn[s];
        let rows = &sym.rows[s];
        for rhs in 0..nrhs {
            let col = &mut b[rhs * n..(rhs + 1) * n];
            for lc in (0..c).rev() {
                let lcol = &arr[lc * len..(lc + 1) * len];
                let mut acc = col[first + lc];
                for li in lc + 1..c {
                    acc -= lcol[li] * col[first + li];
                }
                for (pos, &v) in lcol[c..].iter().enumerate() {
                    if v != 0.0 {
                        acc -= v * col[rows[pos]];
                    }
                }
                col[first + lc] = acc / lcol[lc];
            }
        }
    }
}

/// Full multi-RHS solve; `b` holds `nrhs` columns of length `n`.
pub fn solve_multi(sym: &SymbolicFactor, f: &FactorData, b: &[f64], nrhs: usize) -> Vec<f64> {
    let mut x = b.to_vec();
    solve_forward_multi(sym, f, &mut x, nrhs);
    solve_backward_multi(sym, f, &mut x, nrhs);
    x
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fresh::factor_rl_cpu;
    use rlchol_matgen::{grid3d, laplace2d, Stencil};
    use rlchol_symbolic::{analyze, SymbolicOptions};

    fn check_solve(a: &rlchol_sparse::SymCsc, tol: f64) {
        let sym = analyze(a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let run = factor_rl_cpu(&sym, &ap).unwrap();
        let n = a.n();
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
        let mut b = vec![0.0; n];
        ap.matvec(&x_true, &mut b);
        let x = solve(&sym, &run.factor, &b);
        let err = x
            .iter()
            .zip(&x_true)
            .fold(0.0f64, |m, (&p, &q)| m.max((p - q).abs()));
        assert!(err < tol, "solve error {err}");
    }

    #[test]
    fn solves_2d_problem() {
        check_solve(&laplace2d(9, 1), 1e-9);
    }

    #[test]
    fn solves_3d_problem() {
        check_solve(&grid3d(5, 4, 3, Stencil::Star7, 2, 2), 1e-9);
    }

    #[test]
    fn multi_rhs_matches_single_rhs() {
        let a = laplace2d(7, 8);
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let run = factor_rl_cpu(&sym, &ap).unwrap();
        let n = a.n();
        let nrhs = 3;
        let b: Vec<f64> = (0..n * nrhs)
            .map(|i| ((i * 29) % 23) as f64 - 11.0)
            .collect();
        let x_multi = solve_multi(&sym, &run.factor, &b, nrhs);
        for rhs in 0..nrhs {
            let x_single = solve(&sym, &run.factor, &b[rhs * n..(rhs + 1) * n]);
            for i in 0..n {
                assert!(
                    (x_multi[rhs * n + i] - x_single[i]).abs() < 1e-12,
                    "rhs {rhs} entry {i}"
                );
            }
        }
    }

    #[test]
    fn forward_then_backward_is_identity_on_identity_factor() {
        // A diagonal matrix with unit diagonal: L = I, solves are no-ops.
        let mut t = rlchol_sparse::TripletMatrix::new(4, 4);
        for j in 0..4 {
            t.push(j, j, 1.0);
        }
        let a = rlchol_sparse::SymCsc::from_lower_triplets(&t).unwrap();
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let run = factor_rl_cpu(&sym, &ap).unwrap();
        let b = vec![3.0, -1.0, 2.0, 0.5];
        let x = solve(&sym, &run.factor, &b);
        assert_eq!(x, b);
    }
}
