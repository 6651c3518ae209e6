//! The supernodal triangular sweeps: one serial body for any number of
//! right-hand sides.
//!
//! Right-hand sides are `k` columns of length `n`, stored column-major.
//! Per supernode the forward sweep solves the diagonal block, adds the
//! below-diagonal contribution `L₂₁ y` of every column into a dense
//! buffer of `r` entries per right-hand side (`r` the supernode's
//! below-diagonal rows) and scatters the buffer once. The backward sweep
//! gathers the `r` solved entries once, subtracts `L₂₁ᵀ g` from the
//! block's entries and solves the diagonal block. Each panel column is
//! read once per sweep whatever `k`, and no step's order of
//! floating-point operations depends on `k`: column `j` of a `k`-wide
//! solve is bit-identical to solving column `j` alone.

use rlchol_symbolic::SymbolicFactor;

use crate::storage::FactorData;

/// `scratch[..len]`, grown first if it is shorter (never shrunk).
pub(crate) fn scratch_of(scratch: &mut Vec<f64>, len: usize) -> &mut [f64] {
    if scratch.len() < len {
        scratch.resize(len, 0.0);
    }
    &mut scratch[..len]
}

/// Forward substitution `L Y = B` in place on the `n × k` block `b`.
/// `scratch` grows to the largest below-diagonal row count times `k`
/// (at most `n · k`) and is never shrunk.
pub fn solve_forward(
    sym: &SymbolicFactor,
    f: &FactorData,
    b: &mut [f64],
    k: usize,
    scratch: &mut Vec<f64>,
) {
    let n = sym.n;
    assert_eq!(b.len(), n * k);
    if k == 0 {
        return;
    }
    for s in 0..sym.nsup() {
        let first = sym.sn.first_col(s);
        let c = sym.sn_ncols(s);
        let len = sym.sn_len(s);
        let r = len - c;
        let arr = &f.sn[s];
        rlchol_dense::trsm_lln(c, k, arr, len, &mut b[first..], n);
        if r == 0 {
            continue;
        }
        // t_j = L₂₁ · y_j, column by column of the panel.
        let t = scratch_of(scratch, r * k);
        t.fill(0.0);
        for lc in 0..c {
            let col = &arr[lc * len + c..(lc + 1) * len];
            for (j, tj) in t.chunks_exact_mut(r).enumerate() {
                let y = b[j * n + first + lc];
                for (ti, &v) in tj.iter_mut().zip(col) {
                    *ti += v * y;
                }
            }
        }
        let rows = &sym.rows[s];
        for (bj, tj) in b.chunks_exact_mut(n).zip(t.chunks_exact(r)) {
            for (&i, &v) in rows.iter().zip(tj) {
                bj[i] -= v;
            }
        }
    }
}

/// Backward substitution `Lᵀ X = Y` in place on the `n × k` block `b`;
/// `scratch` as for [`solve_forward`].
pub fn solve_backward(
    sym: &SymbolicFactor,
    f: &FactorData,
    b: &mut [f64],
    k: usize,
    scratch: &mut Vec<f64>,
) {
    let n = sym.n;
    assert_eq!(b.len(), n * k);
    if k == 0 {
        return;
    }
    for s in (0..sym.nsup()).rev() {
        let first = sym.sn.first_col(s);
        let c = sym.sn_ncols(s);
        let len = sym.sn_len(s);
        let r = len - c;
        let arr = &f.sn[s];
        if r > 0 {
            let rows = &sym.rows[s];
            let g = scratch_of(scratch, r * k);
            for (gj, bj) in g.chunks_exact_mut(r).zip(b.chunks_exact(n)) {
                for (gi, &i) in gj.iter_mut().zip(rows) {
                    *gi = bj[i];
                }
            }
            for lc in 0..c {
                let col = &arr[lc * len + c..(lc + 1) * len];
                for (j, gj) in g.chunks_exact(r).enumerate() {
                    let dot = col.iter().zip(gj).fold(0.0, |acc, (&v, &x)| acc + v * x);
                    b[j * n + first + lc] -= dot;
                }
            }
        }
        rlchol_dense::trsm_llt(c, k, arr, len, &mut b[first..], n);
    }
}

/// Full solve `(L Lᵀ) x = b` in factor ordering; returns `x`.
pub fn solve(sym: &SymbolicFactor, f: &FactorData, b: &[f64]) -> Vec<f64> {
    let mut x = b.to_vec();
    let mut scratch = Vec::new();
    solve_forward(sym, f, &mut x, 1, &mut scratch);
    solve_backward(sym, f, &mut x, 1, &mut scratch);
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
    fn multi_rhs_matches_single_rhs_bitwise() {
        let a = laplace2d(7, 8);
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let run = factor_rl_cpu(&sym, &ap).unwrap();
        let n = a.n();
        let nrhs = 3;
        let b: Vec<f64> = (0..n * nrhs)
            .map(|i| ((i * 29) % 23) as f64 - 11.0)
            .collect();
        let mut x_multi = b.clone();
        let mut scratch = Vec::new();
        solve_forward(&sym, &run.factor, &mut x_multi, nrhs, &mut scratch);
        solve_backward(&sym, &run.factor, &mut x_multi, nrhs, &mut scratch);
        for rhs in 0..nrhs {
            let x_single = solve(&sym, &run.factor, &b[rhs * n..(rhs + 1) * n]);
            assert_eq!(&x_multi[rhs * n..(rhs + 1) * n], &x_single[..], "rhs {rhs}");
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
