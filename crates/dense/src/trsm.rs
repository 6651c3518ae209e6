//! Triangular solves with multiple right-hand sides (`DTRSM`) and single
//! vectors (`DTRSV`).
//!
//! Only the variants the Cholesky pipeline needs are provided:
//!
//! * [`trsm_rlt`] — `X Lᵀ = B` (right, lower, transposed): panel
//!   factorization of a supernode's rectangular part;
//! * [`trsm_lln`] — `L X = B` (left, lower, no transpose): forward solve;
//! * [`trsm_llt`] — `Lᵀ X = B` (left, lower, transposed): backward solve.

use crate::flops::flops_trsm;
use crate::gemm::{gemm_view, TransB, ROW_ALIGN};
use crate::isa::{isa_dispatch, Isa};
use crate::lanes::{self, split, Axis, MatMut, MatRef};
use crate::NB;

/// Solves `X Lᵀ = B` in place: on return `b` holds `X = B L^{-T}`.
///
/// `L` is `n x n` lower triangular (strict upper ignored), `B` is `m x n`.
/// Column blocks are processed left to right; each block first receives the
/// trailing GEMM update from already-solved columns, then a small
/// unblocked solve against the diagonal block.
pub fn trsm_rlt(m: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
    let lanes = lanes::for_flops(flops_trsm(m, n));
    trsm_rlt_with(Isa::host(), lanes, m, n, l, ldl, b, ldb)
}

/// [`trsm_rlt`] on the `isa` copy of the kernels. Rows of `B` are
/// independent, so `lanes > 1` cuts `B` into row blocks and runs the
/// unchanged sweep on each.
pub(crate) fn trsm_rlt_with(
    isa: Isa,
    lanes: usize,
    m: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    debug_assert!(ldl >= n, "ldl {ldl} < n {n}");
    debug_assert!(ldb >= m, "ldb {ldb} < m {m}");
    let l = MatRef::new(l, n, n, ldl);
    let b = MatMut::new(b, m, n, ldb);
    split(b, Axis::Rows, lanes, ROW_ALIGN, &|_, b| {
        trsm_sweep(isa, l, b)
    });
}

/// The blocked right-looking sweep over the columns of `b`.
fn trsm_sweep(isa: Isa, l: MatRef<'_>, mut b: MatMut<'_>) {
    let n = b.cols();
    let mut j0 = 0;
    while j0 < n {
        let jb = NB.min(n - j0);
        // Columns [0, j0) are solved; columns [j0, j0+jb) are being solved.
        let (solved, rest) = b.rb().split_cols(j0);
        let (mut bj, _) = rest.split_cols(jb);
        if j0 > 0 {
            // B_J -= X_{<J} * L[J, <J]ᵀ
            gemm_view(
                isa,
                -1.0,
                solved.as_ref(),
                l.sub(j0, jb, 0, j0),
                TransB::Yes,
                1.0,
                bj.rb(),
            );
        }
        trsm_rlt_unblocked(isa, l.sub(j0, jb, j0, jb), bj);
        j0 += jb;
    }
}

isa_dispatch! {
    /// Unblocked `X Lᵀ = B`; `l` is the diagonal block.
    fn trsm_rlt_unblocked(l: MatRef<'_>, b: MatMut<'_>) {
        let mut b = b;
        for j in 0..b.cols() {
            // x_j = (b_j - sum_{i<j} x_i * L[j, i]) / L[j, j]
            let (done, cur) = b.rb().split_cols(j);
            let (mut cur, _) = cur.split_cols(1);
            let done = done.as_ref();
            let xj = cur.col_mut(0);
            for i in 0..j {
                let lji = l.col(i)[j];
                if lji != 0.0 {
                    for (x, &y) in xj.iter_mut().zip(done.col(i)) {
                        *x -= lji * y;
                    }
                }
            }
            let d = 1.0 / l.col(j)[j];
            for x in xj.iter_mut() {
                *x *= d;
            }
        }
    }
}

/// Solves `L X = B` in place (forward substitution on each column of `B`).
///
/// `L` is `m x m` lower triangular, `B` is `m x n`.
pub fn trsm_lln(m: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
    for j in 0..n {
        trsv_ln(m, l, ldl, &mut b[j * ldb..j * ldb + m]);
    }
}

/// Solves `Lᵀ X = B` in place (backward substitution on each column).
pub fn trsm_llt(m: usize, n: usize, l: &[f64], ldl: usize, b: &mut [f64], ldb: usize) {
    for j in 0..n {
        trsv_lt(m, l, ldl, &mut b[j * ldb..j * ldb + m]);
    }
}

/// Solves `L x = b` in place for a single vector.
pub fn trsv_ln(m: usize, l: &[f64], ldl: usize, x: &mut [f64]) {
    debug_assert!(x.len() >= m);
    for j in 0..m {
        let xj = x[j] / l[j * ldl + j];
        x[j] = xj;
        if xj != 0.0 {
            let col = &l[j * ldl + j + 1..j * ldl + m];
            for (xi, &lij) in x[j + 1..m].iter_mut().zip(col) {
                *xi -= lij * xj;
            }
        }
    }
}

/// Solves `Lᵀ x = b` in place for a single vector.
pub fn trsv_lt(m: usize, l: &[f64], ldl: usize, x: &mut [f64]) {
    debug_assert!(x.len() >= m);
    for j in (0..m).rev() {
        let col = &l[j * ldl + j + 1..j * ldl + m];
        let mut acc = 0.0;
        for (&xi, &lij) in x[j + 1..m].iter().zip(col) {
            acc += lij * xi;
        }
        x[j] = (x[j] - acc) / l[j * ldl + j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gemm_naive;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Well-conditioned random lower-triangular matrix.
    fn rand_lower(rng: &mut StdRng, n: usize, ld: usize) -> Vec<f64> {
        let mut l = vec![0.0; ld * n];
        for j in 0..n {
            for i in j..n {
                l[j * ld + i] = if i == j {
                    2.0 + rng.random_range(0.0..1.0)
                } else {
                    rng.random_range(-0.5..0.5)
                };
            }
        }
        l
    }

    #[test]
    fn trsm_rlt_inverts_multiplication() {
        let mut rng = StdRng::seed_from_u64(1);
        for &(m, n) in &[(1, 1), (5, 3), (40, 70), (33, 129), (100, 64)] {
            let ldl = n + 1;
            let ldb = m + 2;
            let l = rand_lower(&mut rng, n, ldl);
            let x_true: Vec<f64> = (0..ldb * n).map(|_| rng.random_range(-1.0..1.0)).collect();
            // B = X * Lᵀ  (i.e. B = X * op(L) with op = transpose)
            let mut b = vec![0.0; ldb * n];
            // C = A * Bᵀ with A = X (m x n), B = L (n x n) gives X Lᵀ... but
            // gemm_nt computes A * Bᵀ where stored B is n x k. Here k = n.
            gemm_naive(m, n, n, 1.0, &x_true, ldb, &l, ldl, true, 0.0, &mut b, ldb);
            trsm_rlt(m, n, &l, ldl, &mut b, ldb);
            for j in 0..n {
                for i in 0..m {
                    let err = (b[j * ldb + i] - x_true[j * ldb + i]).abs();
                    assert!(err < 1e-10, "m={m} n={n} entry ({i},{j}) err {err}");
                }
            }
        }
    }

    #[test]
    fn forward_backward_solves_invert_each_other() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = 37;
        let ldl = m;
        let l = rand_lower(&mut rng, m, ldl);
        let x_true: Vec<f64> = (0..m).map(|_| rng.random_range(-1.0..1.0)).collect();
        // b = L * (Lᵀ x)
        let mut y = x_true.clone();
        // y = Lᵀ x via naive multiply
        let mut tmp = vec![0.0; m];
        for j in 0..m {
            for i in j..m {
                tmp[j] += l[j * ldl + i] * x_true[i];
            }
        }
        y.copy_from_slice(&tmp);
        let mut b = vec![0.0; m];
        for j in 0..m {
            for i in j..m {
                b[i] += l[j * ldl + i] * y[j];
            }
        }
        // Solve L z = b, then Lᵀ x = z.
        trsv_ln(m, &l, ldl, &mut b);
        trsv_lt(m, &l, ldl, &mut b);
        for i in 0..m {
            assert!((b[i] - x_true[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn trsm_matches_trsv_per_column() {
        let mut rng = StdRng::seed_from_u64(3);
        let (m, n) = (20, 7);
        let l = rand_lower(&mut rng, m, m);
        let b0: Vec<f64> = (0..m * n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut b1 = b0.clone();
        let mut b2 = b0.clone();
        trsm_lln(m, n, &l, m, &mut b1, m);
        for j in 0..n {
            trsv_ln(m, &l, m, &mut b2[j * m..(j + 1) * m]);
        }
        assert_eq!(b1, b2);
        let mut b3 = b0.clone();
        let mut b4 = b0;
        trsm_llt(m, n, &l, m, &mut b3, m);
        for j in 0..n {
            trsv_lt(m, &l, m, &mut b4[j * m..(j + 1) * m]);
        }
        assert_eq!(b3, b4);
    }

    #[test]
    fn strict_upper_of_l_is_ignored() {
        let mut rng = StdRng::seed_from_u64(4);
        let (m, n) = (9, 5);
        let mut l = rand_lower(&mut rng, n, n);
        let b0: Vec<f64> = (0..m * n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut b1 = b0.clone();
        trsm_rlt(m, n, &l, n, &mut b1, m);
        // Poison the strict upper triangle; result must not change.
        for j in 1..n {
            for i in 0..j {
                l[j * n + i] = f64::NAN;
            }
        }
        let mut b2 = b0;
        trsm_rlt(m, n, &l, n, &mut b2, m);
        assert_eq!(b1, b2);
    }
}
