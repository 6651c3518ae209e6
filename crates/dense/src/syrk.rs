//! Symmetric rank-k update (`DSYRK`), lower triangle, no transpose:
//! `C := alpha * A * Aᵀ + beta * C` touching only `tril(C)`.
//!
//! This is the single call RL uses to form a supernode's entire update
//! matrix, and the per-block call RLB uses on ancestor diagonal blocks.

use crate::flops::flops_syrk;
use crate::gemm::{gemm_view, TransB};
use crate::isa::{isa_dispatch, Isa};
use crate::lanes::{self, split, Axis, MatMut, MatRef};
use crate::NB;

/// `C := alpha * A Aᵀ + beta * C` on the lower triangle.
///
/// `A` is `n x k`, `C` is `n x n`; only entries with `i >= j` are read or
/// written.
pub fn syrk_ln(
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    let lanes = lanes::for_flops(flops_syrk(n, k));
    syrk_ln_with(Isa::host(), lanes, n, k, alpha, a, lda, beta, c, ldc)
}

/// [`syrk_ln`] on the `isa` copy of the kernels. With `lanes > 1` every
/// `NB` column block is a task of its own, making exactly the calls the
/// one-lane sweep makes for that block.
pub(crate) fn syrk_ln_with(
    isa: Isa,
    lanes: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if n == 0 {
        return;
    }
    debug_assert!(lda >= n, "lda {lda} < n {n}");
    debug_assert!(ldc >= n, "ldc {ldc} < n {n}");
    let a = MatRef::new(a, n, k, lda);
    let c = MatMut::new(c, n, n, ldc);
    let parts = if lanes > 1 { n.div_ceil(NB) } else { 1 };
    split(c, Axis::Cols, parts, NB, &|j0, c| {
        syrk_cols(isa, j0, alpha, a, beta, c)
    });
}

/// The lower-triangle update of columns `[j0, j0 + c.cols())`, which `c`
/// holds in full height, one `NB` block at a time: the diagonal triangle,
/// then the rectangle below it as a GEMM with `Bᵀ = A[J, :]ᵀ`.
fn syrk_cols(isa: Isa, j0: usize, alpha: f64, a: MatRef<'_>, beta: f64, mut c: MatMut<'_>) {
    let (n, k) = (a.rows(), a.cols());
    let mut jj = 0;
    while jj < c.cols() {
        let jb = NB.min(c.cols() - jj);
        let g = j0 + jj;
        let (_, rest) = c.rb().split_cols(jj);
        let (mut cb, _) = rest.split_cols(jb);
        syrk_diag_block(isa, g, jb, k, alpha, a, beta, cb.rb());
        let below = n - g - jb;
        if below > 0 {
            // C[g+jb.., J] = alpha * A[g+jb.., :] * A[J, :]ᵀ + beta * C
            let (_, cbelow) = cb.split_rows(g + jb);
            gemm_view(
                isa,
                alpha,
                a.sub(g + jb, below, 0, k),
                a.sub(g, jb, 0, k),
                TransB::Yes,
                beta,
                cbelow,
            );
        }
        jj += jb;
    }
}

isa_dispatch! {
    /// Updates the `jb x jb` lower triangle at `(j0, j0)`; column `j` of
    /// `c` is column `j0 + j` of `C`, in full height.
    fn syrk_diag_block(
        j0: usize,
        jb: usize,
        k: usize,
        alpha: f64,
        a: MatRef<'_>,
        beta: f64,
        c: MatMut<'_>,
    ) {
        let mut c = c;
        // Scale the triangle by beta first.
        for j in 0..jb {
            let col = &mut c.col_mut(j)[j0 + j..j0 + jb];
            if beta == 0.0 {
                col.fill(0.0);
            } else if beta != 1.0 {
                for v in col {
                    *v *= beta;
                }
            }
        }
        if alpha == 0.0 || k == 0 {
            return;
        }
        // Rank-1 accumulation over the k dimension; columns of A are
        // contiguous so the inner loop vectorizes.
        for p in 0..k {
            let ap = &a.col(p)[j0..j0 + jb];
            for j in 0..jb {
                let s = alpha * ap[j];
                if s == 0.0 {
                    continue;
                }
                let col = &mut c.col_mut(j)[j0 + j..j0 + jb];
                for (ci, &av) in col.iter_mut().zip(&ap[j..]) {
                    *ci += s * av;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn naive_syrk(
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
    ) {
        for j in 0..n {
            for i in j..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[p * lda + i] * a[p * lda + j];
                }
                c[j * ldc + i] = beta * c[j * ldc + i] + alpha * acc;
            }
        }
    }

    fn check(n: usize, k: usize, alpha: f64, beta: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lda = n + 2;
        let ldc = n + 1;
        let a: Vec<f64> = (0..lda * k.max(1))
            .map(|_| rng.random_range(-1.0..1.0))
            .collect();
        let c0: Vec<f64> = (0..ldc * n).map(|_| rng.random_range(-1.0..1.0)).collect();
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        syrk_ln(n, k, alpha, &a, lda, beta, &mut c1, ldc);
        naive_syrk(n, k, alpha, &a, lda, beta, &mut c2, ldc);
        for j in 0..n {
            // Lower triangle matches.
            for i in j..n {
                let err = (c1[j * ldc + i] - c2[j * ldc + i]).abs();
                assert!(
                    err < 1e-11 * (k as f64 + 1.0),
                    "n={n} k={k} ({i},{j}): {err}"
                );
            }
            // Strict upper triangle untouched.
            for i in 0..j {
                assert_eq!(c1[j * ldc + i], c0[j * ldc + i], "upper ({i},{j}) modified");
            }
        }
    }

    #[test]
    fn matches_reference_small() {
        for &(n, k) in &[(1, 1), (3, 5), (8, 8), (17, 4), (64, 64)] {
            check(n, k, -1.0, 1.0, n as u64 * 31 + k as u64);
        }
    }

    #[test]
    fn matches_reference_across_blocks() {
        for &(n, k) in &[(65, 40), (130, 7), (200, 100)] {
            check(n, k, -1.0, 1.0, n as u64);
            check(n, k, 0.5, 0.0, n as u64 + 1);
        }
    }

    #[test]
    fn k_zero_only_scales() {
        check(10, 0, 1.0, 0.5, 9);
    }
}
