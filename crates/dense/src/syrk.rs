//! Symmetric rank-k update (`DSYRK`), lower triangle, no transpose:
//! `C := alpha * A * Aᵀ + beta * C` touching only `tril(C)`.
//!
//! This is the single call RL uses to form a supernode's entire update
//! matrix, and the per-block call RLB uses on ancestor diagonal blocks.

use crate::gemm::{gemm, TransB};
use crate::isa::{isa_dispatch, Isa};
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
    syrk_ln_with(Isa::host(), n, k, alpha, a, lda, beta, c, ldc)
}

/// [`syrk_ln`] on the `isa` copy of the kernels.
pub(crate) fn syrk_ln_with(
    isa: Isa,
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
    let mut j0 = 0;
    while j0 < n {
        let jb = NB.min(n - j0);
        // Diagonal block: small triangular kernel.
        syrk_diag_block(isa, j0, jb, k, alpha, a, lda, beta, c, ldc);
        // Sub-diagonal rectangle: plain GEMM with Bᵀ = A[J, :]ᵀ.
        let below = n - j0 - jb;
        if below > 0 {
            // C[j0+jb.., J] = alpha * A[j0+jb.., :] * A[J, :]ᵀ + beta * C
            let cj = j0 * ldc + j0 + jb;
            gemm(
                isa,
                below,
                jb,
                k,
                alpha,
                &a[j0 + jb..],
                lda,
                &a[j0..],
                lda,
                TransB::Yes,
                beta,
                &mut c[cj..],
                ldc,
            );
        }
        j0 += jb;
    }
}

isa_dispatch! {
    /// Updates the `jb x jb` lower-triangular block of `C` at `(j0, j0)`.
    fn syrk_diag_block(
        j0: usize,
        jb: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
    ) {
        // Scale the triangle by beta first.
        for j in 0..jb {
            let base = (j0 + j) * ldc + j0 + j;
            let col = &mut c[base..base + jb - j];
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
            let ap = &a[p * lda + j0..p * lda + j0 + jb];
            for j in 0..jb {
                let s = alpha * ap[j];
                if s == 0.0 {
                    continue;
                }
                let base = (j0 + j) * ldc + j0 + j;
                let col = &mut c[base..base + jb - j];
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
