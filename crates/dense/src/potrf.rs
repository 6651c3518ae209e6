//! Dense Cholesky factorization (`DPOTRF`), lower variant.
//!
//! Right-looking blocked algorithm: factor the diagonal block, solve the
//! panel below it against the block's transpose, then apply a symmetric
//! rank-k update to the trailing matrix — the same structure the sparse
//! supernodal algorithms replay at the supernode level.

use crate::flops::flops_potrf;
use crate::isa::{isa_dispatch, Isa};
use crate::lanes;
use crate::syrk::syrk_ln_with;
use crate::trsm::trsm_rlt_with;
use crate::NB;

/// Failure of a Cholesky factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PotrfError {
    /// Index of the first pivot that was not strictly positive.
    pub pivot: usize,
}

impl std::fmt::Display for PotrfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix not positive definite: nonpositive pivot at column {}",
            self.pivot
        )
    }
}

impl std::error::Error for PotrfError {}

/// Factors the lower triangle of the `n x n` matrix in `a` (leading
/// dimension `lda`) in place as `A = L Lᵀ`, leaving `L` in the lower
/// triangle. The strict upper triangle is neither read nor written.
pub fn potrf(n: usize, a: &mut [f64], lda: usize) -> Result<(), PotrfError> {
    let lanes = lanes::for_flops(flops_potrf(n));
    with_l11_scratch(|l11| potrf_with(Isa::host(), lanes, n, a, lda, l11))
}

/// Scratch copy of the diagonal block so the panel TRSM can borrow the
/// column span mutably (L11 and A21 share columns in column-major
/// storage and cannot be split into disjoint slices). The block size is
/// a compile-time constant, so one lazily grown thread-local buffer
/// serves every POTRF this thread ever runs — the supernodal engines
/// call this once per supernode and must not allocate each time. The
/// factorization never re-enters itself (the lanes of its TRSM and SYRK
/// run plain kernels), so the `RefCell` borrow is never contended.
pub(crate) fn with_l11_scratch<R>(f: impl FnOnce(&mut [f64]) -> R) -> R {
    std::thread_local! {
        static L11: std::cell::RefCell<Vec<f64>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }
    L11.with(|cell| {
        let mut l11 = cell.borrow_mut();
        l11.resize(NB * NB, 0.0);
        f(&mut l11)
    })
}

/// [`potrf`] on the `isa` copy of the kernels, against caller-provided
/// diagonal-block scratch (grown to `NB * NB` by the wrapper above). The
/// `NB` steps stay in order and `potf2` stays on the caller; with
/// `lanes > 1` each step's panel TRSM and trailing SYRK are split across
/// lanes, which does not change a bit.
pub(crate) fn potrf_with(
    isa: Isa,
    lanes: usize,
    n: usize,
    a: &mut [f64],
    lda: usize,
    l11: &mut [f64],
) -> Result<(), PotrfError> {
    debug_assert!(lda >= n.max(1));
    let mut k = 0;
    while k < n {
        let kb = NB.min(n - k);
        let below = n - k - kb;
        {
            // Factor the diagonal block in place.
            let blk = &mut a[k * lda + k..];
            potf2(isa, kb, blk, lda).map_err(|e| PotrfError { pivot: k + e.pivot })?;
        }
        if below > 0 {
            // Copy L11 out, then A21 := A21 * L11^{-T}.
            for j in 0..kb {
                for i in j..kb {
                    l11[j * kb + i] = a[(k + j) * lda + k + i];
                }
            }
            let a21 = &mut a[k * lda + k + kb..];
            trsm_rlt_with(isa, lanes, below, kb, &l11[..kb * kb], kb, a21, lda);
            // Trailing update A22 -= A21 * A21ᵀ. The two operands live in
            // disjoint column spans, so a split borrow works.
            let (panel_cols, trailing_cols) = a.split_at_mut((k + kb) * lda);
            let a21 = &panel_cols[k * lda + k + kb..];
            let a22 = &mut trailing_cols[k + kb..];
            syrk_ln_with(isa, lanes, below, kb, -1.0, a21, lda, 1.0, a22, lda);
        }
        k += kb;
    }
    Ok(())
}

isa_dispatch! {
    /// Unblocked Cholesky on a `n x n` block (`n <= NB` in practice).
    fn potf2(n: usize, a: &mut [f64], lda: usize) -> Result<(), PotrfError> {
        for j in 0..n {
            // d = A[j,j] - sum_{p<j} L[j,p]^2
            let mut d = a[j * lda + j];
            for p in 0..j {
                let l = a[p * lda + j];
                d -= l * l;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(PotrfError { pivot: j });
            }
            let d = d.sqrt();
            a[j * lda + j] = d;
            if j + 1 < n {
                // Column update: A[j+1.., j] = (A[j+1.., j] - L[j+1.., <j] L[j, <j]ᵀ) / d
                let (head, tail) = a.split_at_mut(j * lda);
                let col = &mut tail[j + 1..n];
                for p in 0..j {
                    let ljp = head[p * lda + j];
                    if ljp != 0.0 {
                        let lp = &head[p * lda + j + 1..p * lda + n];
                        for (c, &v) in col.iter_mut().zip(lp) {
                            *c -= ljp * v;
                        }
                    }
                }
                let inv = 1.0 / d;
                for c in col.iter_mut() {
                    *c *= inv;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::DMat;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Random SPD matrix: A = M Mᵀ + n·I.
    fn random_spd(n: usize, seed: u64) -> DMat {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = DMat::from_fn(n, n, |_, _| rng.random_range(-1.0..1.0));
        let mut a = m.matmul(&m.transpose());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    fn check_factor(n: usize, seed: u64) {
        let a = random_spd(n, seed);
        let mut l = a.clone();
        potrf(n, l.as_mut_slice(), n).unwrap();
        l.zero_upper();
        let rec = l.matmul(&l.transpose());
        let err = rec.max_abs_diff(&a);
        assert!(err < 1e-9 * n as f64, "n={n}: reconstruction error {err}");
    }

    #[test]
    fn factors_small_matrices() {
        for n in [1, 2, 3, 5, 8, 13, 31] {
            check_factor(n, n as u64);
        }
    }

    #[test]
    fn factors_blocked_sizes() {
        // Cross the NB boundary (64) to exercise the blocked path.
        for n in [64, 65, 100, 130, 200] {
            check_factor(n, n as u64 + 100);
        }
    }

    #[test]
    fn known_3x3_factor() {
        // A = [[4,12,-16],[12,37,-43],[-16,-43,98]] has L = [[2],[6,1],[-8,5,3]].
        let mut a = DMat::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ]);
        potrf(3, a.as_mut_slice(), 3).unwrap();
        assert!((a[(0, 0)] - 2.0).abs() < 1e-14);
        assert!((a[(1, 0)] - 6.0).abs() < 1e-14);
        assert!((a[(2, 0)] + 8.0).abs() < 1e-14);
        assert!((a[(1, 1)] - 1.0).abs() < 1e-14);
        assert!((a[(2, 1)] - 5.0).abs() < 1e-14);
        assert!((a[(2, 2)] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn reports_first_bad_pivot() {
        // Indefinite matrix: fails at pivot 1.
        let mut a = DMat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        let err = potrf(2, a.as_mut_slice(), 2).unwrap_err();
        assert_eq!(err.pivot, 1);
        // Zero matrix: fails at pivot 0.
        let mut z = DMat::zeros(3, 3);
        assert_eq!(potrf(3, z.as_mut_slice(), 3).unwrap_err().pivot, 0);
    }

    #[test]
    fn respects_leading_dimension() {
        let n = 20;
        let lda = 27;
        let a = random_spd(n, 5);
        let mut padded = vec![f64::NAN; lda * n];
        for j in 0..n {
            for i in 0..n {
                padded[j * lda + i] = a[(i, j)];
            }
        }
        potrf(n, &mut padded, lda).unwrap();
        let mut l = DMat::zeros(n, n);
        for j in 0..n {
            for i in j..n {
                l[(i, j)] = padded[j * lda + i];
            }
        }
        let err = l.matmul(&l.transpose()).max_abs_diff(&a);
        assert!(err < 1e-10 * n as f64);
    }
}
