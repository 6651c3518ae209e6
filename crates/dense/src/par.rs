//! Multithreaded wrappers over the serial kernels.
//!
//! The paper's CPU baseline links multithreaded MKL; these wrappers give
//! the same call-level parallelism: the `n` dimension of GEMM/SYRK is
//! split into column stripes and the stripes run on the persistent
//! [`pool`](crate::pool) (no per-call thread spawn). Column-major storage
//! makes the stripes disjoint `&mut` regions, so no synchronization is
//! needed beyond the batch join. The submitting thread executes stripes
//! too, so `threads = t` means `t` runnable lanes.

use crate::gemm::{gemm_nn, gemm_nt};
use crate::isa::Isa;
use crate::pool;
use crate::syrk::syrk_ln;
use crate::trsm::{trsm_rlt, trsm_rlt_with};
use crate::NB;

/// Splits `n` columns into at most `threads` balanced stripes of whole
/// columns; returns `(start, width)` pairs.
fn column_stripes(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let t = threads.max(1).min(n.max(1));
    let base = n / t;
    let extra = n % t;
    let mut out = Vec::with_capacity(t);
    let mut start = 0;
    for s in 0..t {
        let w = base + usize::from(s < extra);
        if w > 0 {
            out.push((start, w));
        }
        start += w;
    }
    out
}

/// Parallel `C := alpha A B + beta C` (see [`gemm_nn`]).
pub fn par_gemm_nn(
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if threads <= 1 || n < 2 {
        gemm_nn(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        return;
    }
    let stripes = column_stripes(n, threads);
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(stripes.len());
    let mut rest = c;
    let mut consumed = 0usize;
    for &(j0, w) in &stripes {
        // The caller may pass a slice capped at (n-1)·ldc + m, so the
        // last stripe takes whatever remains instead of a full stride.
        let take = ((j0 - consumed + w) * ldc).min(rest.len());
        let (mine, tail) = rest.split_at_mut(take);
        let my_c = &mut mine[(j0 - consumed) * ldc..];
        rest = tail;
        consumed = j0 + w;
        tasks.push(Box::new(move || {
            gemm_nn(m, w, k, alpha, a, lda, &b[j0 * ldb..], ldb, beta, my_c, ldc);
        }));
    }
    pool::global().run(tasks);
}

/// Parallel `C := alpha A Bᵀ + beta C` (see [`gemm_nt`]).
pub fn par_gemm_nt(
    threads: usize,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if threads <= 1 || n < 2 {
        gemm_nt(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc);
        return;
    }
    let stripes = column_stripes(n, threads);
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(stripes.len());
    let mut rest = c;
    let mut consumed = 0usize;
    for &(j0, w) in &stripes {
        // See par_gemm_nn: the final stripe may not own a full stride.
        let take = ((j0 - consumed + w) * ldc).min(rest.len());
        let (mine, tail) = rest.split_at_mut(take);
        let my_c = &mut mine[(j0 - consumed) * ldc..];
        rest = tail;
        consumed = j0 + w;
        tasks.push(Box::new(move || {
            // Rows j0..j0+w of stored B give columns j0.. of Bᵀ.
            gemm_nt(m, w, k, alpha, a, lda, &b[j0..], ldb, beta, my_c, ldc);
        }));
    }
    pool::global().run(tasks);
}

/// Stripe boundaries for a triangular update: bounds `j_s` chosen so each
/// stripe's lower-triangle area is roughly equal, deduplicated (the
/// quadratic-root balancing can clamp several bounds to the same column
/// on small `n`, which would produce empty stripes that waste pool
/// slots).
fn syrk_bounds(n: usize, threads: usize) -> Vec<usize> {
    let t = threads.min(n);
    let total = (n * (n + 1)) as f64 / 2.0;
    let mut bounds = vec![0usize];
    for s in 1..t {
        let target = total * s as f64 / t as f64;
        // Area of columns [0, j) of the triangle: n*j - j(j-1)/2 ≈ target.
        // Solve j² - (2n+1) j + 2*target = 0 for the smaller root.
        let nn = n as f64;
        let disc = ((2.0 * nn + 1.0) * (2.0 * nn + 1.0) - 8.0 * target).max(0.0);
        let j = ((2.0 * nn + 1.0 - disc.sqrt()) / 2.0).round() as usize;
        let j = j.clamp(*bounds.last().unwrap(), n);
        if j > *bounds.last().unwrap() {
            bounds.push(j);
        }
    }
    if *bounds.last().unwrap() < n {
        bounds.push(n);
    }
    bounds
}

/// Parallel `SYRK` on the lower triangle.
///
/// Column stripes of a triangular update have unequal areas, so stripes
/// are sized to balance the trailing-triangle area rather than the
/// width. Falls back to the serial kernel when fewer than two non-empty
/// stripes remain after balancing.
pub fn par_syrk_ln(
    threads: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    if threads <= 1 || n < 2 {
        syrk_ln(n, k, alpha, a, lda, beta, c, ldc);
        return;
    }
    let bounds = syrk_bounds(n, threads);
    if bounds.len() < 3 {
        // Fewer than 2 non-empty stripes: striping buys nothing.
        syrk_ln(n, k, alpha, a, lda, beta, c, ldc);
        return;
    }
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(bounds.len() - 1);
    let mut rest = c;
    let mut consumed = 0usize;
    for s in 0..bounds.len() - 1 {
        let (j0, j1) = (bounds[s], bounds[s + 1]);
        let w = j1 - j0;
        debug_assert!(w > 0, "syrk_bounds produced an empty stripe");
        let take = ((j0 - consumed + w) * ldc).min(rest.len());
        let (mine, tail) = rest.split_at_mut(take);
        let my_c = &mut mine[(j0 - consumed) * ldc..];
        rest = tail;
        consumed = j1;
        tasks.push(Box::new(move || {
            // The stripe holds full-height columns [j0, j1) of C, so
            // local row indices equal global row indices: the diagonal
            // block starts at row j0 and the rectangle below at row j1.
            // Diagonal w x w triangle:
            syrk_ln(w, k, alpha, &a[j0..], lda, beta, &mut my_c[j0..], ldc);
            // Rectangle below: rows j1..n.
            let below = n - j1;
            if below > 0 {
                gemm_nt(
                    below,
                    w,
                    k,
                    alpha,
                    &a[j1..],
                    lda,
                    &a[j0..],
                    lda,
                    beta,
                    &mut my_c[j1..],
                    ldc,
                );
            }
        }));
    }
    pool::global().run(tasks);
}

/// Parallel `X Lᵀ = B` in place (see [`trsm_rlt`]): the blocked
/// right-looking column sweep is kept serial (each block depends on all
/// previous ones), but the dominant trailing GEMM update of each block —
/// `O(m·n²)` of the `O(m·n²)` total — runs striped on the pool. The
/// small per-block unblocked solves stay serial.
pub fn par_trsm_rlt(
    threads: usize,
    m: usize,
    n: usize,
    l: &[f64],
    ldl: usize,
    b: &mut [f64],
    ldb: usize,
) {
    if threads <= 1 || n <= NB || m == 0 {
        trsm_rlt(m, n, l, ldl, b, ldb);
        return;
    }
    trsm_rlt_with(Isa::host(), threads, m, n, l, ldl, b, ldb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    #[test]
    fn stripes_cover_exactly() {
        for n in [0, 1, 5, 17] {
            for t in [1, 2, 3, 8, 40] {
                let s = column_stripes(n, t);
                let covered: usize = s.iter().map(|&(_, w)| w).sum();
                assert_eq!(covered, n);
                let mut pos = 0;
                for &(j0, w) in &s {
                    assert_eq!(j0, pos);
                    pos += w;
                }
            }
        }
    }

    #[test]
    fn syrk_bounds_have_no_empty_stripes() {
        for n in [2usize, 3, 5, 8, 83, 311] {
            for t in [2usize, 3, 7, 16, 64] {
                let b = syrk_bounds(n, t);
                assert_eq!(*b.first().unwrap(), 0);
                assert_eq!(*b.last().unwrap(), n);
                for w in b.windows(2) {
                    assert!(w[0] < w[1], "empty stripe in bounds {b:?} (n={n}, t={t})");
                }
            }
        }
    }

    #[test]
    fn tiny_syrk_with_many_threads_falls_back_cleanly() {
        // n=2 with 16 threads used to produce duplicate clamped bounds;
        // now it must still compute the right answer.
        let mut rng = StdRng::seed_from_u64(9);
        for n in [2usize, 3, 4] {
            let k = 3;
            let a = rand_vec(&mut rng, n * k);
            let c0 = rand_vec(&mut rng, n * n);
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            syrk_ln(n, k, -1.0, &a, n, 1.0, &mut c1, n);
            par_syrk_ln(16, n, k, -1.0, &a, n, 1.0, &mut c2, n);
            for j in 0..n {
                for i in j..n {
                    let (x, y) = (c1[j * n + i], c2[j * n + i]);
                    assert!((x - y).abs() < 1e-12, "n={n} ({i},{j}): {x} vs {y}");
                }
            }
        }
    }

    #[test]
    fn par_gemm_matches_serial() {
        let mut rng = StdRng::seed_from_u64(10);
        let (m, n, k) = (33, 29, 17);
        let a = rand_vec(&mut rng, m * k);
        let b = rand_vec(&mut rng, k * n);
        let bt = rand_vec(&mut rng, n * k);
        let c0 = rand_vec(&mut rng, m * n);
        for threads in [1, 2, 4, 7] {
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            gemm_nn(m, n, k, -1.0, &a, m, &b, k, 1.0, &mut c1, m);
            par_gemm_nn(threads, m, n, k, -1.0, &a, m, &b, k, 1.0, &mut c2, m);
            assert_eq!(c1, c2, "gemm_nn threads={threads}");

            let mut c3 = c0.clone();
            let mut c4 = c0.clone();
            gemm_nt(m, n, k, 2.0, &a, m, &bt, n, 0.5, &mut c3, m);
            par_gemm_nt(threads, m, n, k, 2.0, &a, m, &bt, n, 0.5, &mut c4, m);
            assert_eq!(c3, c4, "gemm_nt threads={threads}");
        }
    }

    #[test]
    fn par_syrk_matches_serial() {
        let mut rng = StdRng::seed_from_u64(11);
        let (n, k) = (83, 21);
        let a = rand_vec(&mut rng, n * k);
        let c0 = rand_vec(&mut rng, n * n);
        for threads in [1, 2, 3, 5, 16] {
            let mut c1 = c0.clone();
            let mut c2 = c0.clone();
            syrk_ln(n, k, -1.0, &a, n, 1.0, &mut c1, n);
            par_syrk_ln(threads, n, k, -1.0, &a, n, 1.0, &mut c2, n);
            // Compare only the lower triangle (upper is untouched by both).
            for j in 0..n {
                for i in j..n {
                    let (x, y) = (c1[j * n + i], c2[j * n + i]);
                    assert!(
                        (x - y).abs() < 1e-12,
                        "threads={threads} ({i},{j}): {x} vs {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn par_trsm_matches_serial() {
        let mut rng = StdRng::seed_from_u64(12);
        // n crosses several NB blocks so the parallel path engages.
        let (m, n) = (45, 3 * NB + 7);
        let ldl = n + 1;
        let ldb = m + 2;
        let mut l = vec![0.0; ldl * n];
        for j in 0..n {
            for i in j..n {
                l[j * ldl + i] = if i == j {
                    2.0 + rng.random_range(0.0..1.0)
                } else {
                    rng.random_range(-0.5..0.5)
                };
            }
        }
        let b0 = rand_vec(&mut rng, ldb * n);
        for threads in [1, 2, 4, 8] {
            let mut b1 = b0.clone();
            let mut b2 = b0.clone();
            trsm_rlt(m, n, &l, ldl, &mut b1, ldb);
            par_trsm_rlt(threads, m, n, &l, ldl, &mut b2, ldb);
            let worst = crate::mat::max_abs_diff(&b1, &b2);
            assert!(worst < 1e-11, "threads={threads}: diff {worst}");
        }
    }
}
