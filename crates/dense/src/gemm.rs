//! General matrix-matrix multiply (`DGEMM`) with packing and a
//! register-blocked micro-kernel.
//!
//! Layout follows the classic GotoBLAS/BLIS decomposition: the `k` and `m`
//! dimensions are tiled into `KC x MC` panels packed into contiguous
//! buffers, and an `MR x NR` micro-kernel accumulates into registers. Edge
//! tiles are handled by zero-padding the packed panels and masking the
//! write-back, so the hot loop is branch-free.
//!
//! Each entry of `C` gets `alpha * acc` added once per `KC` block, where
//! `acc` sums `a[i,p] * b[p,j]` over the block's `p` in order. The blocked
//! loop (packing, macro- and micro-kernel) is compiled once per vector
//! unit and chosen at run time (see the crate docs); the copies keep
//! that arithmetic, so they agree to the last bit:
//!
//! * Rust never contracts `a * b + c` into an FMA, so every copy rounds
//!   the product and the sum separately;
//! * `KC` fixes where the sum over `k` is split, so it is not tuned per
//!   vector unit — a different `KC` is a different result;
//! * the dispatch sits inside the `PACK` thread-local closure, around the
//!   loops themselves: a closure is a function of its own, so a
//!   `#[target_feature]` copy wrapped around it would still call
//!   baseline loops.

use crate::isa::{isa_dispatch, Isa};

/// Micro-tile rows (register blocking in the `m` dimension).
pub const MR: usize = 8;
/// Micro-tile columns (register blocking in the `n` dimension).
pub const NR: usize = 4;
/// Cache block in the `m` dimension.
pub const MC: usize = 256;
/// Cache block in the `k` dimension.
pub const KC: usize = 256;
/// Cache block in the `n` dimension.
pub const NC: usize = 1024;

/// Whether the second operand of [`gemm`] is transposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TransB {
    No,
    Yes,
}

/// `C := alpha * A * B + beta * C` where `A` is `m x k`, `B` is `k x n` and
/// `C` is `m x n`, all column-major with the given leading dimensions.
pub fn gemm_nn(
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
    gemm(
        Isa::host(),
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        TransB::No,
        beta,
        c,
        ldc,
    )
}

/// `C := alpha * A * Bᵀ + beta * C` where `A` is `m x k`, `B` is `n x k`
/// (so `Bᵀ` is `k x n`) and `C` is `m x n`.
///
/// This is the `DGEMM('N','T', ...)` form the RLB update loop issues.
pub fn gemm_nt(
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
    gemm(
        Isa::host(),
        m,
        n,
        k,
        alpha,
        a,
        lda,
        b,
        ldb,
        TransB::Yes,
        beta,
        c,
        ldc,
    )
}

/// Scales the `m x n` block of `c` by `beta` (treating `beta == 0` as an
/// overwrite so uninitialized storage never propagates NaNs).
fn scale_c(m: usize, n: usize, beta: f64, c: &mut [f64], ldc: usize) {
    if beta == 1.0 {
        return;
    }
    for j in 0..n {
        let col = &mut c[j * ldc..j * ldc + m];
        if beta == 0.0 {
            col.fill(0.0);
        } else {
            for v in col {
                *v *= beta;
            }
        }
    }
}

/// `C := alpha * A * op(B) + beta * C` on the `isa` copy of the blocked
/// loop.
pub(crate) fn gemm(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    tb: TransB,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    debug_assert!(lda >= m.max(1));
    debug_assert!(ldc >= m.max(1));
    scale_c(m, n, beta, c, ldc);
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }

    // Packed panels, zero-padded to multiples of MR / NR. The buffers are
    // thread-local and reused across calls, so the supernodal update loop
    // (thousands of GEMMs) allocates only on each thread's first call.
    PACK.with(|cell| {
        let (apack, bpack) = &mut *cell.borrow_mut();
        apack.resize(MC.div_ceil(MR) * MR * KC, 0.0);
        bpack.resize(NC.div_ceil(NR) * NR * KC, 0.0);
        blocked(
            isa, m, n, k, alpha, a, lda, b, ldb, tb, c, ldc, apack, bpack,
        );
    });
}

isa_dispatch! {
    /// The `NC` / `KC` / `MC` loop nest: pack a panel of `op(B)`, then
    /// panels of `A`, and run the macro-kernel on each pair.
    fn blocked(
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: &[f64],
        ldb: usize,
        tb: TransB,
        c: &mut [f64],
        ldc: usize,
        apack: &mut [f64],
        bpack: &mut [f64],
    ) {
        let mut jc = 0;
        while jc < n {
            let nc = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kc = KC.min(k - pc);
                pack_b(bpack, b, ldb, tb, pc, jc, kc, nc);
                let mut ic = 0;
                while ic < m {
                    let mc = MC.min(m - ic);
                    pack_a(apack, a, lda, ic, pc, mc, kc);
                    macro_kernel(mc, nc, kc, alpha, apack, bpack, c, ldc, ic, jc);
                    ic += MC;
                }
                pc += KC;
            }
            jc += NC;
        }
    }
}

std::thread_local! {
    /// Per-thread `(apack, bpack)` panels: the packing sizes are
    /// compile-time constants, so one lazily grown pair serves every GEMM
    /// this thread ever runs. `gemm` never re-enters itself, so the
    /// `RefCell` borrow is never contended.
    static PACK: std::cell::RefCell<(Vec<f64>, Vec<f64>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new())) };
}

/// Packs the `mc x kc` block of `A` starting at `(ic, pc)` into MR-row
/// strips: strip `s` holds rows `ic + s*MR ..`, stored column-by-column.
#[inline(always)]
fn pack_a(apack: &mut [f64], a: &[f64], lda: usize, ic: usize, pc: usize, mc: usize, kc: usize) {
    let strips = mc.div_ceil(MR);
    for s in 0..strips {
        let i0 = s * MR;
        let rows = MR.min(mc - i0);
        let dst_base = s * MR * kc;
        for p in 0..kc {
            let src = (pc + p) * lda + ic + i0;
            let dst = dst_base + p * MR;
            apack[dst..dst + rows].copy_from_slice(&a[src..src + rows]);
            // Zero-pad the strip's tail rows.
            apack[dst + rows..dst + MR].fill(0.0);
        }
    }
}

/// Packs the `kc x nc` block of `op(B)` starting at `(pc, jc)` into NR-col
/// strips: strip `s` holds columns `jc + s*NR ..`, stored row-by-row.
#[inline(always)]
fn pack_b(
    bpack: &mut [f64],
    b: &[f64],
    ldb: usize,
    tb: TransB,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
) {
    let strips = nc.div_ceil(NR);
    for s in 0..strips {
        let j0 = s * NR;
        let cols = NR.min(nc - j0);
        let dst_base = s * NR * kc;
        for p in 0..kc {
            let dst = dst_base + p * NR;
            match tb {
                TransB::No => {
                    // op(B)[p, j] = B[pc + p, jc + j]
                    for j in 0..cols {
                        bpack[dst + j] = b[(jc + j0 + j) * ldb + pc + p];
                    }
                }
                TransB::Yes => {
                    // op(B)[p, j] = B[jc + j, pc + p] — contiguous in rows.
                    let src = (pc + p) * ldb + jc + j0;
                    bpack[dst..dst + cols].copy_from_slice(&b[src..src + cols]);
                }
            }
            bpack[dst + cols..dst + NR].fill(0.0);
        }
    }
}

#[inline(always)]
fn macro_kernel(
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    c: &mut [f64],
    ldc: usize,
    ic: usize,
    jc: usize,
) {
    let mstrips = mc.div_ceil(MR);
    let nstrips = nc.div_ceil(NR);
    for js in 0..nstrips {
        let j0 = js * NR;
        let nr = NR.min(nc - j0);
        let bp = &bpack[js * NR * kc..(js * NR * kc) + NR * kc];
        for is in 0..mstrips {
            let i0 = is * MR;
            let mr = MR.min(mc - i0);
            let ap = &apack[is * MR * kc..(is * MR * kc) + MR * kc];
            let acc = micro_kernel(kc, ap, bp);
            // Masked write-back for edge tiles.
            for j in 0..nr {
                let cj = (jc + j0 + j) * ldc + ic + i0;
                let col = &mut c[cj..cj + mr];
                for i in 0..mr {
                    col[i] += alpha * acc[j][i];
                }
            }
        }
    }
}

/// The `MR x NR` register tile: a rank-1 update per `k` step.
#[inline(always)]
fn micro_kernel(kc: usize, ap: &[f64], bp: &[f64]) -> [[f64; MR]; NR] {
    let mut acc = [[0.0f64; MR]; NR];
    for p in 0..kc {
        let a: &[f64; MR] = ap[p * MR..p * MR + MR].try_into().unwrap();
        let b: &[f64; NR] = bp[p * NR..p * NR + NR].try_into().unwrap();
        for j in 0..NR {
            let bj = b[j];
            for i in 0..MR {
                acc[j][i] += a[i] * bj;
            }
        }
    }
    acc
}

/// Reference triple-loop GEMM used by tests and small problems.
pub fn gemm_naive(
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    transb: bool,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
) {
    scale_c(m, n, beta, c, ldc);
    for j in 0..n {
        for p in 0..k {
            let bv = if transb {
                b[p * ldb + j]
            } else {
                b[j * ldb + p]
            };
            let s = alpha * bv;
            if s == 0.0 {
                continue;
            }
            for i in 0..m {
                c[j * ldc + i] += s * a[p * lda + i];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    fn check_case(m: usize, n: usize, k: usize, transb: bool, alpha: f64, beta: f64, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let lda = m + 3;
        let ldb = if transb { n + 1 } else { k + 2 };
        let ldc = m + 1;
        let a = rand_vec(&mut rng, lda * k);
        let b = rand_vec(&mut rng, ldb * if transb { k } else { n });
        let c0 = rand_vec(&mut rng, ldc * n);

        let mut c_fast = c0.clone();
        let mut c_ref = c0.clone();
        if transb {
            gemm_nt(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_fast, ldc);
        } else {
            gemm_nn(m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_fast, ldc);
        }
        gemm_naive(
            m, n, k, alpha, &a, lda, &b, ldb, transb, beta, &mut c_ref, ldc,
        );
        let max_err = crate::mat::max_abs_diff(&c_fast, &c_ref);
        assert!(
            max_err < 1e-11 * (k as f64 + 1.0),
            "m={m} n={n} k={k} transb={transb} alpha={alpha} beta={beta}: err={max_err}"
        );
    }

    #[test]
    fn matches_reference_on_small_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 2, 4),
            (8, 4, 16),
            (9, 5, 17),
            (7, 11, 3),
            (16, 16, 16),
        ] {
            check_case(m, n, k, false, 1.0, 0.0, 42);
            check_case(m, n, k, true, 1.0, 0.0, 43);
        }
    }

    #[test]
    fn matches_reference_on_blocked_shapes() {
        // Sizes crossing the MC/KC/NC cache-block boundaries.
        for &(m, n, k) in &[(300, 37, 280), (270, 1030, 10), (50, 40, 300)] {
            check_case(m, n, k, false, -1.0, 1.0, 7);
            check_case(m, n, k, true, -1.0, 1.0, 8);
        }
    }

    #[test]
    fn alpha_beta_combinations() {
        for &(alpha, beta) in &[(0.0, 0.5), (2.0, 0.0), (-1.5, 2.5), (1.0, 1.0)] {
            check_case(13, 9, 21, false, alpha, beta, 11);
            check_case(13, 9, 21, true, alpha, beta, 12);
        }
    }

    #[test]
    fn beta_zero_overwrites_nan_storage() {
        let a = vec![1.0; 4]; // 2x2 ones
        let b = vec![1.0; 4];
        let mut c = vec![f64::NAN; 4];
        gemm_nn(2, 2, 2, 1.0, &a, 2, &b, 2, 0.0, &mut c, 2);
        assert!(c.iter().all(|v| *v == 2.0));
    }

    #[test]
    fn degenerate_dimensions_are_noops() {
        let a: Vec<f64> = vec![];
        let b: Vec<f64> = vec![];
        let mut c = vec![5.0; 6];
        gemm_nn(0, 3, 0, 1.0, &a, 1, &b, 1, 1.0, &mut c, 2);
        assert_eq!(c, vec![5.0; 6]);
        // k = 0 with beta = 0 must still clear C.
        gemm_nn(2, 3, 0, 1.0, &a, 2, &b, 1, 0.0, &mut c, 2);
        assert_eq!(c, vec![0.0; 6]);
    }
}
