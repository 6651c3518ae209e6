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
//! `acc` starts at zero and takes `acc = fma(a[i,p], b[p,j], acc)` over
//! the block's `p` in order — one rounding per step — and the write-back
//! `c += alpha * acc` rounds the product and the sum separately. The
//! blocked loop (packing, macro- and micro-kernel) is compiled once per
//! vector unit, each with a tile that fits that unit's registers, and
//! chosen at run time (see the crate docs); the copies keep that
//! arithmetic, so they agree to the last bit:
//!
//! * `f64::mul_add` is a fused multiply-add on every copy — an FMA
//!   instruction on AVX-512F and AVX2, a call to libm's exact `fma` on the
//!   baseline — and Rust never contracts the unfused write-back into one;
//! * the tile does not change an entry's sum: entry `(i, j)` meets the
//!   same `p` in the same order in a 16 x 6 tile as in an 8 x 4 one, and
//!   padding rows and columns only touch accumulators that are dropped;
//! * `KC` fixes where the sum over `k` is split, so it is not tuned per
//!   vector unit — a different `KC` is a different result;
//! * the dispatch sits inside the `PACK` thread-local closure, around the
//!   loops themselves: a closure is a function of its own, so a
//!   `#[target_feature]` copy wrapped around it would still call
//!   baseline loops.
//!
//! A call above the lane cutoff is cut into column blocks of `C` when
//! `n >= m` and into row blocks otherwise (see the crate docs); nothing
//! above depends on which block or lane computes an entry, so the split
//! does not change a bit either.

use crate::flops::flops_gemm;
use crate::isa::Isa;
use crate::lanes::{self, split, Axis, MatMut, MatRef};

/// The micro-tile, `rows x columns`, of each copy's blocked loop.
pub(crate) const fn tile(isa: Isa) -> (usize, usize) {
    match isa {
        // 12 accumulator registers of eight lanes, two for a column of
        // `A`, one broadcast.
        Isa::Avx512 => (16, 6),
        // A wider AVX2 tile spills its 16 registers (8 x 6 ran at half
        // the rate of 8 x 4).
        Isa::Avx2 | Isa::Baseline => (8, 4),
    }
}

/// Cache block in the `m` dimension.
pub const MC: usize = 256;
/// Cache block in the `k` dimension.
pub const KC: usize = 256;
/// Cache block in the `n` dimension.
pub const NC: usize = 1024;

/// Row and column multiples the lane split cuts `C` at — multiples of
/// every tile's, so that only the last block of a split has a partial
/// micro-tile.
pub(crate) const ROW_ALIGN: usize = 16;
const COL_ALIGN: usize = 12;

/// Longest packed panel of `extent` rows (`rows`) or columns by `KC`
/// steps over every copy's tile, zero-padded to whole tiles; also checks
/// that `align` is a multiple of every tile's side.
const fn panel_len(extent: usize, rows: bool, align: usize) -> usize {
    let mut len = 0;
    let mut i = 0;
    while i < Isa::ALL.len() {
        let t = tile(Isa::ALL[i]);
        let side = if rows { t.0 } else { t.1 };
        assert!(align.is_multiple_of(side));
        let l = extent.div_ceil(side) * side * KC;
        if l > len {
            len = l;
        }
        i += 1;
    }
    len
}
const APACK_LEN: usize = panel_len(MC, true, ROW_ALIGN);
const BPACK_LEN: usize = panel_len(NC, false, COL_ALIGN);

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
    let lanes = lanes::for_flops(flops_gemm(m, n, k));
    gemm(
        Isa::host(),
        lanes,
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
    let lanes = lanes::for_flops(flops_gemm(m, n, k));
    gemm(
        Isa::host(),
        lanes,
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

/// `C := alpha * A * op(B) + beta * C` on the `isa` copy of the blocked
/// loop, cut into `lanes` blocks of `C`.
pub(crate) fn gemm(
    isa: Isa,
    lanes: usize,
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
    let a = MatRef::new(a, m, k, lda);
    let b = match tb {
        TransB::No => MatRef::new(b, k, n, ldb),
        TransB::Yes => MatRef::new(b, n, k, ldb),
    };
    let c = MatMut::new(c, m, n, ldc);
    if lanes <= 1 {
        return gemm_view(isa, alpha, a, b, tb, beta, c);
    }
    if n >= m {
        split(c, Axis::Cols, lanes, COL_ALIGN, &|j0, c| {
            let b = match tb {
                TransB::No => b.sub(0, k, j0, c.cols()),
                TransB::Yes => b.sub(j0, c.cols(), 0, k),
            };
            gemm_view(isa, alpha, a, b, tb, beta, c)
        });
    } else {
        split(c, Axis::Rows, lanes, ROW_ALIGN, &|i0, c| {
            gemm_view(isa, alpha, a.sub(i0, c.rows(), 0, k), b, tb, beta, c)
        });
    }
}

/// One lane's `C := alpha * A * op(B) + beta * C` on views: `A` is
/// `m x k`, `op(B)` is `k x n` (`B` is stored `n x k` under
/// [`TransB::Yes`]) and `C` is `m x n`.
pub(crate) fn gemm_view(
    isa: Isa,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    tb: TransB,
    beta: f64,
    mut c: MatMut<'_>,
) {
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    debug_assert_eq!(a.rows(), m);
    debug_assert_eq!(
        (b.rows(), b.cols()),
        match tb {
            TransB::No => (k, n),
            TransB::Yes => (n, k),
        }
    );
    scale_c(beta, c.rb());
    if m == 0 || n == 0 || k == 0 || alpha == 0.0 {
        return;
    }

    // Packed panels, zero-padded to multiples of the tile. The buffers are
    // thread-local and reused across calls, so the supernodal update loop
    // (thousands of GEMMs) allocates only on each thread's first call.
    PACK.with(|cell| {
        let (apack, bpack) = &mut *cell.borrow_mut();
        apack.resize(APACK_LEN, 0.0);
        bpack.resize(BPACK_LEN, 0.0);
        blocked(isa, alpha, a, b, tb, c, apack, bpack);
    });
}

/// Scales `c` by `beta` (treating `beta == 0` as an overwrite so
/// uninitialized storage never propagates NaNs).
fn scale_c(beta: f64, mut c: MatMut<'_>) {
    if beta == 1.0 {
        return;
    }
    for j in 0..c.cols() {
        let col = c.col_mut(j);
        if beta == 0.0 {
            col.fill(0.0);
        } else {
            for v in col {
                *v *= beta;
            }
        }
    }
}

/// The `NC` / `KC` / `MC` loop nest on the `isa` copy, with that copy's
/// micro-tile.
fn blocked(
    isa: Isa,
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    tb: TransB,
    c: MatMut<'_>,
    apack: &mut [f64],
    bpack: &mut [f64],
) {
    #[cfg(target_arch = "x86_64")]
    const W: (usize, usize) = tile(Isa::Avx512);
    #[cfg(target_arch = "x86_64")]
    const N: (usize, usize) = tile(Isa::Avx2);
    const B: (usize, usize) = tile(Isa::Baseline);

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,fma")]
    fn avx512(
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        tb: TransB,
        c: MatMut<'_>,
        apack: &mut [f64],
        bpack: &mut [f64],
    ) {
        blocked_tile::<{ W.0 }, { W.1 }>(alpha, a, b, tb, c, apack, bpack)
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2,fma")]
    fn avx2(
        alpha: f64,
        a: MatRef<'_>,
        b: MatRef<'_>,
        tb: TransB,
        c: MatMut<'_>,
        apack: &mut [f64],
        bpack: &mut [f64],
    ) {
        blocked_tile::<{ N.0 }, { N.1 }>(alpha, a, b, tb, c, apack, bpack)
    }

    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 if isa.supported() => {
            // SAFETY: the guard's `is_x86_feature_detected!` just
            // confirmed this CPU has AVX-512F and FMA.
            unsafe { avx512(alpha, a, b, tb, c, apack, bpack) }
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 if isa.supported() => {
            // SAFETY: the guard's `is_x86_feature_detected!` just
            // confirmed this CPU has AVX2 and FMA.
            unsafe { avx2(alpha, a, b, tb, c, apack, bpack) }
        }
        _ => blocked_tile::<{ B.0 }, { B.1 }>(alpha, a, b, tb, c, apack, bpack),
    }
}

/// The blocked loop with an `MR_ x NR_` micro-tile: pack a panel of
/// `op(B)`, then panels of `A`, and run the macro-kernel on each pair.
#[inline(always)]
fn blocked_tile<const MR_: usize, const NR_: usize>(
    alpha: f64,
    a: MatRef<'_>,
    b: MatRef<'_>,
    tb: TransB,
    mut c: MatMut<'_>,
    apack: &mut [f64],
    bpack: &mut [f64],
) {
    let (m, n, k) = (c.rows(), c.cols(), a.cols());
    let mut jc = 0;
    while jc < n {
        let nc = NC.min(n - jc);
        let mut pc = 0;
        while pc < k {
            let kc = KC.min(k - pc);
            pack_b::<NR_>(bpack, b, tb, pc, jc, kc, nc);
            let mut ic = 0;
            while ic < m {
                let mc = MC.min(m - ic);
                pack_a::<MR_>(apack, a, ic, pc, mc, kc);
                macro_kernel::<MR_, NR_>(mc, nc, kc, alpha, apack, bpack, c.rb(), ic, jc);
                ic += MC;
            }
            pc += KC;
        }
        jc += NC;
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
fn pack_a<const MR_: usize>(
    apack: &mut [f64],
    a: MatRef<'_>,
    ic: usize,
    pc: usize,
    mc: usize,
    kc: usize,
) {
    let strips = mc.div_ceil(MR_);
    for s in 0..strips {
        let i0 = ic + s * MR_;
        let rows = MR_.min(mc - s * MR_);
        let dst_base = s * MR_ * kc;
        for p in 0..kc {
            let dst = dst_base + p * MR_;
            apack[dst..dst + rows].copy_from_slice(&a.col(pc + p)[i0..i0 + rows]);
            // Zero-pad the strip's tail rows.
            apack[dst + rows..dst + MR_].fill(0.0);
        }
    }
}

/// Packs the `kc x nc` block of `op(B)` starting at `(pc, jc)` into NR-col
/// strips: strip `s` holds columns `jc + s*NR ..`, stored row-by-row.
#[inline(always)]
fn pack_b<const NR_: usize>(
    bpack: &mut [f64],
    b: MatRef<'_>,
    tb: TransB,
    pc: usize,
    jc: usize,
    kc: usize,
    nc: usize,
) {
    let strips = nc.div_ceil(NR_);
    for s in 0..strips {
        let j0 = jc + s * NR_;
        let cols = NR_.min(nc - s * NR_);
        let dst_base = s * NR_ * kc;
        match tb {
            TransB::No => {
                // op(B)[p, j] = B[pc + p, j]: walk each stored column.
                for j in 0..cols {
                    let src = &b.col(j0 + j)[pc..pc + kc];
                    for (p, &v) in src.iter().enumerate() {
                        bpack[dst_base + p * NR_ + j] = v;
                    }
                }
            }
            TransB::Yes => {
                // op(B)[p, j] = B[j, pc + p] — contiguous in rows.
                for p in 0..kc {
                    let dst = dst_base + p * NR_;
                    bpack[dst..dst + cols].copy_from_slice(&b.col(pc + p)[j0..j0 + cols]);
                }
            }
        }
        for p in 0..kc {
            let dst = dst_base + p * NR_;
            bpack[dst + cols..dst + NR_].fill(0.0);
        }
    }
}

#[inline(always)]
fn macro_kernel<const MR_: usize, const NR_: usize>(
    mc: usize,
    nc: usize,
    kc: usize,
    alpha: f64,
    apack: &[f64],
    bpack: &[f64],
    mut c: MatMut<'_>,
    ic: usize,
    jc: usize,
) {
    let mstrips = mc.div_ceil(MR_);
    let nstrips = nc.div_ceil(NR_);
    for js in 0..nstrips {
        let j0 = js * NR_;
        let nr = NR_.min(nc - j0);
        let bp = &bpack[js * NR_ * kc..(js * NR_ * kc) + NR_ * kc];
        for is in 0..mstrips {
            let i0 = is * MR_;
            let mr = MR_.min(mc - i0);
            let ap = &apack[is * MR_ * kc..(is * MR_ * kc) + MR_ * kc];
            let acc = micro_kernel::<MR_, NR_>(kc, ap, bp);
            // Masked write-back for edge tiles.
            for j in 0..nr {
                let col = &mut c.col_mut(jc + j0 + j)[ic + i0..ic + i0 + mr];
                for i in 0..mr {
                    col[i] += alpha * acc[j][i];
                }
            }
        }
    }
}

/// The `MR_ x NR_` register tile: a fused rank-1 update per `k` step.
#[inline(always)]
fn micro_kernel<const MR_: usize, const NR_: usize>(
    kc: usize,
    ap: &[f64],
    bp: &[f64],
) -> [[f64; MR_]; NR_] {
    let mut acc = [[0.0f64; MR_]; NR_];
    for p in 0..kc {
        let a: &[f64; MR_] = ap[p * MR_..p * MR_ + MR_].try_into().unwrap();
        let b: &[f64; NR_] = bp[p * NR_..p * NR_ + NR_].try_into().unwrap();
        for j in 0..NR_ {
            let bj = b[j];
            for i in 0..MR_ {
                acc[j][i] = a[i].mul_add(bj, acc[j][i]);
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
    scale_c(beta, MatMut::new(c, m, n, ldc));
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
