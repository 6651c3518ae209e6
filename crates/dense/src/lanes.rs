//! Splitting one kernel call across the pool's lanes.
//!
//! A call above [`SPLIT_FLOPS`] is cut into parts along rows or columns
//! of its output, and the parts run on [`pool::global`] through the
//! allocation-free [`ThreadPool::run_for`](crate::pool::ThreadPool::run_for).
//! Every kernel cuts only where no output entry's sequence of
//! floating-point operations changes, so a call gives the same bits at
//! any lane count (the crate docs list the cut of each kernel).
//!
//! The parts are strided views, not slices: a block of rows of a
//! column-major matrix is not a contiguous range, so a row split hands
//! each lane a [`MatMut`] whose column accessor returns only that lane's
//! rows. No two lanes ever hold overlapping `&mut [f64]`.

use std::marker::PhantomData;

use crate::pool;

/// Calls below this many flops run inline on the caller: waking a lane
/// costs more than it saves. On a 2-vCPU AVX-512F host, cutoffs from 2¹⁶
/// to 2²² flops were within noise of each other on every benchmark
/// workload, and 2²⁴ was slower; the highest of the equal ones wakes the
/// pool least.
const SPLIT_FLOPS: f64 = (1u64 << 22) as f64;

/// Lanes a public kernel call of `flops` gets: the whole pool above the
/// cutoff, one below it (without touching the pool).
pub(crate) fn for_flops(flops: f64) -> usize {
    if flops < SPLIT_FLOPS {
        1
    } else {
        pool::global().threads()
    }
}

/// Checks that a `rows x cols` column-major view with leading dimension
/// `ld` fits in `len` entries with no two columns overlapping.
fn check_shape(len: usize, rows: usize, cols: usize, ld: usize) {
    assert!(cols <= 1 || ld >= rows, "ld {ld} < rows {rows}");
    if rows > 0 && cols > 0 {
        assert!(
            (cols - 1)
                .checked_mul(ld)
                .and_then(|x| x.checked_add(rows))
                .is_some_and(|need| need <= len),
            "{rows}x{cols} view with ld {ld} overruns {len} entries"
        );
    }
}

/// A read-only column-major view: column `j` is the `rows` entries at
/// offset `j * ld`.
#[derive(Clone, Copy)]
pub(crate) struct MatRef<'a> {
    ptr: *const f64,
    rows: usize,
    cols: usize,
    ld: usize,
    life: PhantomData<&'a [f64]>,
}

// SAFETY: a `MatRef` only reads the entries it was built over, exactly as
// the `&'a [f64]` it stands for, which is `Send` and `Sync`.
unsafe impl Send for MatRef<'_> {}
// SAFETY: as above.
unsafe impl Sync for MatRef<'_> {}

impl<'a> MatRef<'a> {
    /// The `rows x cols` matrix stored in `data` with leading dimension
    /// `ld`.
    pub(crate) fn new(data: &'a [f64], rows: usize, cols: usize, ld: usize) -> Self {
        check_shape(data.len(), rows, cols, ld);
        MatRef {
            ptr: data.as_ptr(),
            rows,
            cols,
            ld,
            life: PhantomData,
        }
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Column `j`.
    #[inline(always)]
    pub(crate) fn col(&self, j: usize) -> &'a [f64] {
        assert!(j < self.cols);
        if self.rows == 0 {
            return &[];
        }
        // SAFETY: `new` (or the view this one was cut from) checked that
        // `rows` entries at offset `j * ld` lie inside the borrowed data
        // for every `j < cols`.
        unsafe { std::slice::from_raw_parts(self.ptr.wrapping_add(j * self.ld), self.rows) }
    }

    /// The `rows x cols` block at `(r0, c0)`.
    #[inline(always)]
    pub(crate) fn sub(self, r0: usize, rows: usize, c0: usize, cols: usize) -> MatRef<'a> {
        assert!(r0 + rows <= self.rows && c0 + cols <= self.cols);
        MatRef {
            ptr: self.ptr.wrapping_add(c0 * self.ld + r0),
            rows,
            cols,
            ld: self.ld,
            life: PhantomData,
        }
    }
}

/// A mutable column-major view, like [`MatRef`]. Splitting it by rows or
/// columns gives two views over disjoint entries.
pub(crate) struct MatMut<'a> {
    ptr: *mut f64,
    rows: usize,
    cols: usize,
    ld: usize,
    life: PhantomData<&'a mut [f64]>,
}

impl<'a> MatMut<'a> {
    /// The `rows x cols` matrix stored in `data` with leading dimension
    /// `ld`.
    pub(crate) fn new(data: &'a mut [f64], rows: usize, cols: usize, ld: usize) -> Self {
        check_shape(data.len(), rows, cols, ld);
        MatMut {
            ptr: data.as_mut_ptr(),
            rows,
            cols,
            ld,
            life: PhantomData,
        }
    }

    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// A shorter-lived view of the same entries.
    #[inline(always)]
    pub(crate) fn rb(&mut self) -> MatMut<'_> {
        MatMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            life: PhantomData,
        }
    }

    /// A read-only view of the same entries.
    #[inline(always)]
    pub(crate) fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            life: PhantomData,
        }
    }

    /// Column `j`.
    #[inline(always)]
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [f64] {
        assert!(j < self.cols);
        if self.rows == 0 {
            return &mut [];
        }
        // SAFETY: the entries are inside the borrowed data (see
        // `MatRef::col`), and `&mut self` makes this the only live
        // borrow through this view; no other view covers them.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.wrapping_add(j * self.ld), self.rows) }
    }

    /// Columns `[0, at)` and `[at, cols)`.
    #[inline(always)]
    pub(crate) fn split_cols(self, at: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(at <= self.cols);
        let right = MatMut {
            ptr: self.ptr.wrapping_add(at * self.ld),
            cols: self.cols - at,
            ..self
        };
        (MatMut { cols: at, ..self }, right)
    }

    /// Rows `[0, at)` and `[at, rows)` of every column.
    #[inline(always)]
    pub(crate) fn split_rows(self, at: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(at <= self.rows);
        let bottom = MatMut {
            ptr: self.ptr.wrapping_add(at),
            rows: self.rows - at,
            ..self
        };
        (MatMut { rows: at, ..self }, bottom)
    }
}

/// Which way [`split`] cuts its view.
#[derive(Clone, Copy)]
pub(crate) enum Axis {
    Rows,
    Cols,
}

/// One `MatMut` whose disjoint parts the lanes of [`split`] take.
struct Parts<'a> {
    whole: MatMut<'a>,
    axis: Axis,
}

// SAFETY: lanes reach `whole` only through `Parts::part`, whose contract
// gives every concurrent caller a disjoint block of entries — the same
// access a set of disjoint `&mut [f64]` would allow.
unsafe impl Sync for Parts<'_> {}

impl Parts<'_> {
    /// Entries `[lo, hi)` along the axis.
    ///
    /// # Safety
    ///
    /// `lo <= hi <=` the extent of `whole` along the axis, and views alive
    /// at the same time must come from disjoint ranges.
    unsafe fn part(&self, lo: usize, hi: usize) -> MatMut<'_> {
        let w = &self.whole;
        let (ptr, rows, cols) = match self.axis {
            Axis::Rows => (w.ptr.wrapping_add(lo), hi - lo, w.cols),
            Axis::Cols => (w.ptr.wrapping_add(lo * w.ld), w.rows, hi - lo),
        };
        MatMut {
            ptr,
            rows,
            cols,
            ld: w.ld,
            life: PhantomData,
        }
    }
}

/// Start of part `i` of `parts` along an axis of `extent` entries: the
/// even cut rounded up to a multiple of `align`. It does not decrease
/// with `i`, is 0 at `i = 0` and `extent` at `i = parts`.
fn part_start(i: usize, parts: usize, extent: usize, align: usize) -> usize {
    (i * extent / parts).next_multiple_of(align).min(extent)
}

/// Runs `f(offset, part)` for `parts` consecutive blocks of `c` along
/// `axis`, where `offset` is the block's first row or column in `c`.
/// Blocks start at even cuts rounded up to a multiple of `align` (some
/// may be empty). More than one part runs on the global pool; a nested or
/// concurrent split runs its parts inline on the caller.
pub(crate) fn split(
    c: MatMut<'_>,
    axis: Axis,
    parts: usize,
    align: usize,
    f: &(dyn Fn(usize, MatMut<'_>) + Sync),
) {
    let extent = match axis {
        Axis::Rows => c.rows,
        Axis::Cols => c.cols,
    };
    let parts = parts.max(1);
    if parts == 1 {
        return f(0, c);
    }
    let shared = Parts { whole: c, axis };
    pool::global().run_for(parts, &|i| {
        let lo = part_start(i, parts, extent, align);
        let hi = part_start(i + 1, parts, extent, align);
        // SAFETY: `run_for` calls each `i` once, and `part_start` does
        // not decrease with `i`, so the ranges `[lo, hi)` of distinct
        // parts are disjoint and lie within `[0, extent)`.
        let part = unsafe { shared.part(lo, hi) };
        f(lo, part)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{gemm, TransB, KC, MC, NC};
    use crate::isa::tests::{bits, rand_lower, rand_spd, rand_vec};
    use crate::isa::Isa;
    use crate::potrf::{potrf_with, with_l11_scratch};
    use crate::syrk::syrk_ln_with;
    use crate::trsm::trsm_rlt_with;
    use crate::NB;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Lane counts every kernel is checked at against one lane.
    const LANES: [usize; 3] = [2, 3, 8];

    /// Runs `kernel` on a copy of `input` at one lane and at each of
    /// `LANES`, and requires the same bits from each.
    fn same_bits_at_any_lanes(what: &str, input: &[f64], kernel: impl Fn(usize, &mut [f64])) {
        let mut want = input.to_vec();
        kernel(1, &mut want);
        for lanes in LANES {
            let mut got = input.to_vec();
            kernel(lanes, &mut got);
            assert!(bits(&got) == bits(&want), "{what}: {lanes} lanes differ");
        }
    }

    #[test]
    fn parts_cover_every_entry_once() {
        for extent in [0, 1, 5, 17, 130] {
            for parts in [1, 2, 3, 8, 40] {
                for align in [1, 4, 12, 64] {
                    let mut seen = vec![0u8; extent];
                    for i in 0..parts {
                        let (lo, hi) = (
                            part_start(i, parts, extent, align),
                            part_start(i + 1, parts, extent, align),
                        );
                        assert!(lo <= hi && (lo == extent || lo.is_multiple_of(align)));
                        seen[lo..hi].iter_mut().for_each(|s| *s += 1);
                    }
                    assert!(seen.iter().all(|&s| s == 1), "{extent} {parts} {align}");
                }
            }
        }
    }

    #[test]
    fn split_hands_each_lane_only_its_rows() {
        let (rows, cols, ld) = (37, 5, 40);
        let mut data = vec![-1.0; ld * cols];
        let whole = MatMut::new(&mut data, rows, cols, ld);
        split(whole, Axis::Rows, 3, 4, &|r0, mut part| {
            for j in 0..part.cols() {
                for (i, v) in part.col_mut(j).iter_mut().enumerate() {
                    *v = (r0 + i + 100 * j) as f64;
                }
            }
        });
        for j in 0..cols {
            for i in 0..ld {
                let want = if i < rows { (i + 100 * j) as f64 } else { -1.0 };
                assert_eq!(data[j * ld + i], want, "({i}, {j})");
            }
        }
    }

    #[test]
    fn every_kernel_gives_the_same_bits_at_any_lane_count() {
        let isa = Isa::host();
        let mut rng = StdRng::seed_from_u64(29);

        // Off both tiles' MR/NR multiples, tall and wide (row and column
        // splits), and across MC, KC and NC.
        let gemm_shapes = [
            (1, 1, 1),
            (2, 3, 4),
            (15, 7, 9),
            (17, 13, 5),
            (MC + 13, 9, 7),
            (13, 11, KC + 44),
            (17, NC + 6, 33),
            (MC + 3, 31, KC + 5),
            (2 * MC + 7, NC + 29, 19),
        ];
        for (m, n, k) in gemm_shapes {
            for (tb, ldb, bcols) in [(TransB::No, k + 1, n), (TransB::Yes, n + 1, k)] {
                let (lda, ldc) = (m + 3, m + 2);
                let a = rand_vec(&mut rng, lda * k);
                let b = rand_vec(&mut rng, ldb * bcols);
                let c = rand_vec(&mut rng, ldc * n);
                for beta in [0.0, 1.0, 2.5] {
                    let what = format!("gemm {tb:?} m={m} n={n} k={k} beta={beta}");
                    same_bits_at_any_lanes(&what, &c, |lanes, c| {
                        gemm(
                            isa, lanes, m, n, k, -0.75, &a, lda, &b, ldb, tb, beta, c, ldc,
                        )
                    });
                }
            }
        }

        // Tiny (fewer columns than lanes), across NB, and across MC / KC
        // in the GEMM below the diagonal blocks.
        for (n, k) in [
            (2, 3),
            (3, 3),
            (4, 1),
            (NB + 1, 40),
            (2 * NB + 3, KC + 10),
            (MC + NB + 5, 17),
        ] {
            let (lda, ldc) = (n + 2, n + 1);
            let a = rand_vec(&mut rng, lda * k);
            let c = rand_vec(&mut rng, ldc * n);
            for beta in [0.0, 1.0] {
                let what = format!("syrk_ln n={n} k={k} beta={beta}");
                same_bits_at_any_lanes(&what, &c, |lanes, c| {
                    syrk_ln_with(isa, lanes, n, k, -1.0, &a, lda, beta, c, ldc)
                });
            }
        }

        for (m, n) in [
            (1, 1),
            (7, 5),
            (45, 3 * NB + 7),
            (MC + 5, NB + 3),
            (33, 2 * NB + 9),
            (2 * MC + 1, KC + NB),
        ] {
            let l = rand_lower(&mut rng, n);
            let ldb = m + 2;
            let b = rand_vec(&mut rng, ldb * n);
            same_bits_at_any_lanes(&format!("trsm_rlt m={m} n={n}"), &b, |lanes, b| {
                trsm_rlt_with(isa, lanes, m, n, &l, n, b, ldb)
            });
        }

        for n in [1, 31, NB, NB + 1, 2 * NB + 1, 200, MC + NB + 5] {
            let a = rand_spd(&mut rng, n);
            same_bits_at_any_lanes(&format!("potrf n={n}"), &a, |lanes, a| {
                with_l11_scratch(|l11| potrf_with(isa, lanes, n, a, n, l11)).unwrap()
            });
        }
    }

    #[test]
    fn potrf_reports_the_same_bad_pivot_at_any_lane_count() {
        let n = 130;
        let mut a = rand_spd(&mut StdRng::seed_from_u64(7), n);
        a[n * n - 1] = -1e6;
        let pivot = |lanes| {
            let mut a = a.clone();
            with_l11_scratch(|l11| potrf_with(Isa::host(), lanes, n, &mut a, n, l11))
                .unwrap_err()
                .pivot
        };
        for lanes in LANES {
            assert_eq!(pivot(lanes), pivot(1), "{lanes} lanes");
        }
        assert_eq!(pivot(1), n - 1);
    }
}
