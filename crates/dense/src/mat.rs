//! Owned column-major dense matrices.

use std::fmt;

/// A column-major dense matrix: entry `(i, j)` lives at `data[i + j*nrows]`.
///
/// The leading dimension always equals `nrows`, so a `DMat` can be passed
/// directly to the slice-based kernels in this crate.
#[derive(Clone, PartialEq)]
pub struct DMat {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl DMat {
    /// A zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        DMat {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = DMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a column-major data vector.
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols);
        DMat { nrows, ncols, data }
    }

    /// Builds from rows given as nested slices (row-major input).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let nrows = rows.len();
        let ncols = if nrows == 0 { 0 } else { rows[0].len() };
        let mut m = DMat::zeros(nrows, ncols);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.len(), ncols);
            for (j, &v) in r.iter().enumerate() {
                m[(i, j)] = v;
            }
        }
        m
    }

    /// Fills with values from a function of `(i, j)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut m = DMat::zeros(nrows, ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                m[(i, j)] = f(i, j);
            }
        }
        m
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Leading dimension (equals `nrows`).
    pub fn ld(&self) -> usize {
        self.nrows
    }

    /// Column-major data slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable column-major data slice.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// The transpose.
    pub fn transpose(&self) -> DMat {
        DMat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// `self * other`.
    pub fn matmul(&self, other: &DMat) -> DMat {
        assert_eq!(self.ncols, other.nrows);
        let mut c = DMat::zeros(self.nrows, other.ncols);
        crate::gemm::gemm_nn(
            self.nrows,
            other.ncols,
            self.ncols,
            1.0,
            &self.data,
            self.nrows,
            &other.data,
            other.nrows,
            1.0,
            &mut c.data,
            self.nrows,
        );
        c
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry difference against `other`; NaN when any
    /// entry of either is NaN.
    pub fn max_abs_diff(&self, other: &DMat) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        max_abs_diff(&self.data, &other.data)
    }

    /// Zeroes the strict upper triangle (useful after in-place POTRF,
    /// which leaves the upper triangle untouched).
    pub fn zero_upper(&mut self) {
        for j in 1..self.ncols {
            for i in 0..j.min(self.nrows) {
                self[(i, j)] = 0.0;
            }
        }
    }
}

/// Largest `|a[i] - b[i]|`, NaN when any difference is NaN (a fold with
/// `f64::max` would drop it and report the other entries' maximum).
pub(crate) fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |m, (&x, &y)| {
        let d = (x - y).abs();
        if m.is_nan() || d.is_nan() {
            f64::NAN
        } else {
            m.max(d)
        }
    })
}

impl std::ops::Index<(usize, usize)> for DMat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i + j * self.nrows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DMat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i + j * self.nrows]
    }
}

impl fmt::Debug for DMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMat {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows.min(12) {
            write!(f, "  ")?;
            for j in 0..self.ncols.min(12) {
                write!(f, "{:10.4} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_column_major() {
        let m = DMat::from_col_major(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 0)], 2.0);
        assert_eq!(m[(0, 1)], 3.0);
        assert_eq!(m[(1, 1)], 4.0);
    }

    #[test]
    fn from_rows_matches_indexing() {
        let m = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
    }

    #[test]
    fn matmul_small() {
        let a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = DMat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn transpose_identity() {
        let a = DMat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t[(2, 1)], 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn max_abs_diff_propagates_nan() {
        let a = DMat::from_col_major(3, 1, vec![1.0, 2.0, 3.0]);
        for at in 0..3 {
            let mut b = a.clone();
            b[(at, 0)] = f64::NAN;
            assert!(a.max_abs_diff(&b).is_nan(), "NaN at {at} dropped");
            assert!(b.max_abs_diff(&a).is_nan(), "NaN at {at} dropped");
        }
        let c = DMat::from_col_major(3, 1, vec![1.0, 2.5, 3.0]);
        assert_eq!(a.max_abs_diff(&c), 0.5);
    }

    #[test]
    fn zero_upper_clears_strict_upper_only() {
        let mut a = DMat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        a.zero_upper();
        assert_eq!(a[(0, 1)], 0.0);
        assert_eq!(a[(0, 0)], 1.0);
        assert_eq!(a[(1, 0)], 3.0);
        assert_eq!(a[(1, 1)], 4.0);
    }
}
