//! Compressed sparse column matrices.

use crate::coo::TripletMatrix;
use crate::error::SparseError;

/// A general sparse matrix in compressed sparse column (CSC) format.
///
/// Row indices are sorted strictly increasing within each column and no
/// duplicates are present. This invariant is established by every
/// constructor and checked by [`validate`](Self::validate).
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowind: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// Builds a CSC matrix from raw parts, validating all invariants.
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        colptr: Vec<usize>,
        rowind: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        let m = CscMatrix {
            nrows,
            ncols,
            colptr,
            rowind,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    /// Builds from a triplet builder, summing duplicates.
    pub fn from_triplets(t: &TripletMatrix) -> Self {
        let (colptr, rowind, values) = t.compress();
        CscMatrix {
            nrows: t.nrows(),
            ncols: t.ncols(),
            colptr,
            rowind,
            values,
        }
    }

    /// An `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CscMatrix {
            nrows: n,
            ncols: n,
            colptr: (0..=n).collect(),
            rowind: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// Checks structural invariants, returning the first violation found.
    pub fn validate(&self) -> Result<(), SparseError> {
        validate_parts(
            self.nrows,
            self.ncols,
            &self.colptr,
            &self.rowind,
            self.values.len(),
        )
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rowind.len()
    }

    /// Column pointer array (length `ncols + 1`).
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Row index array (length `nnz`).
    pub fn rowind(&self) -> &[usize] {
        &self.rowind
    }

    /// Value array (length `nnz`).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable value array; the pattern cannot be changed through it.
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Row indices of column `j`.
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.rowind[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Values of column `j`.
    pub fn col_values(&self, j: usize) -> &[f64] {
        &self.values[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Looks up entry `(i, j)` by binary search; zero when not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let rows = self.col_rows(j);
        match rows.binary_search(&i) {
            Ok(pos) => self.values[self.colptr[j] + pos],
            Err(_) => 0.0,
        }
    }

    /// Dense `y = A * x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols);
        assert_eq!(y.len(), self.nrows);
        y.fill(0.0);
        for j in 0..self.ncols {
            let xj = x[j];
            if xj == 0.0 {
                continue;
            }
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                y[i] += v * xj;
            }
        }
    }

    /// Transpose (also the CSC→CSR conversion kernel).
    pub fn transpose(&self) -> CscMatrix {
        let mut colptr = vec![0usize; self.nrows + 1];
        for &i in &self.rowind {
            colptr[i + 1] += 1;
        }
        for i in 0..self.nrows {
            colptr[i + 1] += colptr[i];
        }
        let mut rowind = vec![0usize; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut next = colptr.clone();
        for j in 0..self.ncols {
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                let dst = next[i];
                rowind[dst] = j;
                values[dst] = v;
                next[i] += 1;
            }
        }
        // Traversing columns left to right writes each transposed column in
        // increasing row order, so the sortedness invariant holds.
        CscMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            colptr,
            rowind,
            values,
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Converts to a dense column-major array (row `i`, column `j` at
    /// `i + j * nrows`). Intended for tests on small matrices.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.nrows * self.ncols];
        for j in 0..self.ncols {
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                d[i + j * self.nrows] = v;
            }
        }
        d
    }
}

/// The CSC invariants over borrowed arrays — the arrays may come from
/// outside the program, so nothing here indexes or adds before checking.
pub(crate) fn validate_parts(
    nrows: usize,
    ncols: usize,
    colptr: &[usize],
    rowind: &[usize],
    nvalues: usize,
) -> Result<(), SparseError> {
    if ncols.checked_add(1) != Some(colptr.len()) {
        return Err(SparseError::InvalidStructure(format!(
            "colptr has length {}, expected one more than {ncols} columns",
            colptr.len()
        )));
    }
    if colptr[0] != 0 {
        return Err(SparseError::InvalidStructure(
            "colptr[0] must be 0".to_string(),
        ));
    }
    if colptr[ncols] != rowind.len() || rowind.len() != nvalues {
        return Err(SparseError::InvalidStructure(
            "colptr/rowind/values lengths inconsistent".to_string(),
        ));
    }
    for j in 0..ncols {
        // `colptr[ncols] == rowind.len()` bounds every entry only if the
        // rest of the walk finds them monotone too; this column's range
        // is used before that is known.
        if colptr[j] > colptr[j + 1] || colptr[j + 1] > rowind.len() {
            return Err(SparseError::InvalidStructure(format!(
                "colptr not monotone at column {j}"
            )));
        }
        let col = &rowind[colptr[j]..colptr[j + 1]];
        for w in col.windows(2) {
            if w[0] >= w[1] {
                return Err(SparseError::InvalidStructure(format!(
                    "rows not strictly increasing in column {j}"
                )));
            }
        }
        if let Some(&last) = col.last() {
            if last >= nrows {
                return Err(SparseError::IndexOutOfBounds {
                    row: last,
                    col: j,
                    nrows,
                    ncols,
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CscMatrix {
        // [1 0 2]
        // [0 3 0]
        // [4 0 5]
        let mut t = TripletMatrix::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(2, 0, 4.0);
        t.push(1, 1, 3.0);
        t.push(0, 2, 2.0);
        t.push(2, 2, 5.0);
        CscMatrix::from_triplets(&t)
    }

    #[test]
    fn get_and_dims() {
        let a = sample();
        assert_eq!((a.nrows(), a.ncols(), a.nnz()), (3, 3, 5));
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(2, 0), 4.0);
        assert_eq!(a.get(1, 0), 0.0);
        assert_eq!(a.get(2, 2), 5.0);
    }

    #[test]
    fn matvec_matches_dense() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        let mut y = [0.0; 3];
        a.matvec(&x, &mut y);
        assert_eq!(y, [7.0, 6.0, 19.0]);
    }

    #[test]
    fn transpose_round_trip() {
        let a = sample();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        assert_eq!(a.transpose().get(0, 2), 4.0);
    }

    #[test]
    fn hostile_parts_are_errors_not_panics() {
        // `ncols + 1` would wrap to the empty colptr's length.
        assert!(CscMatrix::from_parts(3, usize::MAX, vec![], vec![], vec![]).is_err());
        // Monotone as far as the walk has come, but past `rowind`.
        let e = CscMatrix::from_parts(2, 2, vec![0, 100, 2], vec![0, 1], vec![1.0; 2]);
        assert!(matches!(e, Err(SparseError::InvalidStructure(_))), "{e:?}");
    }

    #[test]
    fn transpose_preserves_validity() {
        let a = sample().transpose();
        assert!(a.validate().is_ok());
    }

    #[test]
    fn identity_behaves() {
        let i = CscMatrix::identity(4);
        assert!(i.validate().is_ok());
        let x = [1.0, -2.0, 3.0, 0.5];
        let mut y = [0.0; 4];
        i.matvec(&x, &mut y);
        assert_eq!(y, x);
    }

    #[test]
    fn from_parts_rejects_bad_structure() {
        // rows out of order
        let r = CscMatrix::from_parts(3, 1, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
        assert!(r.is_err());
        // row index out of bounds
        let r = CscMatrix::from_parts(2, 1, vec![0, 1], vec![5], vec![1.0]);
        assert!(r.is_err());
        // bad colptr length
        let r = CscMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(r.is_err());
    }

    #[test]
    fn to_dense_layout() {
        let a = sample();
        let d = a.to_dense();
        assert_eq!(d[0 + 0 * 3], 1.0);
        assert_eq!(d[2 + 0 * 3], 4.0);
        assert_eq!(d[0 + 2 * 3], 2.0);
        assert_eq!(d[1 + 1 * 3], 3.0);
    }
}
