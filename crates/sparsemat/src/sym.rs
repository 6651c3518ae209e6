//! Symmetric sparse matrices stored as the lower triangle in CSC form.
//!
//! [`SymCsc`] is the input type of the whole Cholesky pipeline: the lower
//! triangle (diagonal included) of a symmetric matrix, columns sorted,
//! every column carrying its diagonal entry first.

use crate::coo::TripletMatrix;
use crate::csc::{validate_parts, CscMatrix};
use crate::error::SparseError;
use crate::graph::Graph;
use crate::perm::Permutation;

/// Lower-triangular CSC storage of a symmetric `n x n` matrix.
///
/// Invariants (checked at construction):
/// * square, row indices sorted strictly increasing within each column;
/// * all entries satisfy `row >= col`;
/// * each column stores its diagonal entry (first in the column).
#[derive(Debug, Clone, PartialEq)]
pub struct SymCsc {
    n: usize,
    colptr: Vec<usize>,
    rowind: Vec<usize>,
    values: Vec<f64>,
}

impl SymCsc {
    /// Builds from triplets describing the *lower triangle only*.
    ///
    /// Duplicates are summed; entries above the diagonal are rejected.
    pub fn from_lower_triplets(t: &TripletMatrix) -> Result<Self, SparseError> {
        if t.nrows() != t.ncols() {
            return Err(SparseError::NotSquare {
                nrows: t.nrows(),
                ncols: t.ncols(),
            });
        }
        let (rows, cols, _) = t.triplets();
        for (&i, &j) in rows.iter().zip(cols.iter()) {
            if i < j {
                return Err(SparseError::UpperEntry { row: i, col: j });
            }
        }
        let (colptr, rowind, values) = t.compress();
        let m = SymCsc {
            n: t.ncols(),
            colptr,
            rowind,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    /// Builds from a general CSC matrix holding a full symmetric matrix or
    /// just its lower triangle; upper entries are folded onto the lower
    /// triangle (values from the lower triangle win — the matrix is assumed
    /// numerically symmetric and the upper triangle redundant).
    pub fn from_csc(a: &CscMatrix) -> Result<Self, SparseError> {
        if a.nrows() != a.ncols() {
            return Err(SparseError::NotSquare {
                nrows: a.nrows(),
                ncols: a.ncols(),
            });
        }
        let n = a.ncols();
        let mut t = TripletMatrix::with_capacity(n, n, a.nnz());
        for j in 0..n {
            for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
                if i >= j {
                    t.push(i, j, v);
                }
            }
        }
        Self::from_lower_triplets(&t)
    }

    /// Builds from raw lower-triangular CSC arrays.
    pub fn from_parts(
        n: usize,
        colptr: Vec<usize>,
        rowind: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, SparseError> {
        let m = SymCsc {
            n,
            colptr,
            rowind,
            values,
        };
        m.validate()?;
        Ok(m)
    }

    fn validate(&self) -> Result<(), SparseError> {
        validate_parts(
            self.n,
            self.n,
            &self.colptr,
            &self.rowind,
            self.values.len(),
        )?;
        for j in 0..self.n {
            match self.col_rows(j).first() {
                Some(&first) if first == j => {}
                Some(&first) if first > j => return Err(SparseError::MissingDiagonal { col: j }),
                Some(&first) => {
                    return Err(SparseError::UpperEntry { row: first, col: j });
                }
                None => return Err(SparseError::MissingDiagonal { col: j }),
            }
        }
        Ok(())
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Stored entries (lower triangle including diagonal).
    pub fn nnz_lower(&self) -> usize {
        self.rowind.len()
    }

    /// Entries of the logical full matrix: `2 * nnz_lower - n`.
    pub fn nnz_full(&self) -> usize {
        2 * self.nnz_lower() - self.n
    }

    /// Heap bytes of this matrix's storage (column pointers, row
    /// indices, values).
    pub fn memory_bytes(&self) -> u64 {
        let usz = std::mem::size_of::<usize>() as u64;
        (self.colptr.len() + self.rowind.len()) as u64 * usz
            + self.values.len() as u64 * std::mem::size_of::<f64>() as u64
    }

    /// Column pointers (length `n + 1`).
    pub fn colptr(&self) -> &[usize] {
        &self.colptr
    }

    /// Row indices.
    pub fn rowind(&self) -> &[usize] {
        &self.rowind
    }

    /// Values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable values (pattern is fixed).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Row indices of (lower-triangular) column `j`; `j` itself is first.
    pub fn col_rows(&self, j: usize) -> &[usize] {
        &self.rowind[self.colptr[j]..self.colptr[j + 1]]
    }

    /// Values of column `j`, aligned with [`col_rows`](Self::col_rows).
    pub fn col_values(&self, j: usize) -> &[f64] {
        &self.values[self.colptr[j]..self.colptr[j + 1]]
    }

    /// The diagonal as a dense vector.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.n).map(|j| self.values[self.colptr[j]]).collect()
    }

    /// Entry `(i, j)` of the full symmetric matrix.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (r, c) = if i >= j { (i, j) } else { (j, i) };
        match self.col_rows(c).binary_search(&r) {
            Ok(pos) => self.values[self.colptr[c] + pos],
            Err(_) => 0.0,
        }
    }

    /// Dense `y = A x` for the full symmetric operator.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        y.fill(0.0);
        for j in 0..self.n {
            let xj = x[j];
            let lo = self.colptr[j];
            let hi = self.colptr[j + 1];
            // Diagonal entry sits first in the column.
            y[j] += self.values[lo] * xj;
            for k in lo + 1..hi {
                let i = self.rowind[k];
                let v = self.values[k];
                y[i] += v * xj;
                y[j] += v * x[i];
            }
        }
    }

    /// Frobenius norm of the full symmetric matrix.
    pub fn norm_fro(&self) -> f64 {
        let mut acc = 0.0;
        for j in 0..self.n {
            let lo = self.colptr[j];
            let hi = self.colptr[j + 1];
            acc += self.values[lo] * self.values[lo];
            for k in lo + 1..hi {
                acc += 2.0 * self.values[k] * self.values[k];
            }
        }
        acc.sqrt()
    }

    /// Symmetric permutation `PAPᵀ`, keeping lower-triangular storage.
    pub fn permute(&self, p: &Permutation) -> SymCsc {
        assert_eq!(p.len(), self.n);
        let mut t = TripletMatrix::with_capacity(self.n, self.n, self.nnz_lower());
        for j in 0..self.n {
            let jn = p.new_of(j);
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                let ind = p.new_of(i);
                let (r, c) = if ind >= jn { (ind, jn) } else { (jn, ind) };
                t.push(r, c, v);
            }
        }
        SymCsc::from_lower_triplets(&t)
            .expect("permuting a valid SymCsc always yields a valid SymCsc")
    }

    /// Expands to a full (both triangles) general CSC matrix.
    pub fn to_full_csc(&self) -> CscMatrix {
        let mut t = TripletMatrix::with_capacity(self.n, self.n, self.nnz_full());
        for j in 0..self.n {
            for (&i, &v) in self.col_rows(j).iter().zip(self.col_values(j)) {
                t.push(i, j, v);
                if i != j {
                    t.push(j, i, v);
                }
            }
        }
        CscMatrix::from_triplets(&t)
    }

    /// The adjacency graph of the nonzero pattern (no self loops).
    pub fn to_graph(&self) -> Graph {
        let mut deg = vec![0usize; self.n];
        for j in 0..self.n {
            for &i in self.col_rows(j) {
                if i != j {
                    deg[i] += 1;
                    deg[j] += 1;
                }
            }
        }
        let mut xadj = vec![0usize; self.n + 1];
        for v in 0..self.n {
            xadj[v + 1] = xadj[v] + deg[v];
        }
        let mut adjncy = vec![0usize; xadj[self.n]];
        let mut next = xadj.clone();
        for j in 0..self.n {
            for &i in self.col_rows(j) {
                if i != j {
                    adjncy[next[i]] = j;
                    next[i] += 1;
                    adjncy[next[j]] = i;
                    next[j] += 1;
                }
            }
        }
        Graph::from_parts(xadj, adjncy).expect("valid SymCsc yields a valid graph")
    }

    /// The strict lower-triangular pattern as (colptr, rowind) without the
    /// diagonal — convenient for symbolic analysis.
    pub fn strict_lower_pattern(&self) -> (Vec<usize>, Vec<usize>) {
        let mut colptr = vec![0usize; self.n + 1];
        let mut rowind = Vec::with_capacity(self.nnz_lower() - self.n);
        for j in 0..self.n {
            // Skip the diagonal (first entry of each column).
            for &i in &self.col_rows(j)[1..] {
                rowind.push(i);
            }
            colptr[j + 1] = rowind.len();
        }
        (colptr, rowind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4x4 SPD arrow matrix: diag 4, last row/col -1.
    fn arrow4() -> SymCsc {
        let mut t = TripletMatrix::new(4, 4);
        for j in 0..4 {
            t.push(j, j, 4.0);
        }
        for j in 0..3 {
            t.push(3, j, -1.0);
        }
        SymCsc::from_lower_triplets(&t).unwrap()
    }

    #[test]
    fn construction_and_counts() {
        let a = arrow4();
        assert_eq!(a.n(), 4);
        assert_eq!(a.nnz_lower(), 7);
        assert_eq!(a.nnz_full(), 10);
        assert_eq!(a.diag(), vec![4.0; 4]);
    }

    #[test]
    fn rejects_upper_entries_and_missing_diagonal() {
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 1, 1.0);
        assert!(matches!(
            SymCsc::from_lower_triplets(&t),
            Err(SparseError::UpperEntry { .. })
        ));
        let mut t = TripletMatrix::new(2, 2);
        t.push(0, 0, 1.0);
        t.push(1, 0, 1.0);
        assert!(matches!(
            SymCsc::from_lower_triplets(&t),
            Err(SparseError::MissingDiagonal { col: 1 })
        ));
    }

    #[test]
    fn get_covers_both_triangles() {
        let a = arrow4();
        assert_eq!(a.get(3, 1), -1.0);
        assert_eq!(a.get(1, 3), -1.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 2), 4.0);
    }

    #[test]
    fn matvec_matches_full_expansion() {
        let a = arrow4();
        let full = a.to_full_csc();
        let x = [1.0, -2.0, 0.5, 3.0];
        let (mut y1, mut y2) = ([0.0; 4], [0.0; 4]);
        a.matvec(&x, &mut y1);
        full.matvec(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn norm_counts_offdiagonals_twice() {
        let a = arrow4();
        let expect = (4.0f64 * 16.0 + 6.0 * 1.0).sqrt();
        assert!((a.norm_fro() - expect).abs() < 1e-14);
        assert!((a.to_full_csc().norm_fro() - expect).abs() < 1e-14);
    }

    #[test]
    fn permutation_preserves_entries() {
        let a = arrow4();
        let p = Permutation::from_old_of(vec![3, 1, 0, 2]).unwrap();
        let b = a.permute(&p);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(b.get(p.new_of(i), p.new_of(j)), a.get(i, j));
            }
        }
    }

    #[test]
    fn graph_has_symmetric_adjacency() {
        let a = arrow4();
        let g = a.to_graph();
        assert_eq!(g.n(), 4);
        assert_eq!(g.degree(3), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.neighbors(0), &[3]);
    }

    #[test]
    fn strict_lower_pattern_drops_diagonal() {
        let a = arrow4();
        let (colptr, rowind) = a.strict_lower_pattern();
        assert_eq!(colptr, vec![0, 1, 2, 3, 3]);
        assert_eq!(rowind, vec![3, 3, 3]);
    }
}
