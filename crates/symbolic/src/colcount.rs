//! Exact column counts of the Cholesky factor, without forming `L`.
//!
//! For each row `i`, the columns `j < i` with `L[i,j] != 0` form the "row
//! subtree": the union of etree paths from each `k` with `A[i,k] != 0` up
//! towards `i`. Walking those paths with per-row markers counts every
//! nonzero of `L` exactly once, giving column counts in
//! `O(nnz(L))` time and `O(n)` extra space.

use std::sync::Mutex;

use crate::etree::{EliminationTree, LowerRows};
use rlchol_sparse::{Permutation, SymCsc};

/// Column counts of `L` (including the diagonal) for the matrix `a` with
/// elimination tree `etree`.
pub fn col_counts(a: &SymCsc, etree: &EliminationTree) -> Vec<usize> {
    let g = a.to_graph();
    col_counts_par(LowerRows::new(&g, &Permutation::identity(a.n())), etree, 1)
}

/// Adds the row subtrees of the rows `which` to `counts`. Walking the
/// path `k -> parent(k) -> ...` for each entry `(i, k)` until a vertex
/// already visited for row `i` (or `i` itself) marks every vertex with
/// `L[i, vertex] != 0` exactly once.
fn walk_rows(
    rows: LowerRows,
    parent: &[usize],
    which: impl Iterator<Item = usize>,
    counts: &mut [usize],
    mark: &mut [usize],
) {
    for i in which {
        mark[i] = i;
        for k in rows.row(i) {
            let mut j = k;
            while mark[j] != i {
                counts[j] += 1;
                mark[j] = i;
                j = parent[j];
                debug_assert!(j != crate::NONE, "path must reach row {i}");
            }
        }
    }
}

/// Column counts of `L` (including the diagonal) for the matrix whose
/// strict lower triangle is `rows` and whose elimination tree is `etree`.
///
/// With `threads > 1`, lane `t` walks the rows `t, t + threads, …` with
/// a **private** `counts`/`mark` pair on [`rlchol_dense::pool`], and the
/// per-lane counts are summed. Interleaving balances the lanes: a row's
/// walk grows with its row of `L`, which is longest for the last rows
/// (the top separators of a nested-dissection ordering), so contiguous
/// ranges would leave one lane most of the work. Bit-identical to the
/// serial pass by construction: each row's subtree walk is independent
/// of every other row's (the serial `mark` state only ever terminates a
/// walk at vertices marked *by the same row*), and the merge sums exact
/// `usize` increments, which commute. A `threads <= 1` call is the
/// serial pass.
pub fn col_counts_par(rows: LowerRows, etree: &EliminationTree, threads: usize) -> Vec<usize> {
    let n = rows.n();
    let parent = &etree.parent;
    if threads <= 1 || n < 2 * threads {
        let mut counts = vec![1usize; n]; // diagonal entries
        walk_rows(rows, parent, 0..n, &mut counts, &mut vec![usize::MAX; n]);
        return counts;
    }
    let partials: Vec<Mutex<Vec<usize>>> = (0..threads).map(|_| Mutex::default()).collect();
    rlchol_dense::pool::global().run_for(threads, &|t| {
        let mut counts = vec![0usize; n];
        let mut mark = vec![usize::MAX; n];
        walk_rows(
            rows,
            parent,
            (t..n).step_by(threads),
            &mut counts,
            &mut mark,
        );
        *partials[t]
            .lock()
            .expect("each index locks only its own slot") = counts;
    });

    let mut counts = vec![1usize; n]; // diagonal entries
    for partial in partials {
        let partial = partial
            .into_inner()
            .expect("run_for re-raises a panicking index");
        for (c, p) in counts.iter_mut().zip(partial) {
            *c += p;
        }
    }
    counts
}

/// Total factor nonzeros implied by the counts (lower triangle incl.
/// diagonal).
pub fn factor_nnz(counts: &[usize]) -> u64 {
    counts.iter().map(|&c| c as u64).sum()
}

/// Factorization flop count implied by the counts: `Σ_j c_j²` (the classic
/// `Σ (count_j)(count_j+1)…` variants differ by lower-order terms; this is
/// the standard measure used to compare orderings).
pub fn factor_flops(counts: &[usize]) -> f64 {
    counts.iter().map(|&c| (c as f64) * (c as f64)).sum()
}

/// Reference column counts via explicit symbolic factorization (O(nnz(L))
/// memory). Used by tests and small problems.
pub fn col_counts_reference(a: &SymCsc, etree: &EliminationTree) -> Vec<usize> {
    let n = a.n();
    // struct[j] = sorted below-diagonal row indices of column j of L.
    let mut structs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut mark = vec![usize::MAX; n];
    for j in 0..n {
        // Start from A's pattern below the diagonal.
        mark[j] = j;
        let mut s: Vec<usize> = Vec::new();
        for &i in &a.col_rows(j)[1..] {
            if mark[i] != j {
                mark[i] = j;
                s.push(i);
            }
        }
        // Merge children structures (minus j itself).
        let children: Vec<usize> = (0..j).filter(|&c| etree.parent[c] == j).collect();
        for c in children {
            for &i in &structs[c] {
                if i > j && mark[i] != j {
                    mark[i] = j;
                    s.push(i);
                }
            }
        }
        s.sort_unstable();
        structs[j] = s;
    }
    structs.iter().map(|s| s.len() + 1).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use rlchol_sparse::TripletMatrix;

    fn sym_from_edges(n: usize, edges: &[(usize, usize)]) -> SymCsc {
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 4.0);
        }
        for &(i, j) in edges {
            t.push(i.max(j), i.min(j), -1.0);
        }
        SymCsc::from_lower_triplets(&t).unwrap()
    }

    #[test]
    fn dense_matrix_counts() {
        let n = 5;
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|j| (j + 1..n).map(move |i| (i, j)))
            .collect();
        let a = sym_from_edges(n, &edges);
        let t = EliminationTree::from_matrix(&a);
        let c = col_counts(&a, &t);
        assert_eq!(c, vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn tridiagonal_counts_are_two() {
        let a = sym_from_edges(6, &[(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]);
        let t = EliminationTree::from_matrix(&a);
        let c = col_counts(&a, &t);
        assert_eq!(c, vec![2, 2, 2, 2, 2, 1]);
        assert_eq!(factor_nnz(&c), 11);
    }

    #[test]
    fn fill_is_counted() {
        // Star centered at 0: eliminating 0 makes columns 1..n-1 dense.
        let a = sym_from_edges(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let t = EliminationTree::from_matrix(&a);
        let c = col_counts(&a, &t);
        assert_eq!(c, vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn matches_reference_on_random_graphs() {
        let mut rng = StdRng::seed_from_u64(99);
        for n in [10usize, 30, 60] {
            let mut edges = Vec::new();
            for i in 1..n {
                // Ensure connectivity then sprinkle extras.
                let j = rng.random_range(0..i);
                edges.push((i, j));
                for _ in 0..2 {
                    let a = rng.random_range(0..n);
                    let b = rng.random_range(0..n);
                    if a != b {
                        edges.push((a.max(b), a.min(b)));
                    }
                }
            }
            let a = sym_from_edges(n, &edges);
            let t = EliminationTree::from_matrix(&a);
            assert_eq!(col_counts(&a, &t), col_counts_reference(&a, &t), "n={n}");
        }
    }

    #[test]
    fn parallel_counts_match_serial_exactly() {
        let mut rng = StdRng::seed_from_u64(41);
        for n in [1usize, 2, 7, 30, 120] {
            let mut edges = Vec::new();
            for i in 1..n {
                let j = rng.random_range(0..i);
                edges.push((i, j));
                for _ in 0..3 {
                    let a = rng.random_range(0..n);
                    let b = rng.random_range(0..n);
                    if a != b {
                        edges.push((a.max(b), a.min(b)));
                    }
                }
            }
            let a = sym_from_edges(n, &edges);
            let t = EliminationTree::from_matrix(&a);
            let serial = col_counts(&a, &t);
            let g = a.to_graph();
            let id = Permutation::identity(n);
            for threads in [1usize, 2, 4, 8] {
                assert_eq!(
                    col_counts_par(LowerRows::new(&g, &id), &t, threads),
                    serial,
                    "n={n} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn flops_metric_monotone_in_fill() {
        let chain = sym_from_edges(5, &[(1, 0), (2, 1), (3, 2), (4, 3)]);
        let star = sym_from_edges(5, &[(1, 0), (2, 0), (3, 0), (4, 0)]);
        let tc = EliminationTree::from_matrix(&chain);
        let ts = EliminationTree::from_matrix(&star);
        let fc = factor_flops(&col_counts(&chain, &tc));
        let fs = factor_flops(&col_counts(&star, &ts));
        assert!(fs > fc);
    }
}
