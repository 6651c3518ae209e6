//! Supernode detection and row structures.
//!
//! A supernode is a maximal set of consecutive columns of `L` sharing the
//! same below-diagonal sparsity structure (Liu–Ng–Peyton, *On finding
//! supernodes for sparse matrix computations*, 1993). On a postordered
//! matrix, column `j` extends the supernode of `j-1` iff
//!
//! * `parent(j-1) = j`, and
//! * `count(j-1) = count(j) + 1`,
//!
//! which together imply `struct(L_{*,j-1}) = struct(L_{*,j}) ∪ {j-1}`.
//! *Fundamental* supernodes additionally require `j-1` to be the only
//! etree child of `j`; the paper's Figure 1 example uses the maximal
//! (non-fundamental) definition, which is also this crate's default.

use crate::etree::EliminationTree;
use crate::NONE;
use rlchol_sparse::{Graph, Permutation};

/// A partition of the columns `0..n` into contiguous supernodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupernodePartition {
    /// Supernode `s` spans columns `sn_start[s] .. sn_start[s+1]`.
    pub sn_start: Vec<usize>,
    /// Inverse map: `col_to_sn[j]` is the supernode containing column `j`.
    pub col_to_sn: Vec<usize>,
}

impl SupernodePartition {
    /// Builds from supernode start offsets (`sn_start[0] = 0`, strictly
    /// increasing, last element = `n`).
    pub fn from_starts(sn_start: Vec<usize>) -> Self {
        assert!(!sn_start.is_empty() && sn_start[0] == 0);
        let n = *sn_start.last().unwrap();
        let mut col_to_sn = vec![0usize; n];
        for s in 0..sn_start.len() - 1 {
            assert!(sn_start[s] < sn_start[s + 1], "empty supernode {s}");
            for j in sn_start[s]..sn_start[s + 1] {
                col_to_sn[j] = s;
            }
        }
        SupernodePartition {
            sn_start,
            col_to_sn,
        }
    }

    /// Number of supernodes.
    pub fn nsup(&self) -> usize {
        self.sn_start.len() - 1
    }

    /// Number of columns overall.
    pub fn n(&self) -> usize {
        *self.sn_start.last().unwrap()
    }

    /// First column of supernode `s`.
    pub fn first_col(&self, s: usize) -> usize {
        self.sn_start[s]
    }

    /// One past the last column of supernode `s`.
    pub fn end_col(&self, s: usize) -> usize {
        self.sn_start[s + 1]
    }

    /// Width (number of columns) of supernode `s`.
    pub fn ncols(&self, s: usize) -> usize {
        self.sn_start[s + 1] - self.sn_start[s]
    }
}

/// Detects supernodes on a postordered matrix from the elimination tree
/// and factor column counts.
///
/// With `fundamental = true`, a column only extends the previous one when
/// it has exactly one etree child, yielding the finer fundamental
/// partition; with `false` (the default elsewhere in the workspace) the
/// maximal partition of the paper's Figure 1 is produced.
pub fn find_supernodes(
    etree: &EliminationTree,
    counts: &[usize],
    fundamental: bool,
) -> SupernodePartition {
    let n = etree.n();
    let nchild = etree.child_counts();
    let mut starts = Vec::new();
    for j in 0..n {
        let extends = j > 0
            && etree.parent[j - 1] == j
            && counts[j - 1] == counts[j] + 1
            && (!fundamental || nchild[j] == 1);
        if !extends {
            starts.push(j);
        }
    }
    starts.push(n);
    SupernodePartition::from_starts(starts)
}

/// Computes each supernode's below-diagonal row structure.
///
/// `sn` partitions the columns of the matrix `M` whose pattern is the
/// adjacency graph `g` renumbered by `map` (column `j` of `M` is vertex
/// `map.old_of(j)` of `g`) into supernodes of `M`'s factor. `rows[s]` is
/// the sorted list of row indices `> last(s)`, in `M`'s numbering,
/// present in the columns of supernode `s` of `L`. Only neighbours
/// numbered above `last(s)` are kept, so `g`'s neighbour lists, which
/// hold both triangles, are read as they stand. Computed bottom-up: a
/// child supernode's rows flow into the supernode containing its first
/// below-diagonal row (its supernodal parent).
pub fn supernode_rows(g: &Graph, sn: &SupernodePartition, map: &Permutation) -> Vec<Vec<usize>> {
    let nsup = sn.nsup();
    let (old_of, new_of) = (map.old_of_slice(), map.new_of_slice());
    let mut rows: Vec<Vec<usize>> = Vec::with_capacity(nsup);
    // Children in the supernodal elimination tree, as linked lists:
    // `first_child[p]`, then `next_sibling[c]` until [`NONE`].
    let mut first_child = vec![NONE; nsup];
    let mut next_sibling = vec![NONE; nsup];
    let mut mark = vec![NONE; g.n()];
    for s in 0..nsup {
        let last = sn.end_col(s) - 1;
        let mut set: Vec<usize> = Vec::new();
        // Original matrix entries below the supernode.
        for j in sn.first_col(s)..sn.end_col(s) {
            for &i in g.neighbors(old_of[j]) {
                let i = new_of[i];
                if i > last && mark[i] != s {
                    mark[i] = s;
                    set.push(i);
                }
            }
        }
        // Child contributions.
        let mut c = first_child[s];
        while c != NONE {
            for &i in &rows[c] {
                if i > last && mark[i] != s {
                    mark[i] = s;
                    set.push(i);
                }
            }
            c = next_sibling[c];
        }
        set.sort_unstable();
        if let Some(&first) = set.first() {
            let p = sn.col_to_sn[first];
            debug_assert!(p > s);
            next_sibling[s] = first_child[p];
            first_child[p] = s;
        }
        rows.push(set);
    }
    rows
}

/// The supernodal elimination tree: `parent[s]` is the supernode holding
/// `min(rows[s])`, or [`NONE`] for roots.
pub fn supernodal_etree(sn: &SupernodePartition, rows: &[Vec<usize>]) -> Vec<usize> {
    (0..sn.nsup())
        .map(|s| match rows[s].first() {
            Some(&r) => sn.col_to_sn[r],
            None => NONE,
        })
        .collect()
}

/// Checks that per-column counts implied by the supernode structure match
/// independently computed column counts. Returns the first mismatching
/// column, if any.
pub fn check_against_counts(
    sn: &SupernodePartition,
    rows: &[Vec<usize>],
    counts: &[usize],
) -> Option<usize> {
    for s in 0..sn.nsup() {
        let (f, e) = (sn.first_col(s), sn.end_col(s));
        for j in f..e {
            let implied = (e - j) + rows[s].len();
            if implied != counts[j] {
                return Some(j);
            }
        }
    }
    None
}

/// The 15×15 pattern of the paper's Figure 1 (0-based strict-lower
/// edges). Its factor has exactly this pattern (no additional fill) with
/// supernodes `J1..J6 = {0,1}, {2,3}, {4,5,6}, {7,8}, {9,10,11},
/// {12,13,14}` and the supernodal elimination tree of the figure.
pub fn paper_fig1_edges() -> Vec<(usize, usize)> {
    vec![
        // J1 columns 0,1: below-supernode rows {5, 6, 13}
        (1, 0),
        (5, 0),
        (6, 0),
        (13, 0),
        (5, 1),
        (6, 1),
        (13, 1),
        // J2 columns 2,3: rows {7, 8, 14}
        (3, 2),
        (7, 2),
        (8, 2),
        (14, 2),
        (7, 3),
        (8, 3),
        (14, 3),
        // J3 columns 4,5,6: rows {12, 13, 14}
        (5, 4),
        (6, 4),
        (12, 4),
        (13, 4),
        (14, 4),
        (6, 5),
        (12, 5),
        (13, 5),
        (14, 5),
        (12, 6),
        (13, 6),
        (14, 6),
        // J4 columns 7,8: A-rows {12, 13}; row 14 arrives as fill from the
        // J2 update, so rows(J4) = {12, 13, 14} in the factor.
        (8, 7),
        (12, 7),
        (13, 7),
        (12, 8),
        (13, 8),
        // J5 columns 9,10,11: rows {12, 13} — deliberately NOT {12,13,14},
        // otherwise column 11 and column 12 would share a structure and
        // the maximal rule would fuse J5 into J6, contradicting Figure 1.
        (10, 9),
        (11, 9),
        (12, 9),
        (13, 9),
        (11, 10),
        (12, 10),
        (13, 10),
        (12, 11),
        (13, 11),
        // J6 columns 12,13,14 (dense root)
        (13, 12),
        (14, 12),
        (14, 13),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colcount::col_counts;
    use rlchol_sparse::{SymCsc, TripletMatrix};

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
    fn paper_fig1_supernodes_and_tree() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        let t = EliminationTree::from_matrix(&a);
        // The paper's ordering is topological (parents after children) but
        // not a DFS postorder: subtrees interleave (J1 under J3, J2 under
        // J4). Supernode detection only needs the topological property.
        for (j, &p) in t.parent.iter().enumerate() {
            assert!(p == NONE || p > j);
        }
        let counts = col_counts(&a, &t);
        let sn = find_supernodes(&t, &counts, false);
        assert_eq!(sn.sn_start, vec![0, 2, 4, 7, 9, 12, 15]);
        let rows = supernode_rows(&a.to_graph(), &sn, &Permutation::identity(a.n()));
        assert_eq!(rows[0], vec![5, 6, 13]); // J1: rows 6,7,14 one-based
        assert_eq!(rows[1], vec![7, 8, 14]);
        assert_eq!(rows[2], vec![12, 13, 14]);
        // Row 14 of J4 is fill created by the J2 update (not present in A).
        assert_eq!(rows[3], vec![12, 13, 14]);
        assert_eq!(rows[4], vec![12, 13]);
        assert_eq!(rows[5], Vec::<usize>::new());
        // Supernodal etree matches the figure: J1→J3, J2→J4, J3→J6,
        // J4→J6, J5→J6.
        let par = supernodal_etree(&sn, &rows);
        assert_eq!(par, vec![2, 3, 5, 5, 5, NONE]);
        assert_eq!(check_against_counts(&sn, &rows, &counts), None);
        // J1 is stored in a 5x2 array, J3 in a 6x3 array (paper, §II-A).
        assert_eq!(sn.ncols(0) + rows[0].len(), 5);
        assert_eq!(sn.ncols(2) + rows[2].len(), 6);
    }

    #[test]
    fn fundamental_partition_is_finer_on_fig1() {
        // Column 5 of J3 has two etree children (columns 1 and 4), so the
        // fundamental rule splits J3 = {4,5,6} into {4} and {5,6}.
        let a = sym_from_edges(15, &paper_fig1_edges());
        let t = EliminationTree::from_matrix(&a);
        let counts = col_counts(&a, &t);
        let fine = find_supernodes(&t, &counts, true);
        let coarse = find_supernodes(&t, &counts, false);
        assert!(fine.nsup() > coarse.nsup());
        // Every fundamental boundary set contains the maximal boundaries.
        for &b in &coarse.sn_start {
            assert!(fine.sn_start.contains(&b));
        }
        // Row structures remain consistent for the finer partition too.
        let rows = supernode_rows(&a.to_graph(), &fine, &Permutation::identity(a.n()));
        assert_eq!(check_against_counts(&fine, &rows, &counts), None);
    }

    #[test]
    fn tridiagonal_yields_small_supernodes() {
        let a = sym_from_edges(6, &[(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]);
        let t = EliminationTree::from_matrix(&a);
        let counts = col_counts(&a, &t);
        let sn = find_supernodes(&t, &counts, false);
        // Counts are [2,2,2,2,2,1]: only the last pair merges.
        assert_eq!(sn.sn_start, vec![0, 1, 2, 3, 4, 6]);
        let rows = supernode_rows(&a.to_graph(), &sn, &Permutation::identity(a.n()));
        assert_eq!(check_against_counts(&sn, &rows, &counts), None);
    }

    #[test]
    fn dense_matrix_is_one_supernode() {
        let n = 6;
        let edges: Vec<(usize, usize)> = (0..n)
            .flat_map(|j| (j + 1..n).map(move |i| (i, j)))
            .collect();
        let a = sym_from_edges(n, &edges);
        let t = EliminationTree::from_matrix(&a);
        let counts = col_counts(&a, &t);
        let sn = find_supernodes(&t, &counts, false);
        assert_eq!(sn.nsup(), 1);
        assert_eq!(sn.ncols(0), n);
        let rows = supernode_rows(&a.to_graph(), &sn, &Permutation::identity(a.n()));
        assert!(rows[0].is_empty());
    }

    #[test]
    fn partition_accessors() {
        let sn = SupernodePartition::from_starts(vec![0, 2, 5, 6]);
        assert_eq!(sn.nsup(), 3);
        assert_eq!(sn.n(), 6);
        assert_eq!(sn.ncols(1), 3);
        assert_eq!(sn.col_to_sn, vec![0, 0, 1, 1, 1, 2]);
        assert_eq!(sn.first_col(2), 5);
        assert_eq!(sn.end_col(2), 6);
    }
}
