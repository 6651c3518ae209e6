//! Relaxed supernode amalgamation (Ashcraft–Grimes).
//!
//! Small supernodes at the bottom of the supernodal elimination tree make
//! BLAS calls tiny; merging a child supernode `J` into its supernodal
//! parent `P` coarsens the partition at the price of storing explicit
//! zeros. Following §IV-A of the paper:
//!
//! * candidate merges are child/parent pairs `(J, p(J))`;
//! * at each step the pair introducing the **least new fill** is merged,
//!   ties going to the smallest child index;
//! * merging stops once the cumulative increase in factor storage exceeds
//!   a cap (25 % in the paper).
//!
//! Because `rows(J) ⊆ cols(P) ∪ rows(P)` for a supernodal child, the
//! merged node's row set is exactly `rows(P)`, and the extra fill has the
//! closed form `cJ·cP + cJ·(rP − rJ)` (`c` columns, `r` rows below the
//! diagonal). A merged node's rows are therefore always those of the
//! input supernode it kept, and the merge loop runs on three flat arrays
//! per input supernode, all read off the last column `l` of the supernode:
//! its width, `r = count(l) − 1` and the parent `col_to_sn[parent(l)]`.
//! Row structures are built once, for the merged partition, by
//! [`supernode_rows`].
//!
//! **Lazy candidate heap.** Every candidate cost is nondecreasing under a
//! merge of `J` into `P`:
//!
//! * a child `C` of `P` costs `cC·cP + cC·(rP − rC)`, and `cP` grows;
//! * `P`'s own candidate grows by `cJ·(cQ + rQ − rP) ≥ 0` (`Q` the parent
//!   of `P`, and `rP ≤ cQ + rQ` by the row identity);
//! * a child `G` of `J` moves from `cG·cJ + cG·(rJ − rG)` to
//!   `cG·(cP + cJ) + cG·(rP − rG)`, a growth of `cG·(cP + rP − rJ) ≥ 0`.
//!
//! So a plain min-heap of `(cost, child)` holds exactly one entry per live
//! non-root node, keyed at most at its current cost. The top entry is
//! recomputed against the node's current parent — the live end of its
//! input parent's `merged_into` chain, found by union-find with path
//! compression — and re-keyed in place if its cost grew. The first top
//! entry that validates is ≤ every other entry, hence ≤ every other
//! node's current cost, so it is the `argmin (cost, child)` an eagerly
//! re-keyed heap would return: the merge sequence, its tie-break and the
//! budget stop are those of eager re-keying, without touching `P`'s
//! children. Only a validated entry meets the budget check.
//!
//! **Merged postorder.** Merged supernodes need not be contiguous in the
//! current ordering (siblings may sit between a child and its parent), so
//! the merge phase also produces a **topological reordering** making every
//! merged supernode a contiguous column range. Such reorderings preserve
//! the simplicial fill exactly (they are equivalent orderings of the
//! etree). The input is postordered, so a merged node's subtree covers a
//! contiguous column range ending at the last column of the node it kept;
//! a postorder of the merged tree that visits children by their smallest
//! column is therefore the ascending order of the kept input supernodes,
//! and one pass over the input supernodes places every column.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::etree::EliminationTree;
use crate::supernodes::{supernode_rows, SupernodePartition};
use crate::NONE;
use rlchol_sparse::{Graph, Permutation};

/// Result of the merge phase.
#[derive(Debug, Clone)]
pub struct MergeResult {
    /// Topological column reordering (`old_of[new] = old`) that makes
    /// merged supernodes contiguous. Apply to the matrix before numeric
    /// factorization.
    pub perm: Permutation,
    /// The merged partition, in the **new** column numbering.
    pub sn: SupernodePartition,
    /// Per-supernode below-diagonal row structures, new numbering.
    pub rows: Vec<Vec<usize>>,
    /// Number of pairwise merges performed.
    pub merges: usize,
    /// Explicit-zero entries introduced (units of factor entries).
    pub extra_fill: u64,
    /// Factor entries before merging (lower triangle incl. diagonal).
    pub base_storage: u64,
}

/// Storage of a supernode with `c` columns and `r` below-diagonal rows:
/// dense triangle plus rectangle, in factor entries.
pub fn storage(c: usize, r: usize) -> u64 {
    (c * (c + 1) / 2 + c * r) as u64
}

/// Extra fill caused by merging child `(cj, rj)` into parent `(cp, rp)`.
fn merge_cost(cj: usize, rj: usize, cp: usize, rp: usize) -> u64 {
    // t(cj+cp) - t(cj) - t(cp) = cj*cp ; plus cj*(rp - rj) which is
    // nonnegative because rows(J) ⊆ cols(P) ∪ rows(P).
    debug_assert!(rj <= cp + rp);
    (cj * cp) as u64 + (cj as u64) * (rp as u64) - (cj as u64) * (rj as u64)
}

/// The live node `s` was merged into: the end of its `merged_into`
/// chain, which is compressed to point there directly.
fn find(merged_into: &mut [usize], s: usize) -> usize {
    let mut live = s;
    while merged_into[live] != NONE {
        live = merged_into[live];
    }
    let mut v = s;
    while merged_into[v] != NONE {
        let next = merged_into[v];
        merged_into[v] = live;
        v = next;
    }
    live
}

/// Runs relaxed amalgamation on the partition `sn` of the postordered
/// matrix `M`, whose elimination tree is `etree` and factor column counts
/// are `counts`, and builds the merged partition's row structures. `M`'s
/// pattern is the adjacency graph `g` renumbered by `numbering`: column
/// `j` of `M` is vertex `numbering.old_of(j)` of `g`. (An input that is
/// only topologically ordered still gets a valid merged partition and
/// reordering, though not the postorder of the merged tree.)
///
/// `growth_cap` bounds the *cumulative relative increase* in factor
/// storage (the paper uses `0.25`).
pub fn merge_supernodes(
    g: &Graph,
    numbering: &Permutation,
    etree: &EliminationTree,
    counts: &[usize],
    sn: &SupernodePartition,
    growth_cap: f64,
) -> MergeResult {
    let nsup = sn.nsup();
    // Width (grows as children merge in), rows below the diagonal and
    // supernodal parent of every input supernode, from its last column.
    let mut ncols: Vec<usize> = (0..nsup).map(|s| sn.ncols(s)).collect();
    let nrows: Vec<usize> = (0..nsup).map(|s| counts[sn.end_col(s) - 1] - 1).collect();
    let parent: Vec<usize> = (0..nsup)
        .map(|s| match etree.parent[sn.end_col(s) - 1] {
            NONE => NONE,
            p => sn.col_to_sn[p],
        })
        .collect();

    let base_storage: u64 = (0..nsup).map(|s| storage(ncols[s], nrows[s])).sum();
    let budget = (base_storage as f64 * growth_cap) as u64;

    let cost =
        |ncols: &[usize], j: usize, p: usize| merge_cost(ncols[j], nrows[j], ncols[p], nrows[p]);
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..nsup)
        .filter(|&j| parent[j] != NONE)
        .map(|j| Reverse((cost(&ncols, j, parent[j]), j)))
        .collect();
    let mut merged_into = vec![NONE; nsup];
    let mut extra_fill = 0u64;
    let mut merges = 0usize;
    while let Some(mut top) = heap.peek_mut() {
        let Reverse((key, j)) = *top;
        // Only a validated entry leaves the heap, and its node merges or
        // ends the loop: every entry belongs to a live node.
        debug_assert_eq!(merged_into[j], NONE);
        let p = find(&mut merged_into, parent[j]);
        let c = cost(&ncols, j, p);
        if c > key {
            // Stale: re-key in place (sifts down when `top` drops).
            *top = Reverse((c, j));
            continue;
        }
        if extra_fill + c > budget && c > 0 {
            // `c` is the least current cost: no further merge fits.
            break;
        }
        PeekMut::pop(top);
        extra_fill += c;
        merges += 1;
        merged_into[j] = p;
        ncols[p] += ncols[j];
    }

    // Live nodes in ascending index are the merged postorder: give each
    // its column range, then place every input supernode's columns in
    // the range of the node it ended up in.
    let mut next = vec![0usize; nsup];
    let mut sn_start = vec![0usize];
    for m in (0..nsup).filter(|&m| merged_into[m] == NONE) {
        let f = sn_start[sn_start.len() - 1];
        next[m] = f;
        sn_start.push(f + ncols[m]);
    }
    let mut old_of = vec![0usize; sn.n()];
    for s in 0..nsup {
        let m = find(&mut merged_into, s);
        for j in sn.first_col(s)..sn.end_col(s) {
            old_of[next[m]] = j;
            next[m] += 1;
        }
    }
    let perm = Permutation::from_old_of(old_of).expect("merge reordering is a bijection");
    let merged = SupernodePartition::from_starts(sn_start);
    let rows = supernode_rows(g, &merged, &perm.compose(numbering));
    MergeResult {
        perm,
        sn: merged,
        rows,
        merges,
        extra_fill,
        base_storage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::colcount::col_counts;
    use crate::etree::EliminationTree;
    use crate::supernodes::{find_supernodes, paper_fig1_edges, supernode_rows};
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

    /// The input partition of `a` and its row structures, and `a`'s
    /// amalgamation at `cap`.
    fn setup(a: &SymCsc, cap: f64) -> (SupernodePartition, Vec<Vec<usize>>, MergeResult) {
        let t = EliminationTree::from_matrix(a);
        let counts = col_counts(a, &t);
        let sn = find_supernodes(&t, &counts, false);
        let (g, id) = (a.to_graph(), Permutation::identity(a.n()));
        let rows = supernode_rows(&g, &sn, &id);
        let m = merge_supernodes(&g, &id, &t, &counts, &sn, cap);
        (sn, rows, m)
    }

    /// Total storage of a partition.
    fn total_storage(sn: &SupernodePartition, rows: &[Vec<usize>]) -> u64 {
        (0..sn.nsup())
            .map(|s| storage(sn.ncols(s), rows[s].len()))
            .sum()
    }

    #[test]
    fn zero_cap_only_does_free_merges() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        let (sn, rows, m) = setup(&a, 0.0);
        let before = total_storage(&sn, &rows);
        assert_eq!(m.extra_fill, 0);
        let after = total_storage(&m.sn, &m.rows);
        assert_eq!(before, after);
    }

    #[test]
    fn cap_is_respected() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        for cap in [0.1, 0.25, 0.5, 1.0] {
            let (_, _, m) = setup(&a, cap);
            let budget = (m.base_storage as f64 * cap) as u64;
            assert!(
                m.extra_fill <= budget,
                "cap {cap}: {} > {budget}",
                m.extra_fill
            );
            // Measured storage growth equals the accounted extra fill.
            let after = total_storage(&m.sn, &m.rows);
            assert_eq!(after, m.base_storage + m.extra_fill);
        }
    }

    #[test]
    fn merging_reduces_supernode_count_monotonically_in_cap() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        let mut prev = 16;
        for cap in [0.0, 0.25, 1.0, 10.0] {
            let (_, _, m) = setup(&a, cap);
            assert!(m.sn.nsup() <= prev);
            prev = m.sn.nsup();
        }
    }

    #[test]
    fn huge_cap_merges_everything_connected() {
        // A chain: every supernode merges into one.
        let a = sym_from_edges(6, &[(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]);
        let (_, _, m) = setup(&a, 1e9);
        assert_eq!(m.sn.nsup(), 1);
        assert_eq!(m.sn.ncols(0), 6);
        assert!(m.rows[0].is_empty());
    }

    #[test]
    fn permutation_is_topological_for_rows() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        let (_, _, m) = setup(&a, 0.25);
        // Every supernode's rows lie strictly after its last column.
        for s in 0..m.sn.nsup() {
            let last = m.sn.end_col(s) - 1;
            for &r in &m.rows[s] {
                assert!(r > last, "supernode {s} has row {r} <= last col {last}");
            }
        }
        // And the permutation is a bijection (validated on construction).
        assert_eq!(m.perm.len(), 15);
    }

    #[test]
    fn merged_structure_covers_refactored_matrix() {
        // After applying the merge permutation to A, the merged partition
        // must describe a superset of L's true structure (explicit zeros
        // are allowed, lost entries are not).
        let a = sym_from_edges(15, &paper_fig1_edges());
        let (_, _, m) = setup(&a, 0.25);
        let ap = a.permute(&m.perm);
        let t2 = EliminationTree::from_matrix(&ap);
        let true_counts = col_counts(&ap, &t2);
        for s in 0..m.sn.nsup() {
            let (f, e) = (m.sn.first_col(s), m.sn.end_col(s));
            for j in f..e {
                let implied = (e - j) + m.rows[s].len();
                assert!(
                    implied >= true_counts[j],
                    "column {j}: implied {implied} < true {}",
                    true_counts[j]
                );
            }
        }
    }
}
