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
//! Every live non-root node has exactly one candidate — the merge into
//! its current parent — so the candidates live in an *indexed* min-heap
//! keyed by `(cost, child)`: a merge re-keys the surviving parent and its
//! children in place, so the heap never holds a stale entry.
//!
//! Because `rows(J) ⊆ cols(P) ∪ rows(P)` for a supernodal child, the
//! merged node's row set is exactly `rows(P)`, and the extra fill has the
//! closed form `cJ·cP + cJ·(|rows(P)| − |rows(J)|)`. A merged node's rows
//! are therefore always the input rows of the supernode it kept, and only
//! column *counts* are tracked while merging; each node's column list is
//! collected once, at the end.
//!
//! Merged supernodes need not be contiguous in the current ordering
//! (siblings may sit between a child and its parent), so the merge phase
//! also produces a **topological reordering** making every merged
//! supernode a contiguous column range. Such reorderings preserve the
//! simplicial fill exactly (they are equivalent orderings of the etree).

use std::cmp::Reverse;

use crate::supernodes::SupernodePartition;
use crate::NONE;
use rlchol_sparse::Permutation;

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

/// A (possibly merged) supernode, indexed by the input supernode whose
/// row set it keeps.
struct Node {
    /// Number of (pre-merge) columns.
    ncols: usize,
    parent: usize,
    children: Vec<usize>,
    /// The node this one was merged into, or [`NONE`] while alive.
    merged_into: usize,
}

/// Binary min-heap over node ids keyed by `(cost[j], j)`, with a position
/// index so a node's key can change in place.
struct CandidateHeap {
    heap: Vec<usize>,
    /// Slot of each node in `heap`, or [`NONE`].
    pos: Vec<usize>,
    cost: Vec<u64>,
}

impl CandidateHeap {
    fn new(n: usize) -> Self {
        CandidateHeap {
            heap: Vec::with_capacity(n),
            pos: vec![NONE; n],
            cost: vec![0; n],
        }
    }

    fn less(&self, a: usize, b: usize) -> bool {
        (self.cost[a], a) < (self.cost[b], b)
    }

    fn place(&mut self, slot: usize, j: usize) {
        self.heap[slot] = j;
        self.pos[j] = slot;
    }

    fn sift_up(&mut self, mut slot: usize) {
        let j = self.heap[slot];
        while slot > 0 {
            let up = (slot - 1) / 2;
            if !self.less(j, self.heap[up]) {
                break;
            }
            self.place(slot, self.heap[up]);
            slot = up;
        }
        self.place(slot, j);
    }

    fn sift_down(&mut self, mut slot: usize) {
        let j = self.heap[slot];
        let len = self.heap.len();
        loop {
            let mut child = 2 * slot + 1;
            if child >= len {
                break;
            }
            if child + 1 < len && self.less(self.heap[child + 1], self.heap[child]) {
                child += 1;
            }
            if !self.less(self.heap[child], j) {
                break;
            }
            self.place(slot, self.heap[child]);
            slot = child;
        }
        self.place(slot, j);
    }

    /// Inserts `j` with key `cost`, or moves it to that key.
    fn set(&mut self, j: usize, cost: u64) {
        let old = self.cost[j];
        self.cost[j] = cost;
        match self.pos[j] {
            NONE => {
                self.heap.push(j);
                self.sift_up(self.heap.len() - 1);
            }
            slot if cost < old => self.sift_up(slot),
            slot => self.sift_down(slot),
        }
    }

    /// The node with the smallest key, and its cost.
    fn peek(&self) -> Option<(usize, u64)> {
        self.heap.first().map(|&j| (j, self.cost[j]))
    }

    fn pop(&mut self) {
        let last = self.heap.pop().expect("pop on a non-empty heap");
        self.pos[last] = NONE;
        if !self.heap.is_empty() {
            self.pos[self.heap[0]] = NONE;
            self.place(0, last);
            self.sift_down(0);
        }
    }
}

/// Keys `j`'s candidate — its merge into its current parent — if it has
/// a parent.
fn key_candidate(heap: &mut CandidateHeap, nodes: &[Node], rows: &[Vec<usize>], j: usize) {
    let p = nodes[j].parent;
    if p != NONE {
        let cost = merge_cost(nodes[j].ncols, rows[j].len(), nodes[p].ncols, rows[p].len());
        heap.set(j, cost);
    }
}

/// Runs relaxed amalgamation.
///
/// `growth_cap` bounds the *cumulative relative increase* in factor
/// storage (the paper uses `0.25`). `rows[s]` must be the below-diagonal
/// structure of supernode `s`, sorted ascending.
pub fn merge_supernodes(
    sn: &SupernodePartition,
    rows: &[Vec<usize>],
    growth_cap: f64,
) -> MergeResult {
    let nsup = sn.nsup();
    let n = sn.n();
    let mut nodes: Vec<Node> = (0..nsup)
        .map(|s| Node {
            ncols: sn.ncols(s),
            parent: NONE,
            children: Vec::new(),
            merged_into: NONE,
        })
        .collect();
    // Parent pointers from the supernodal etree.
    for s in 0..nsup {
        if let Some(&r) = rows[s].first() {
            let p = sn.col_to_sn[r];
            nodes[s].parent = p;
            nodes[p].children.push(s);
        }
    }

    let base_storage: u64 = (0..nsup).map(|s| storage(sn.ncols(s), rows[s].len())).sum();
    let budget = (base_storage as f64 * growth_cap) as u64;

    let mut heap = CandidateHeap::new(nsup);
    for s in 0..nsup {
        key_candidate(&mut heap, &nodes, rows, s);
    }

    let mut extra_fill = 0u64;
    let mut merges = 0usize;
    while let Some((j, cost)) = heap.peek() {
        if extra_fill + cost > budget && cost > 0 {
            // The heap is cost-ordered, so every remaining candidate costs
            // at least this much: no further merge can fit the budget.
            break;
        }
        heap.pop();
        // Merge j into p.
        let p = nodes[j].parent;
        extra_fill += cost;
        merges += 1;
        nodes[j].merged_into = p;
        let grandchildren = std::mem::take(&mut nodes[j].children);
        nodes[p].ncols += nodes[j].ncols;
        nodes[p].children.retain(|&c| c != j);
        for &c in &grandchildren {
            nodes[c].parent = p;
        }
        nodes[p].children.extend_from_slice(&grandchildren);
        // Re-key candidates involving p (itself and its children).
        key_candidate(&mut heap, &nodes, rows, p);
        for k in 0..nodes[p].children.len() {
            key_candidate(&mut heap, &nodes, rows, nodes[p].children[k]);
        }
    }

    build_result(sn, rows, nodes, n, merges, extra_fill, base_storage)
}

/// Postorders the merged forest and renumbers columns so each merged
/// supernode is contiguous.
fn build_result(
    sn: &SupernodePartition,
    rows: &[Vec<usize>],
    mut nodes: Vec<Node>,
    n: usize,
    merges: usize,
    extra_fill: u64,
    base_storage: u64,
) -> MergeResult {
    // Each input supernode's columns go to the live node it ended up in.
    // Visiting supernodes in column order keeps every node's list sorted.
    let nsup = nodes.len();
    let mut cols: Vec<Vec<usize>> = vec![Vec::new(); nsup];
    for s in 0..nsup {
        let mut live = s;
        while nodes[live].merged_into != NONE {
            live = nodes[live].merged_into;
        }
        // Path compression: later members of the same chain stop here.
        let mut v = s;
        while nodes[v].merged_into != NONE {
            let next = nodes[v].merged_into;
            nodes[v].merged_into = live;
            v = next;
        }
        cols[live].extend(sn.first_col(s)..sn.end_col(s));
    }

    let live: Vec<usize> = (0..nsup)
        .filter(|&s| nodes[s].merged_into == NONE)
        .collect();
    // DFS postorder over live nodes; roots and children ordered by their
    // smallest original column for determinism.
    let key = |s: usize| cols[s][0];
    let mut roots: Vec<usize> = live
        .iter()
        .copied()
        .filter(|&s| nodes[s].parent == NONE)
        .collect();
    roots.sort_by_key(|&s| key(s));
    let mut order: Vec<usize> = Vec::with_capacity(live.len());
    let mut stack: Vec<(usize, bool)> = Vec::new();
    let mut kids: Vec<usize> = Vec::new();
    for &r in roots.iter() {
        stack.push((r, false));
        while let Some((v, expanded)) = stack.pop() {
            if expanded {
                order.push(v);
            } else {
                stack.push((v, true));
                kids.clone_from(&nodes[v].children);
                kids.sort_by_key(|&s| Reverse(key(s)));
                stack.extend(kids.iter().map(|&k| (k, false)));
            }
        }
    }
    debug_assert_eq!(order.len(), live.len());

    // New column numbering: concatenate each supernode's columns.
    let mut old_of = Vec::with_capacity(n);
    let mut sn_start = vec![0usize];
    for &s in &order {
        old_of.extend_from_slice(&cols[s]);
        sn_start.push(old_of.len());
    }
    let perm = Permutation::from_old_of(old_of).expect("merge reordering is a bijection");
    let merged = SupernodePartition::from_starts(sn_start);
    // Map row sets to the new numbering.
    let new_rows: Vec<Vec<usize>> = order
        .iter()
        .map(|&s| {
            let mut r: Vec<usize> = rows[s].iter().map(|&i| perm.new_of(i)).collect();
            r.sort_unstable();
            r
        })
        .collect();
    MergeResult {
        perm,
        sn: merged,
        rows: new_rows,
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

    fn setup(a: &SymCsc) -> (SupernodePartition, Vec<Vec<usize>>) {
        let t = EliminationTree::from_matrix(a);
        let counts = col_counts(a, &t);
        let sn = find_supernodes(&t, &counts, false);
        let rows = supernode_rows(a, &sn);
        (sn, rows)
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
        let (sn, rows) = setup(&a);
        let before = total_storage(&sn, &rows);
        let m = merge_supernodes(&sn, &rows, 0.0);
        assert_eq!(m.extra_fill, 0);
        let after = total_storage(&m.sn, &m.rows);
        assert_eq!(before, after);
    }

    #[test]
    fn cap_is_respected() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        let (sn, rows) = setup(&a);
        for cap in [0.1, 0.25, 0.5, 1.0] {
            let m = merge_supernodes(&sn, &rows, cap);
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
        let (sn, rows) = setup(&a);
        let mut prev = sn.nsup() + 1;
        for cap in [0.0, 0.25, 1.0, 10.0] {
            let m = merge_supernodes(&sn, &rows, cap);
            assert!(m.sn.nsup() <= prev);
            prev = m.sn.nsup();
        }
    }

    #[test]
    fn huge_cap_merges_everything_connected() {
        // A chain: every supernode merges into one.
        let a = sym_from_edges(6, &[(1, 0), (2, 1), (3, 2), (4, 3), (5, 4)]);
        let (sn, rows) = setup(&a);
        let m = merge_supernodes(&sn, &rows, 1e9);
        assert_eq!(m.sn.nsup(), 1);
        assert_eq!(m.sn.ncols(0), 6);
        assert!(m.rows[0].is_empty());
    }

    #[test]
    fn permutation_is_topological_for_rows() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        let (sn, rows) = setup(&a);
        let m = merge_supernodes(&sn, &rows, 0.25);
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
        let (sn, rows) = setup(&a);
        let m = merge_supernodes(&sn, &rows, 0.25);
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
