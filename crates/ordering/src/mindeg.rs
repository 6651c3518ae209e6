//! Exact external-degree minimum degree, on bitsets or a quotient graph.
//!
//! Both representations eliminate, at every step, the live vertex of
//! least degree in the current elimination graph, ties broken toward the
//! smallest index, so they produce the same ordering; [`min_degree`]
//! picks by size.
//!
//! * Up to [`BITSET_MAX`] vertices, the elimination graph itself is held
//!   as one `u128` row per vertex. Eliminating pivot `p` with neighbors
//!   `N` turns `N` into a clique: `adj[u] = (adj[u] | N) & live & !u` for
//!   each `u` in `N`, and the next pivot is the first live vertex of
//!   least popcount, read off degree buckets that are bitsets too.
//!   Nested dissection orders every leaf (at most 96 vertices) and most
//!   separators this way.
//! * Larger graphs use the quotient-graph representation (George & Liu),
//!   whose memory stays linear in the original edge count: per live
//!   variable, a list of remaining *variable* neighbors and a list of
//!   *elements* (cliques created by past eliminations). Eliminating a
//!   pivot forms a new element from its reachable set, absorbs the
//!   pivot's old elements, and prunes variable lists. After each pivot,
//!   every variable of the new element `Lp` has its reachable set (live
//!   variable neighbors plus the live variables of its elements)
//!   *counted* by one marked scan; pruning needs no per-variable work
//!   either: `Lp` is tagged once per pivot, and absorbed elements are
//!   flagged dead (a live variable can only list an element that has not
//!   been absorbed yet, since absorption reaches every live variable of
//!   the element).
//!
//! Why the two agree: a variable's reachable set *is* its neighborhood in
//! the elimination graph, so the counted degree equals the bitset
//! popcount; and the quotient path's heap pops exactly the least
//! `(degree, index)` among live vertices, because entries made stale by a
//! later degree update are skipped by stamp. A property test in this
//! module compares the two on random graphs of up to 128 vertices.

use rlchol_sparse::{Graph, Permutation};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Largest graph ordered on `u128` bitsets.
const BITSET_MAX: usize = 128;

/// Computes an exact minimum-degree ordering of `g`.
///
/// Ties break toward the smallest vertex index, making the ordering
/// deterministic.
pub fn min_degree(g: &Graph) -> Permutation {
    let mut order = Vec::with_capacity(g.n());
    min_degree_into(g, |v| order.push(v));
    Permutation::from_old_of(order).expect("minimum degree visits each vertex once")
}

/// Calls `emit` on each vertex of `g` in [`min_degree`] elimination order.
pub(crate) fn min_degree_into(g: &Graph, emit: impl FnMut(usize)) {
    if g.n() <= BITSET_MAX {
        bitset_order(g, emit);
    } else {
        quotient_order(g, emit);
    }
}

/// Minimum degree on the elimination graph held as `u128` rows.
fn bitset_order(g: &Graph, mut emit: impl FnMut(usize)) {
    let n = g.n();
    debug_assert!(n <= BITSET_MAX);
    let mut adj = [0u128; BITSET_MAX];
    let mut deg = [0usize; BITSET_MAX];
    let mut buckets = DegreeBuckets {
        of: [0; BITSET_MAX],
        nonempty: 0,
    };
    for v in 0..n {
        adj[v] = g.neighbors(v).iter().fold(0, |m, &u| m | 1 << u);
        deg[v] = g.degree(v);
        buckets.insert(v, deg[v]);
    }
    // Invariant: the row of a live vertex holds only live vertices, and
    // `deg` is its popcount.
    let mut live = u128::MAX.checked_shr((BITSET_MAX - n) as u32).unwrap_or(0);
    while let Some(p) = buckets.pop_min() {
        live &= !(1 << p);
        let nbrs = adj[p] & live;
        let mut rest = nbrs;
        while rest != 0 {
            let u = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            adj[u] = (adj[u] | nbrs) & live & !(1 << u);
            let d = adj[u].count_ones() as usize;
            if d != deg[u] {
                buckets.remove(u, deg[u]);
                buckets.insert(u, d);
                deg[u] = d;
            }
        }
        emit(p);
    }
}

/// Live vertices of a bitset elimination graph grouped by degree
/// (always below [`BITSET_MAX`]): the least `(degree, index)` is the
/// lowest vertex of the lowest nonempty group.
struct DegreeBuckets {
    /// `of[d]`: the vertices of degree `d`.
    of: [u128; BITSET_MAX],
    /// Bit `d` set when `of[d]` is nonempty.
    nonempty: u128,
}

impl DegreeBuckets {
    fn insert(&mut self, v: usize, d: usize) {
        self.of[d] |= 1 << v;
        self.nonempty |= 1 << d;
    }

    fn remove(&mut self, v: usize, d: usize) {
        self.of[d] &= !(1 << v);
        if self.of[d] == 0 {
            self.nonempty &= !(1 << d);
        }
    }

    /// Removes and returns the vertex of least `(degree, index)`.
    fn pop_min(&mut self) -> Option<usize> {
        if self.nonempty == 0 {
            return None;
        }
        let d = self.nonempty.trailing_zeros() as usize;
        let v = self.of[d].trailing_zeros() as usize;
        self.remove(v, d);
        Some(v)
    }
}

/// Minimum degree on the quotient graph.
fn quotient_order(g: &Graph, mut emit: impl FnMut(usize)) {
    let n = g.n();
    // Variable-variable adjacency (pruned as elements absorb coverage).
    let mut adj: Vec<Vec<usize>> = (0..n).map(|v| g.neighbors(v).to_vec()).collect();
    // Elements are identified by their pivot vertex.
    let mut elem_vars: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut var_elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut eliminated = vec![false; n];
    let mut absorbed = vec![false; n];
    let mut stamp = vec![0u64; n];
    let mut heap: BinaryHeap<Reverse<(usize, usize, u64)>> = BinaryHeap::new();
    for v in 0..n {
        heap.push(Reverse((adj[v].len(), v, 0)));
    }

    // Scan marker with a monotone tag so each scan gets a fresh epoch,
    // and a second one holding the current pivot's element.
    let mut mark = vec![0u64; n];
    let mut tag = 0u64;
    let mut in_lp = vec![usize::MAX; n];

    // Visits the reachable set of `v` — live variable neighbors plus the
    // live variables of adjacent elements, excluding `v` — once each.
    fn for_each_reach(
        v: usize,
        adj: &[Vec<usize>],
        elem_vars: &[Vec<usize>],
        var_elems: &[Vec<usize>],
        eliminated: &[bool],
        mark: &mut [u64],
        tag: &mut u64,
        mut visit: impl FnMut(usize),
    ) {
        *tag += 1;
        let t = *tag;
        mark[v] = t;
        for &u in &adj[v] {
            if !eliminated[u] && mark[u] != t {
                mark[u] = t;
                visit(u);
            }
        }
        for &e in &var_elems[v] {
            for &u in &elem_vars[e] {
                if !eliminated[u] && mark[u] != t {
                    mark[u] = t;
                    visit(u);
                }
            }
        }
    }

    while let Some(Reverse((_, p, s))) = heap.pop() {
        if eliminated[p] || stamp[p] != s {
            continue;
        }
        eliminated[p] = true;
        emit(p);

        // Form the new element: the pivot's reachable set.
        let mut lp = Vec::new();
        for_each_reach(
            p,
            &adj,
            &elem_vars,
            &var_elems,
            &eliminated,
            &mut mark,
            &mut tag,
            |u| lp.push(u),
        );
        // The pivot's old elements are absorbed into the new one.
        for e in std::mem::take(&mut var_elems[p]) {
            absorbed[e] = true;
            elem_vars[e] = Vec::new();
        }
        for &u in &lp {
            in_lp[u] = p;
        }
        elem_vars[p] = lp;

        for k in 0..elem_vars[p].len() {
            let v = elem_vars[p][k];
            // Prune v's variable list: drop the pivot, eliminated vars and
            // anything now covered by the new element.
            adj[v].retain(|&u| !eliminated[u] && in_lp[u] != p);
            // Replace absorbed elements with the new one.
            var_elems[v].retain(|&e| !absorbed[e]);
            var_elems[v].push(p);
            // Exact new degree.
            let mut d = 0;
            for_each_reach(
                v,
                &adj,
                &elem_vars,
                &var_elems,
                &eliminated,
                &mut mark,
                &mut tag,
                |_| d += 1,
            );
            stamp[v] += 1;
            heap.push(Reverse((d, v, stamp[v])));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Asserts that the bitset and quotient-graph paths agree on `g`.
    fn paths_agree(g: &Graph) {
        let (mut bits, mut quotient) = (Vec::new(), Vec::new());
        bitset_order(g, |v| bits.push(v));
        quotient_order(g, |v| quotient.push(v));
        assert_eq!(bits, quotient, "paths differ on {g:?}");
        assert_eq!(bits.len(), g.n());
    }

    /// `n` vertices in `parts` disjoint groups (vertex `v` in group
    /// `v % parts`); each pair within a group is an edge with probability
    /// `per_mille / 1000` (SplitMix64 stream from `seed`).
    fn random_graph(n: usize, parts: usize, per_mille: u64, seed: u64) -> Graph {
        let mut rng = TestRng::for_case(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in u + 1..n {
                if u % parts == v % parts && rng.next_u64() % 1000 < per_mille {
                    edges.push((u, v));
                }
            }
        }
        Graph::from_edges(n, &edges)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn bitset_path_equals_quotient_path(
            n in 0usize..=BITSET_MAX,
            parts in 1usize..4,
            per_mille in 0u64..=1000,
            seed in any::<u64>(),
        ) {
            // Square the density so that sparse graphs, where degree ties
            // are most common, are drawn most often.
            let per_mille = per_mille * per_mille / 1000;
            paths_agree(&random_graph(n, parts, per_mille, seed));
        }
    }

    #[test]
    fn bitset_path_equals_quotient_path_at_the_edges() {
        let path = |n: usize| Graph::from_edges(n, &(1..n).map(|v| (v - 1, v)).collect::<Vec<_>>());
        for g in [
            Graph::from_edges(0, &[]),
            Graph::from_edges(1, &[]),
            Graph::from_edges(BITSET_MAX, &[]),
            path(BITSET_MAX),
            random_graph(BITSET_MAX, 1, 1000, 1), // complete
            random_graph(BITSET_MAX, 3, 1000, 2), // three disjoint cliques
            random_graph(BITSET_MAX, 2, 60, 3),
        ] {
            paths_agree(&g);
        }
    }

    #[test]
    fn orders_every_vertex_once() {
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let p = min_degree(&g);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn star_center_waits_for_low_degree() {
        // Star: center 0 has degree 4, leaves degree 1. The center cannot
        // be eliminated until at least three leaves are gone (its degree
        // reaches 1 only then — after which ties with the last leaf are
        // broken arbitrarily).
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let p = min_degree(&g);
        assert!(p.new_of(0) >= 3, "center eliminated at {}", p.new_of(0));
    }

    #[test]
    fn path_graph_avoids_middle_first() {
        // On a path, MD takes endpoints (degree 1) before interior nodes,
        // producing zero fill.
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = min_degree(&g);
        let first = p.old_of(0);
        assert!(first == 0 || first == 4);
    }

    #[test]
    fn handles_disconnected_graphs() {
        let g = Graph::from_edges(4, &[(0, 1)]);
        let p = min_degree(&g);
        assert_eq!(p.len(), 4);
        // Isolated vertices (degree 0) come first.
        assert!(p.new_of(2) < 2 && p.new_of(3) < 2);
    }

    #[test]
    fn deterministic() {
        let g = Graph::from_edges(7, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0)]);
        let p1 = min_degree(&g);
        let p2 = min_degree(&g);
        assert_eq!(p1, p2);
    }

    #[test]
    fn empty_and_singleton() {
        let g = Graph::from_edges(0, &[]);
        assert_eq!(min_degree(&g).len(), 0);
        let g1 = Graph::from_edges(1, &[]);
        assert_eq!(min_degree(&g1).len(), 1);
    }
}
