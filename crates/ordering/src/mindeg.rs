//! Exact external-degree minimum degree on a quotient graph.
//!
//! The quotient-graph representation (George & Liu) keeps, per live
//! variable, a list of remaining *variable* neighbors and a list of
//! *elements* (cliques created by past eliminations). Eliminating a pivot
//! forms a new element from its reachable set, absorbs the pivot's old
//! elements, and prunes variable lists — keeping memory linear in the
//! original edge count.
//!
//! Degrees are exact: after each pivot, every variable of the new
//! element `Lp` has its reachable set (live variable neighbors plus the
//! live variables of its elements) *counted* by one marked scan — the
//! set is never materialised. Pruning a variable's lists needs no
//! per-variable work either: `Lp` is tagged once per pivot, and absorbed
//! elements are flagged dead (a live variable can only list an element
//! that has not been absorbed yet, since absorption reaches every live
//! variable of the element). This is affordable because nested
//! dissection only calls minimum degree on small leaf subgraphs and
//! separators; it is also available as a stand-alone ordering for
//! modest problems.

use rlchol_sparse::{Graph, Permutation};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes an exact minimum-degree ordering of `g`.
///
/// Ties break toward the smallest vertex index, making the ordering
/// deterministic.
pub fn min_degree(g: &Graph) -> Permutation {
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
    let mut order = Vec::with_capacity(n);

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
        order.push(p);

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
    debug_assert_eq!(order.len(), n);
    Permutation::from_old_of(order).expect("minimum degree visits each vertex once")
}

#[cfg(test)]
mod tests {
    use super::*;

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
