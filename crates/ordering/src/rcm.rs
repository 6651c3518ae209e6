//! Reverse Cuthill–McKee ordering and pseudo-peripheral vertex search.

use crate::levels::Levels;
use rlchol_sparse::{Graph, Permutation};

/// Finds a pseudo-peripheral vertex of the component containing `start`,
/// restricted to vertices where `mask` is true (George–Liu iteration:
/// repeat BFS from the lowest-degree vertex of the deepest level until the
/// eccentricity stops increasing).
pub fn pseudo_peripheral(g: &Graph, start: usize, mask: &[bool]) -> usize {
    Levels::new(g.n()).pseudo_peripheral(g, start, |v| mask[v])
}

/// Computes the reverse Cuthill–McKee ordering of `g`.
///
/// Each connected component is ordered by a BFS from a pseudo-peripheral
/// vertex, visiting neighbors in increasing-degree order; the final
/// ordering is reversed (which is what reduces the profile for
/// factorization).
pub fn rcm(g: &Graph) -> Permutation {
    let n = g.n();
    let mut levels = Levels::new(n);
    let mut visited = vec![false; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    for s in 0..n {
        if visited[s] {
            continue;
        }
        let root = levels.pseudo_peripheral(g, s, |_| true);
        // BFS with degree-sorted neighbor expansion.
        let mut queue = std::collections::VecDeque::new();
        visited[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            let mut nb: Vec<usize> = g
                .neighbors(v)
                .iter()
                .copied()
                .filter(|&u| !visited[u])
                .collect();
            nb.sort_by_key(|&u| (g.degree(u), u));
            for u in nb {
                visited[u] = true;
                queue.push_back(u);
            }
        }
    }
    order.reverse();
    Permutation::from_old_of(order).expect("RCM visits each vertex once")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_endpoints_are_peripheral() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mask = vec![true; 5];
        let p = pseudo_peripheral(&g, 2, &mask);
        assert!(p == 0 || p == 4);
    }

    #[test]
    fn rcm_on_path_is_monotone() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = rcm(&g);
        // A path ordered by RCM is the path order (possibly flipped):
        // consecutive positions are graph neighbors.
        for k in 0..4 {
            let (a, b) = (p.old_of(k), p.old_of(k + 1));
            assert!(g.has_edge(a, b), "positions {k},{} not adjacent", k + 1);
        }
    }

    #[test]
    fn rcm_covers_disconnected_graphs() {
        let g = Graph::from_edges(6, &[(0, 1), (3, 4), (4, 5)]);
        let p = rcm(&g);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn rcm_reduces_bandwidth_on_grid() {
        // 4x4 grid, natural ordering bandwidth = 4; RCM keeps it small
        // (level sets of width <= 4). Check max |new(u) - new(v)| over
        // edges is at most the natural bandwidth.
        let mut edges = Vec::new();
        let idx = |x: usize, y: usize| y * 4 + x;
        for y in 0..4 {
            for x in 0..4 {
                if x + 1 < 4 {
                    edges.push((idx(x, y), idx(x + 1, y)));
                }
                if y + 1 < 4 {
                    edges.push((idx(x, y), idx(x, y + 1)));
                }
            }
        }
        let g = Graph::from_edges(16, &edges);
        let p = rcm(&g);
        let bw = edges
            .iter()
            .map(|&(u, v)| p.new_of(u).abs_diff(p.new_of(v)))
            .max()
            .unwrap();
        assert!(bw <= 5, "rcm bandwidth {bw} too large");
    }
}
