//! Nested dissection ordering.
//!
//! Classic recursive bisection in the style of SPARSPAK / METIS:
//!
//! 1. split the (sub)graph into connected components;
//! 2. for each component above the leaf threshold, grow BFS level sets
//!    from a pseudo-peripheral vertex and cut at the median level;
//! 3. take the cut level as a vertex separator, then *shrink* it — a
//!    separator vertex with neighbors on only one side migrates to that
//!    side (repeated for a few passes);
//! 4. recurse on both halves, then emit the separator last;
//! 5. order leaf components with exact minimum degree.
//!
//! The recursion works on *local* graphs: each half (and each component)
//! is induced from the piece it was cut from, never from the original
//! graph, together with the piece's local → global vertex map. Induced
//! subgraphs number their vertices in increasing parent order, so every
//! map is monotone and a piece's local numbering is exactly the
//! numbering inducing it from the original graph would give: the
//! ordering does not depend on where the recursion induces from, and the
//! work per piece is proportional to the piece. A piece that is one
//! connected component is dissected as it is, without a second copy.
//!
//! On the regular 2-D/3-D meshes that dominate the paper's test set this
//! produces the familiar `O(n log n)` fill / `O(n^{3/2})`–`O(n²)` flop
//! profiles that METIS achieves, which is all the downstream experiments
//! need (the ordering only shapes the supernode size distribution).

use crate::mindeg::min_degree;
use crate::rcm::peripheral_levels;
use rlchol_sparse::{Graph, Permutation};

/// Components at or below this size are ordered with minimum degree.
const LEAF_SIZE: usize = 96;
/// Separator-shrinking passes after the level-set cut.
const SHRINK_PASSES: usize = 4;

/// Computes a nested-dissection ordering of `g`.
pub fn nested_dissection(g: &Graph) -> Permutation {
    let n = g.n();
    let mut order = Vec::with_capacity(n);
    let globals: Vec<usize> = (0..n).collect();
    dissect(g, &globals, &mut order);
    debug_assert_eq!(order.len(), n);
    Permutation::from_old_of(order).expect("nested dissection visits each vertex once")
}

/// Orders the piece `g`, whose local vertex `l` is global vertex
/// `globals[l]`, appending eliminated global vertices to `out`.
fn dissect(g: &Graph, globals: &[usize], out: &mut Vec<usize>) {
    let comps = g.connected_components();
    if comps.len() == 1 {
        return dissect_connected(g, globals, out);
    }
    for comp in comps {
        let (c, c_globals) = piece(g, globals, &comp);
        dissect_connected(&c, &c_globals, out);
    }
}

/// [`dissect`] for a connected piece.
fn dissect_connected(g: &Graph, globals: &[usize], out: &mut Vec<usize>) {
    if g.n() <= LEAF_SIZE {
        return emit_min_degree(g, globals, out);
    }
    match bisect(g) {
        Some((a, b, sep)) => {
            for half in [a, b] {
                let (h, h_globals) = piece(g, globals, &half);
                dissect(&h, &h_globals, out);
            }
            // Separator vertices are eliminated last; order them by
            // minimum degree of their induced subgraph for a better
            // dense tail.
            let (s, s_globals) = piece(g, globals, &sep);
            emit_min_degree(&s, &s_globals, out);
        }
        // Bisection failed (e.g. a clique): fall back to MD.
        None => emit_min_degree(g, globals, out),
    }
}

/// The subgraph of the piece `g` induced by its ascending local vertices
/// `locals`, with that subgraph's own local → global map.
fn piece(g: &Graph, globals: &[usize], locals: &[usize]) -> (Graph, Vec<usize>) {
    let (sub, _) = g.induced_subgraph(locals);
    (sub, locals.iter().map(|&l| globals[l]).collect())
}

/// Appends the minimum-degree ordering of the piece `g`, as global ids.
fn emit_min_degree(g: &Graph, globals: &[usize], out: &mut Vec<usize>) {
    let p = min_degree(g);
    out.extend(p.old_of_slice().iter().map(|&l| globals[l]));
}

/// Splits a connected graph into `(A, B, S)` with `S` a vertex separator.
/// Returns `None` when no useful split exists.
fn bisect(g: &Graph) -> Option<(Vec<usize>, Vec<usize>, Vec<usize>)> {
    let n = g.n();
    let mask = vec![true; n];
    let (_, levels, level_of) = peripheral_levels(g, 0, &mask);
    if levels.len() < 3 {
        return None; // graph of diameter < 2: no interior level to cut
    }
    // Cut at the level where the cumulative size crosses half.
    let mut cum = 0usize;
    let mut cut = 1usize;
    for (l, lv) in levels.iter().enumerate() {
        cum += lv.len();
        if cum * 2 >= n {
            cut = l.clamp(1, levels.len() - 2);
            break;
        }
    }

    // side[v]: 0 = A (levels < cut), 1 = B (levels > cut), 2 = separator.
    let mut side = vec![0u8; n];
    for v in 0..n {
        side[v] = match level_of[v].cmp(&cut) {
            std::cmp::Ordering::Less => 0,
            std::cmp::Ordering::Equal => 2,
            std::cmp::Ordering::Greater => 1,
        };
    }

    // Shrink: a separator vertex with all non-separator neighbors on one
    // side joins that side. Multiple passes let the separator thin out.
    for _ in 0..SHRINK_PASSES {
        let mut changed = false;
        for v in 0..n {
            if side[v] != 2 {
                continue;
            }
            let mut has_a = false;
            let mut has_b = false;
            for &u in g.neighbors(v) {
                match side[u] {
                    0 => has_a = true,
                    1 => has_b = true,
                    _ => {}
                }
            }
            if has_a != has_b {
                side[v] = if has_a { 0 } else { 1 };
                changed = true;
            } else if !has_a && !has_b {
                // Separator-only neighborhood: join A, whichever side is
                // smaller (no B neighbor, so no A-B edge appears).
                side[v] = 0;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Re-legalize: after migration some A-B edges may appear; push
        // offending B endpoints back into the separator.
        for v in 0..n {
            if side[v] == 0 {
                for &u in g.neighbors(v) {
                    if side[u] == 1 {
                        side[u] = 2;
                    }
                }
            }
        }
    }

    let a: Vec<usize> = (0..n).filter(|&v| side[v] == 0).collect();
    let b: Vec<usize> = (0..n).filter(|&v| side[v] == 1).collect();
    let s: Vec<usize> = (0..n).filter(|&v| side[v] == 2).collect();
    // Sanity: S must actually separate A from B.
    debug_assert!(a
        .iter()
        .all(|&v| g.neighbors(v).iter().all(|&u| side[u] != 1)));
    if a.is_empty() || b.is_empty() || s.len() >= n / 2 {
        return None;
    }
    Some((a, b, s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2d(k: usize) -> Graph {
        let idx = |x: usize, y: usize| y * k + x;
        let mut edges = Vec::new();
        for y in 0..k {
            for x in 0..k {
                if x + 1 < k {
                    edges.push((idx(x, y), idx(x + 1, y)));
                }
                if y + 1 < k {
                    edges.push((idx(x, y), idx(x, y + 1)));
                }
            }
        }
        Graph::from_edges(k * k, &edges)
    }

    #[test]
    fn orders_every_vertex_once() {
        let g = grid2d(12);
        let p = nested_dissection(&g);
        assert_eq!(p.len(), 144);
    }

    #[test]
    fn bisect_produces_valid_separator() {
        let g = grid2d(10);
        let (a, b, s) = bisect(&g).expect("grid splits");
        assert_eq!(a.len() + b.len() + s.len(), 100);
        assert!(!a.is_empty() && !b.is_empty());
        // No direct A-B edge.
        let mut side = [2u8; 100];
        for &v in &a {
            side[v] = 0;
        }
        for &v in &b {
            side[v] = 1;
        }
        for &v in &a {
            for &u in g.neighbors(v) {
                assert_ne!(side[u], 1, "edge {v}-{u} crosses the separator");
            }
        }
        // Grid separator should be O(k): allow some slack.
        assert!(s.len() <= 30, "separator too large: {}", s.len());
    }

    #[test]
    fn small_graphs_fall_back_to_min_degree() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let p = nested_dissection(&g);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn cliques_do_not_recurse_forever() {
        let mut edges = Vec::new();
        let k = 130; // above leaf_size, diameter 1 → bisect returns None
        for i in 0..k {
            for j in i + 1..k {
                edges.push((i, j));
            }
        }
        let g = Graph::from_edges(k, &edges);
        let p = nested_dissection(&g);
        assert_eq!(p.len(), k);
    }

    #[test]
    fn deterministic() {
        let g = grid2d(9);
        let p1 = nested_dissection(&g);
        let p2 = nested_dissection(&g);
        assert_eq!(p1, p2);
    }

    #[test]
    fn disconnected_graphs_cover_all_components() {
        let mut edges = Vec::new();
        let idx = |x: usize, y: usize, off: usize| off + y * 6 + x;
        for off in [0usize, 36] {
            for y in 0..6 {
                for x in 0..6 {
                    if x + 1 < 6 {
                        edges.push((idx(x, y, off), idx(x + 1, y, off)));
                    }
                    if y + 1 < 6 {
                        edges.push((idx(x, y, off), idx(x, y + 1, off)));
                    }
                }
            }
        }
        let g = Graph::from_edges(72, &edges);
        let p = nested_dissection(&g);
        assert_eq!(p.len(), 72);
    }
}
