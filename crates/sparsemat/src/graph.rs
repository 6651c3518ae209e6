//! Undirected adjacency graphs in compressed (CSR-like) form.
//!
//! The ordering algorithms (nested dissection, minimum degree, RCM) all
//! operate on [`Graph`]: the adjacency structure of a symmetric sparse
//! matrix with self-loops removed.

use crate::error::SparseError;

/// Compressed adjacency structure of an undirected graph on `0..n`.
///
/// Every edge `{u, v}` is stored in both endpoint lists. Neighbor lists are
/// sorted; no self-loops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<usize>,
}

impl Graph {
    /// Builds from raw compressed adjacency, validating symmetry, sorting
    /// and absence of self-loops.
    pub fn from_parts(xadj: Vec<usize>, adjncy: Vec<usize>) -> Result<Self, SparseError> {
        if xadj.is_empty() || xadj[0] != 0 || *xadj.last().unwrap() != adjncy.len() {
            return Err(SparseError::InvalidStructure(
                "graph xadj endpoints invalid".to_string(),
            ));
        }
        let n = xadj.len() - 1;
        let mut g = Graph { xadj, adjncy };
        // Sort each list (cheap insurance; often already sorted).
        for v in 0..n {
            let (lo, hi) = (g.xadj[v], g.xadj[v + 1]);
            if lo > hi || hi > g.adjncy.len() {
                return Err(SparseError::InvalidStructure(format!(
                    "xadj not monotone at vertex {v}"
                )));
            }
            g.adjncy[lo..hi].sort_unstable();
        }
        for v in 0..n {
            for &u in g.neighbors(v) {
                if u >= n {
                    return Err(SparseError::InvalidStructure(format!(
                        "neighbor {u} of vertex {v} out of range"
                    )));
                }
                if u == v {
                    return Err(SparseError::InvalidStructure(format!(
                        "self-loop at vertex {v}"
                    )));
                }
                if g.neighbors(u).binary_search(&v).is_err() {
                    return Err(SparseError::InvalidStructure(format!(
                        "edge ({v}, {u}) not symmetric"
                    )));
                }
            }
        }
        Ok(g)
    }

    /// Builds a graph from an edge list (self-loops ignored, duplicates
    /// collapsed).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut deg = vec![0usize; n];
        let mut clean: Vec<(usize, usize)> = edges
            .iter()
            .filter(|&&(u, v)| u != v && u < n && v < n)
            .map(|&(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        clean.sort_unstable();
        clean.dedup();
        for &(u, v) in &clean {
            deg[u] += 1;
            deg[v] += 1;
        }
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            xadj[v + 1] = xadj[v] + deg[v];
        }
        let mut adjncy = vec![0usize; xadj[n]];
        let mut next = xadj.clone();
        for &(u, v) in &clean {
            adjncy[next[u]] = v;
            next[u] += 1;
            adjncy[next[v]] = u;
            next[v] += 1;
        }
        let mut g = Graph { xadj, adjncy };
        for v in 0..n {
            let (lo, hi) = (g.xadj[v], g.xadj[v + 1]);
            g.adjncy[lo..hi].sort_unstable();
        }
        g
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.adjncy.len() / 2
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.xadj[v + 1] - self.xadj[v]
    }

    /// Sorted neighbor list of `v`.
    pub fn neighbors(&self, v: usize) -> &[usize] {
        &self.adjncy[self.xadj[v]..self.xadj[v + 1]]
    }

    /// Raw `xadj` array.
    pub fn xadj(&self) -> &[usize] {
        &self.xadj
    }

    /// Raw `adjncy` array.
    pub fn adjncy(&self) -> &[usize] {
        &self.adjncy
    }

    /// True when edge `{u, v}` exists.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The subgraph induced by `vertices`, plus the mapping
    /// `local -> global` (which equals the sorted, deduplicated input).
    ///
    /// Because that mapping is monotone, each local neighbor list comes
    /// out of the parent's sorted list already sorted, so the CSR is
    /// written directly: the cost is O(`self.n()` + the selected
    /// vertices' degrees), i.e. proportional to the piece being split,
    /// not to whatever larger graph `self` was itself cut from. Recursive
    /// callers (nested dissection) therefore induce each child from its
    /// parent piece rather than from the original graph.
    pub fn induced_subgraph(&self, vertices: &[usize]) -> (Graph, Vec<usize>) {
        let mut globals: Vec<usize> = vertices.to_vec();
        globals.sort_unstable();
        globals.dedup();
        let mut local_of = vec![usize::MAX; self.n()];
        for (local, &g) in globals.iter().enumerate() {
            local_of[g] = local;
        }
        let mut xadj = Vec::with_capacity(globals.len() + 1);
        xadj.push(0);
        let mut adjncy = Vec::new();
        for &gu in &globals {
            adjncy.extend(
                self.neighbors(gu)
                    .iter()
                    .map(|&gv| local_of[gv])
                    .filter(|&lv| lv != usize::MAX),
            );
            xadj.push(adjncy.len());
        }
        (Graph { xadj, adjncy }, globals)
    }

    /// Connected components, as a vector of vertex lists: components in
    /// order of their smallest vertex, each list ascending.
    pub fn connected_components(&self) -> Vec<Vec<usize>> {
        let n = self.n();
        let mut comp = vec![usize::MAX; n];
        let mut sizes: Vec<usize> = Vec::new();
        let mut stack = Vec::new();
        for s in 0..n {
            if comp[s] != usize::MAX {
                continue;
            }
            let id = sizes.len();
            let mut size = 0;
            comp[s] = id;
            stack.push(s);
            while let Some(v) = stack.pop() {
                size += 1;
                for &u in self.neighbors(v) {
                    if comp[u] == usize::MAX {
                        comp[u] = id;
                        stack.push(u);
                    }
                }
            }
            sizes.push(size);
        }
        // One ascending pass buckets the members already sorted.
        let mut comps: Vec<Vec<usize>> = sizes.iter().map(|&k| Vec::with_capacity(k)).collect();
        for v in 0..n {
            comps[comp[v]].push(v);
        }
        comps
    }

    /// Breadth-first level sets from `root` restricted to vertices where
    /// `mask[v]` is true. Returns `(levels, level_of)` where `level_of[v]`
    /// is `usize::MAX` for unreached vertices.
    pub fn bfs_levels(&self, root: usize, mask: &[bool]) -> (Vec<Vec<usize>>, Vec<usize>) {
        let n = self.n();
        let mut level_of = vec![usize::MAX; n];
        let mut levels: Vec<Vec<usize>> = Vec::new();
        if !mask[root] {
            return (levels, level_of);
        }
        let mut frontier = vec![root];
        level_of[root] = 0;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &v in &frontier {
                for &u in self.neighbors(v) {
                    if mask[u] && level_of[u] == usize::MAX {
                        level_of[u] = levels.len() + 1;
                        next.push(u);
                    }
                }
            }
            levels.push(frontier);
            frontier = next;
        }
        (levels, level_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3.
    fn path4() -> Graph {
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn from_edges_dedups_and_sorts() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (2, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
    }

    #[test]
    fn from_parts_rejects_asymmetric() {
        // Edge 0->1 present but 1->0 missing.
        assert!(Graph::from_parts(vec![0, 1, 1], vec![1]).is_err());
    }

    #[test]
    fn degree_and_has_edge() {
        let g = path4();
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = path4();
        let (s, globals) = g.induced_subgraph(&[1, 2, 3]);
        assert_eq!(globals, vec![1, 2, 3]);
        assert_eq!(s.num_edges(), 2);
        assert!(s.has_edge(0, 1)); // 1-2
        assert!(s.has_edge(1, 2)); // 2-3
    }

    #[test]
    fn induced_subgraph_matches_the_edge_list_construction() {
        // Unsorted, duplicated selection from a graph with a chord: the
        // direct CSR must equal rebuilding from the induced edge list.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 4), (1, 5)]);
        let (s, globals) = g.induced_subgraph(&[5, 1, 4, 0, 1]);
        assert_eq!(globals, vec![0, 1, 4, 5]);
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3)]; // 0-1, 0-4, 1-5, 4-5
        assert_eq!(s, Graph::from_edges(4, &edges));
    }

    #[test]
    fn connected_components_partition() {
        let g = Graph::from_edges(5, &[(0, 1), (3, 4)]);
        let comps = g.connected_components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![0, 1]);
        assert_eq!(comps[1], vec![2]);
        assert_eq!(comps[2], vec![3, 4]);
    }

    #[test]
    fn bfs_levels_from_endpoint() {
        let g = path4();
        let mask = vec![true; 4];
        let (levels, level_of) = g.bfs_levels(0, &mask);
        assert_eq!(levels.len(), 4);
        assert_eq!(level_of, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_respects_mask() {
        let g = path4();
        let mask = vec![true, false, true, true];
        let (levels, level_of) = g.bfs_levels(0, &mask);
        assert_eq!(levels.len(), 1);
        assert_eq!(level_of[2], usize::MAX);
    }
}
