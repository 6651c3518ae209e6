//! Breadth-first level structures in caller-owned flat buffers.
//!
//! Nested dissection runs several BFS passes per piece (a connectivity
//! check, then the pseudo-peripheral search whose last structure it
//! cuts), and RCM one search per component. [`Levels`] holds one structure at a time in three buffers
//! sized once: the vertices in visiting order, the offset at which each
//! level starts, and each vertex's level. A new BFS resets `level_of`
//! only on the entries the previous one visited, so a search costs the
//! part of the graph it reaches, never the whole buffer.

use rlchol_sparse::Graph;

/// Level of a vertex the current structure has not reached.
const UNSEEN: usize = usize::MAX;

/// One BFS level structure, rebuilt in place by every [`Levels::bfs`].
pub(crate) struct Levels {
    /// Level of every reached vertex, [`UNSEEN`] elsewhere.
    level_of: Vec<usize>,
    /// Reached vertices in visiting order: level `l` is
    /// `queue[starts[l]..starts[l + 1]]`.
    queue: Vec<usize>,
    starts: Vec<usize>,
}

impl Levels {
    /// Buffers for graphs of up to `n` vertices.
    pub(crate) fn new(n: usize) -> Self {
        Levels {
            level_of: vec![UNSEEN; n],
            queue: Vec::with_capacity(n),
            starts: Vec::new(),
        }
    }

    /// Replaces the structure with the BFS level sets from `root` over the
    /// vertices where `keep` holds (none when `keep(root)` fails).
    pub(crate) fn bfs(&mut self, g: &Graph, root: usize, keep: impl Fn(usize) -> bool) {
        for &v in &self.queue {
            self.level_of[v] = UNSEEN;
        }
        self.queue.clear();
        self.starts.clear();
        if !keep(root) {
            return;
        }
        self.level_of[root] = 0;
        self.queue.push(root);
        let mut lo = 0;
        while lo < self.queue.len() {
            let hi = self.queue.len();
            self.starts.push(lo);
            let next = self.starts.len();
            for i in lo..hi {
                for &u in g.neighbors(self.queue[i]) {
                    if self.level_of[u] == UNSEEN && keep(u) {
                        self.level_of[u] = next;
                        self.queue.push(u);
                    }
                }
            }
            lo = hi;
        }
        self.starts.push(self.queue.len());
    }

    /// Number of reached vertices.
    pub(crate) fn reached(&self) -> usize {
        self.queue.len()
    }

    /// Number of levels.
    pub(crate) fn depth(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// Number of vertices in levels `0..l`.
    pub(crate) fn below(&self, l: usize) -> usize {
        self.starts[l]
    }

    /// The vertices of level `l`, in visiting order.
    fn level(&self, l: usize) -> &[usize] {
        &self.queue[self.starts[l]..self.starts[l + 1]]
    }

    /// Sorts level `l` ascending and returns it (the level sets, and so
    /// every other query, are unchanged).
    pub(crate) fn sorted_level(&mut self, l: usize) -> &[usize] {
        let level = &mut self.queue[self.starts[l]..self.starts[l + 1]];
        level.sort_unstable();
        level
    }

    /// Level of each vertex, [`UNSEEN`] where the structure did not reach.
    pub(crate) fn level_of(&self) -> &[usize] {
        &self.level_of
    }

    /// George–Liu pseudo-peripheral search from `start` over the vertices
    /// where `keep` holds: repeat the BFS from the lowest-`(degree,
    /// index)` vertex of the deepest level until the depth stops growing.
    /// Returns that last root; the structure is left rooted at it.
    pub(crate) fn pseudo_peripheral(
        &mut self,
        g: &Graph,
        start: usize,
        keep: impl Fn(usize) -> bool,
    ) -> usize {
        self.bfs(g, start, &keep);
        self.reroot_peripheral(g, keep)
    }

    /// [`Levels::pseudo_peripheral`] continued from the structure in
    /// place, which must be nonempty. The candidate is a property of the
    /// last level as a set, so visiting order within a level is free.
    pub(crate) fn reroot_peripheral(&mut self, g: &Graph, keep: impl Fn(usize) -> bool) -> usize {
        loop {
            let depth = self.depth();
            let candidate = *self
                .level(depth.checked_sub(1).expect("component is nonempty"))
                .iter()
                .min_by_key(|&&v| (g.degree(v), v))
                .expect("last level nonempty");
            self.bfs(g, candidate, &keep);
            if self.depth() <= depth {
                return candidate;
            }
        }
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
    fn bfs_levels_from_endpoint() {
        let mut lv = Levels::new(4);
        lv.bfs(&path4(), 0, |_| true);
        assert_eq!(lv.depth(), 4);
        assert_eq!(lv.reached(), 4);
        assert_eq!(lv.level_of(), &[0, 1, 2, 3]);
        assert_eq!(lv.level(2), &[2]);
    }

    #[test]
    fn bfs_respects_mask() {
        let mask = [true, false, true, true];
        let mut lv = Levels::new(4);
        lv.bfs(&path4(), 0, |v| mask[v]);
        assert_eq!(lv.depth(), 1);
        assert_eq!(lv.level_of()[2], UNSEEN);
        lv.bfs(&path4(), 1, |v| mask[v]);
        assert_eq!((lv.depth(), lv.reached()), (0, 0));
    }

    #[test]
    fn reused_buffers_match_fresh_ones() {
        // A chain of searches over one buffer, on graphs of both sizes,
        // must leave what a fresh buffer would.
        let big = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let small = path4();
        let mut reused = Levels::new(6);
        for (g, root) in [(&big, 0), (&small, 3), (&big, 4), (&small, 1), (&big, 2)] {
            reused.bfs(g, root, |_| true);
            let mut fresh = Levels::new(6);
            fresh.bfs(g, root, |_| true);
            assert_eq!(reused.level_of(), fresh.level_of());
            assert_eq!(reused.queue, fresh.queue);
            assert_eq!(reused.starts, fresh.starts);
        }
    }

    #[test]
    fn sorting_a_level_keeps_the_structure() {
        // Star around 2: level 1 is {0, 1, 3, 4} in some order.
        let g = Graph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]);
        let mut lv = Levels::new(5);
        lv.bfs(&g, 2, |_| true);
        let before = lv.level_of().to_vec();
        assert_eq!(lv.sorted_level(1), &[0, 1, 3, 4]);
        assert_eq!(lv.level_of(), before);
        assert_eq!((lv.below(1), lv.depth()), (1, 2));
    }
}
