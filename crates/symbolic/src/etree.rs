//! Elimination trees and postorderings.
//!
//! The elimination tree (Liu, *The role of elimination trees in sparse
//! factorization*, 1990) has `parent(j) = min { i > j : L[i,j] != 0 }`.
//! It is computed directly from `A`'s lower-triangular pattern with the
//! classic path-compression algorithm, without forming `L`. The pattern
//! is read through [`LowerRows`]: the adjacency graph of the input and a
//! permutation, so the analysis of `P A Pᵀ` never builds that matrix.

use crate::NONE;
use rlchol_sparse::{Graph, Permutation, SymCsc};

/// The strict lower triangle of `P A Pᵀ`, row by row, read off the
/// adjacency graph `g` of `A` through the permutation `p` (`p.old_of(i)`
/// is the vertex of `g` that becomes row and column `i`). Row `i` holds
/// the `p.new_of(u) < i` over the neighbours `u` of `p.old_of(i)`, in the
/// graph's order rather than sorted: neither Liu's parent array nor the
/// row-subtree counts depend on the order of a row's entries.
#[derive(Debug, Clone, Copy)]
pub struct LowerRows<'a> {
    g: &'a Graph,
    old_of: &'a [usize],
    new_of: &'a [usize],
}

impl<'a> LowerRows<'a> {
    /// The rows of `P A Pᵀ` for the graph `g` of `A` and `P = p`.
    pub fn new(g: &'a Graph, p: &'a Permutation) -> Self {
        assert_eq!(g.n(), p.len(), "permutation and graph sizes differ");
        LowerRows {
            g,
            old_of: p.old_of_slice(),
            new_of: p.new_of_slice(),
        }
    }

    /// Number of rows.
    pub fn n(&self) -> usize {
        self.old_of.len()
    }

    /// The columns `k < i` with `(P A Pᵀ)[i,k] != 0`, unordered.
    pub fn row(&self, i: usize) -> impl Iterator<Item = usize> + 'a {
        let new_of = self.new_of;
        self.g
            .neighbors(self.old_of[i])
            .iter()
            .map(move |&u| new_of[u])
            .filter(move |&k| k < i)
    }
}

/// The elimination tree of a symmetric matrix, with derived orderings.
#[derive(Debug, Clone)]
pub struct EliminationTree {
    /// `parent[j]` is the etree parent of column `j`, or [`NONE`] for roots.
    pub parent: Vec<usize>,
}

impl EliminationTree {
    /// Computes the elimination tree from the lower-triangular pattern.
    pub fn from_matrix(a: &SymCsc) -> Self {
        let g = a.to_graph();
        Self::from_rows(LowerRows::new(&g, &Permutation::identity(a.n())))
    }

    /// Computes the elimination tree of the matrix whose strict lower
    /// triangle is `rows`.
    ///
    /// Classic formulation: for each row `i` and each `k < i` with
    /// `A[i,k] != 0`, walk `k`'s path-compressed ancestor chain up to `i`.
    /// Every walked vertex then points at `i`, whatever order row `i`'s
    /// entries come in.
    pub fn from_rows(rows: LowerRows) -> Self {
        let n = rows.n();
        let mut parent = vec![NONE; n];
        // ancestor[j]: path-compressed ancestor pointer.
        let mut ancestor = vec![NONE; n];
        for i in 0..n {
            for k in rows.row(i) {
                // Walk from k towards the root, compressing onto i.
                let mut j = k;
                while j != NONE && j < i {
                    let next = ancestor[j];
                    ancestor[j] = i;
                    if next == NONE {
                        parent[j] = i;
                    }
                    j = next;
                }
            }
        }
        EliminationTree { parent }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.parent.len()
    }

    /// Number of children per vertex.
    pub fn child_counts(&self) -> Vec<usize> {
        let mut c = vec![0usize; self.n()];
        for &p in &self.parent {
            if p != NONE {
                c[p] += 1;
            }
        }
        c
    }

    /// A postordering of the forest: returns `post` with `post[k]` = the
    /// vertex in position `k`. Children are visited in increasing order,
    /// so an already-postordered tree yields the identity.
    pub fn postorder(&self) -> Vec<usize> {
        let n = self.n();
        // Children as linked lists, `head[p]` then `next[c]` until
        // [`NONE`]; linking in decreasing order leaves each list
        // increasing.
        let mut head = vec![NONE; n];
        let mut next = vec![NONE; n];
        for j in (0..n).rev() {
            let p = self.parent[j];
            if p != NONE {
                next[j] = head[p];
                head[p] = j;
            }
        }
        let mut post = Vec::with_capacity(n);
        // Iterative DFS: the top of the stack descends into its next
        // unvisited child, and is emitted once it has none left.
        let mut stack: Vec<usize> = Vec::new();
        for r in (0..n).filter(|&r| self.parent[r] == NONE) {
            stack.push(r);
            while let Some(&v) = stack.last() {
                let c = head[v];
                if c == NONE {
                    stack.pop();
                    post.push(v);
                } else {
                    head[v] = next[c];
                    stack.push(c);
                }
            }
        }
        debug_assert_eq!(post.len(), n);
        post
    }

    /// True if `post` is a valid postordering of this forest: every vertex
    /// appears once and each parent appears after all vertices of its
    /// subtree.
    pub fn is_postorder(&self, post: &[usize]) -> bool {
        let n = self.n();
        if post.len() != n {
            return false;
        }
        let mut pos = vec![NONE; n];
        for (k, &v) in post.iter().enumerate() {
            if v >= n || pos[v] != NONE {
                return false;
            }
            pos[v] = k;
        }
        // Parents must come after children, and every subtree must occupy
        // a contiguous position interval ending at its root's position.
        // Processing vertices in position order lets each vertex fold its
        // (already-final) subtree size and minimum position into its
        // parent before the parent's own turn.
        let mut size = vec![1usize; n];
        let mut minpos: Vec<usize> = (0..n).map(|v| pos[v]).collect();
        for &v in post {
            if pos[v] + 1 < size[v] || pos[v] + 1 - size[v] != minpos[v] {
                return false; // subtree positions not a contiguous block
            }
            let p = self.parent[v];
            if p != NONE {
                if pos[p] < pos[v] {
                    return false;
                }
                size[p] += size[v];
                minpos[p] = minpos[p].min(minpos[v]);
            }
        }
        true
    }

    /// Relabels the tree under a permutation given as `old_of[new] = old`
    /// (typically a postorder). Returns the parent array in new labels.
    pub fn relabel(&self, old_of: &[usize]) -> Vec<usize> {
        let n = self.n();
        let mut new_of = vec![NONE; n];
        for (new, &old) in old_of.iter().enumerate() {
            new_of[old] = new;
        }
        let mut parent = vec![NONE; n];
        for new in 0..n {
            let old = old_of[new];
            let p = self.parent[old];
            parent[new] = if p == NONE { NONE } else { new_of[p] };
        }
        parent
    }

    /// Depth of each vertex (roots have depth 0). Useful for tests.
    pub fn depths(&self) -> Vec<usize> {
        let n = self.n();
        let mut depth = vec![NONE; n];
        let mut path = Vec::new();
        for mut v in 0..n {
            path.clear();
            while depth[v] == NONE {
                path.push(v);
                if self.parent[v] == NONE {
                    depth[v] = 0;
                    break;
                }
                v = self.parent[v];
            }
            let mut d = depth[v];
            for &u in path.iter().rev() {
                if depth[u] == NONE {
                    d += 1;
                    depth[u] = d;
                } else {
                    d = depth[u];
                }
            }
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlchol_sparse::TripletMatrix;

    /// Builds a SymCsc from strict-lower edges plus unit diagonal.
    fn sym_from_edges(n: usize, edges: &[(usize, usize)]) -> SymCsc {
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 4.0);
        }
        for &(i, j) in edges {
            assert!(i > j);
            t.push(i, j, -1.0);
        }
        SymCsc::from_lower_triplets(&t).unwrap()
    }

    #[test]
    fn tridiagonal_tree_is_a_path() {
        let a = sym_from_edges(5, &[(1, 0), (2, 1), (3, 2), (4, 3)]);
        let t = EliminationTree::from_matrix(&a);
        assert_eq!(t.parent, vec![1, 2, 3, 4, NONE]);
    }

    #[test]
    fn arrow_matrix_tree_is_a_star_through_fill() {
        // Arrow pointing at the last column: every column connects to n-1,
        // no fill; parents all n-1.
        let a = sym_from_edges(4, &[(3, 0), (3, 1), (3, 2)]);
        let t = EliminationTree::from_matrix(&a);
        assert_eq!(t.parent, vec![3, 3, 3, NONE]);
    }

    #[test]
    fn fill_creates_paths() {
        // Columns 0-1 connected, 0-2 connected: eliminating 0 fills (2,1),
        // so parent(1) = 2 even though A[2,1] = 0.
        let a = sym_from_edges(3, &[(1, 0), (2, 0)]);
        let t = EliminationTree::from_matrix(&a);
        assert_eq!(t.parent, vec![1, 2, NONE]);
    }

    #[test]
    fn known_liu_example() {
        // The 15x15 example of the paper (Fig. 1) exercised in the
        // integration tests; here a small handmade case:
        // A with edges (2,0), (3,1), (4,2), (4,3).
        let a = sym_from_edges(5, &[(2, 0), (3, 1), (4, 2), (4, 3)]);
        let t = EliminationTree::from_matrix(&a);
        assert_eq!(t.parent, vec![2, 3, 4, 4, NONE]);
    }

    #[test]
    fn postorder_is_valid_on_branching_tree() {
        let a = sym_from_edges(5, &[(2, 0), (3, 1), (4, 2), (4, 3)]);
        let t = EliminationTree::from_matrix(&a);
        let post = t.postorder();
        assert!(t.is_postorder(&post));
        // Subtrees {0,2} and {1,3} are kept contiguous.
        assert_eq!(post, vec![0, 2, 1, 3, 4]);
        // The identity interleaves the two subtrees, so it is NOT a
        // postorder of this tree even though parents follow children.
        assert!(!t.is_postorder(&[0, 1, 2, 3, 4]));
    }

    #[test]
    fn postorder_is_identity_on_chains() {
        let a = sym_from_edges(4, &[(1, 0), (2, 1), (3, 2)]);
        let t = EliminationTree::from_matrix(&a);
        let post = t.postorder();
        assert!(t.is_postorder(&post));
        assert_eq!(post, vec![0, 1, 2, 3]);
    }

    #[test]
    fn postorder_handles_forests() {
        // Two disconnected components.
        let a = sym_from_edges(4, &[(1, 0), (3, 2)]);
        let t = EliminationTree::from_matrix(&a);
        let post = t.postorder();
        assert!(t.is_postorder(&post));
        assert_eq!(post.len(), 4);
    }

    #[test]
    fn is_postorder_rejects_bad_orders() {
        let a = sym_from_edges(3, &[(1, 0), (2, 1)]);
        let t = EliminationTree::from_matrix(&a);
        assert!(!t.is_postorder(&[2, 1, 0])); // parent before child
        assert!(!t.is_postorder(&[0, 0, 1])); // duplicate
        assert!(!t.is_postorder(&[0, 1])); // wrong length
    }

    #[test]
    fn relabel_by_postorder_yields_monotone_parents() {
        // Build a tree that is NOT postordered: edges force parent(0)=2,
        // parent(2)=... scramble by using edges (2,0),(2,1) then (3,2) etc.
        let a = sym_from_edges(5, &[(4, 0), (2, 1), (4, 2), (3, 0)]);
        let t = EliminationTree::from_matrix(&a);
        let post = t.postorder();
        let newpar = t.relabel(&post);
        for (j, &p) in newpar.iter().enumerate() {
            if p != NONE {
                assert!(p > j, "parent {p} not after child {j}");
            }
        }
    }

    #[test]
    fn lower_rows_read_the_permuted_pattern() {
        let a = sym_from_edges(5, &[(1, 0), (3, 0), (3, 2), (4, 1)]);
        let p = Permutation::from_old_of(vec![3, 0, 4, 2, 1]).unwrap();
        let (g, ap) = (a.to_graph(), a.permute(&p));
        let rows = LowerRows::new(&g, &p);
        for i in 0..5 {
            let mut got: Vec<usize> = rows.row(i).collect();
            got.sort_unstable();
            let want: Vec<usize> = (0..i).filter(|&k| ap.get(i, k) != 0.0).collect();
            assert_eq!(got, want, "row {i}");
        }
        assert_eq!(
            EliminationTree::from_rows(rows).parent,
            EliminationTree::from_matrix(&ap).parent
        );
    }

    #[test]
    fn depths_consistent_with_parents() {
        let a = sym_from_edges(5, &[(2, 0), (3, 1), (4, 2), (4, 3)]);
        let t = EliminationTree::from_matrix(&a);
        let d = t.depths();
        for j in 0..5 {
            if t.parent[j] != NONE {
                assert_eq!(d[j], d[t.parent[j]] + 1);
            }
        }
        assert_eq!(d[4], 0);
    }
}
