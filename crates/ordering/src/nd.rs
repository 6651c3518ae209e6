//! Nested dissection ordering.
//!
//! Classic recursive bisection in the style of SPARSPAK / METIS:
//!
//! 1. BFS from the piece's first vertex; if it reaches every vertex the
//!    piece is connected and the search carries on as step 2, otherwise
//!    the piece is split into its connected components, each dissected on
//!    its own;
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
//! work per piece is proportional to the piece. Both halves and the
//! separator come out of one pass over their parent.
//!
//! All other scratch — the BFS level structure, the side labels and the
//! within-side ranks — is owned by the top-level call, sized to the whole
//! graph once and used by each piece as a prefix of its own size.
//!
//! A piece the recursion cuts is owned by it and freed as soon as it is
//! split. The pieces a branch holds at once — the halves and separators
//! still waiting on its path — then add up to about the piece the branch
//! started from, where keeping every ancestor alive held about three
//! times that.
//!
//! [`nested_dissection_par`] with more than one lane orders the two
//! halves of the top-level split (of each component's, when the graph is
//! not connected) at once, as two indices of one
//! [`run_for`](rlchol_dense::pool::ThreadPool::run_for) on the shared
//! pool: A into the output with the top-level scratch, B into a buffer
//! and scratch of its own, sized to B. B is appended after A and before
//! the separator, the serial order, and below the split the recursion
//! is the serial one, so the permutation is the serial one at any lane
//! count. (A piece depends only on its own graph, never on the scratch
//! state another piece left behind.)
//!
//! On the regular 2-D/3-D meshes that dominate the paper's test set this
//! produces the familiar `O(n log n)` fill / `O(n^{3/2})`–`O(n²)` flop
//! profiles that METIS achieves, which is all the downstream experiments
//! need (the ordering only shapes the supernode size distribution).

use std::borrow::Cow;
use std::sync::Mutex;

use crate::levels::Levels;
use crate::mindeg::min_degree_into;
use rlchol_sparse::{Graph, Permutation};

/// Components at or below this size are ordered with minimum degree.
const LEAF_SIZE: usize = 96;
/// Separator-shrinking passes after the level-set cut.
const SHRINK_PASSES: usize = 4;

/// Side labels of a bisection, also the index of the piece in [`split`].
const A: u8 = 0;
const B: u8 = 1;
const SEP: u8 = 2;

/// Computes a nested-dissection ordering of `g`.
pub fn nested_dissection(g: &Graph) -> Permutation {
    nested_dissection_par(g, 1)
}

/// [`nested_dissection`] on `threads` lanes: above one lane, the two
/// halves of each top-level split are ordered on the pool at once. The
/// permutation is [`nested_dissection`]'s at any lane count.
pub fn nested_dissection_par(g: &Graph, threads: usize) -> Permutation {
    let n = g.n();
    let mut order = Vec::with_capacity(n);
    let globals: Vec<usize> = (0..n).collect();
    dissect(
        Cow::Borrowed(g),
        Cow::Owned(globals),
        &mut order,
        &mut Scratch::new(n),
        threads > 1,
    );
    debug_assert_eq!(order.len(), n);
    Permutation::from_old_of(order).expect("nested dissection visits each vertex once")
}

/// Buffers shared by every piece of one dissection.
struct Scratch {
    levels: Levels,
    /// Side label of each vertex of the piece being bisected.
    side: Vec<u8>,
    /// Each vertex's local number within its side.
    rank: Vec<usize>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            levels: Levels::new(n),
            side: vec![A; n],
            rank: vec![0; n],
        }
    }
}

/// Orders the piece `g`, whose local vertex `l` is global vertex
/// `globals[l]`, appending eliminated global vertices to `out`; an owned
/// piece is freed once it is split. With `fork`, the halves of the
/// piece's splits (of each component's, when it is not connected) are
/// ordered on the pool.
fn dissect(
    g: Cow<Graph>,
    globals: Cow<[usize]>,
    out: &mut Vec<usize>,
    s: &mut Scratch,
    fork: bool,
) {
    let n = g.n();
    if n == 0 {
        return;
    }
    s.levels.bfs(&g, 0, |_| true);
    if s.levels.reached() == n {
        return dissect_connected(g, globals, out, s, fork);
    }
    for comp in g.connected_components() {
        let (c, c_globals) = piece(&g, &globals, &comp);
        s.levels.bfs(&c, 0, |_| true);
        dissect_connected(Cow::Owned(c), Cow::Owned(c_globals), out, s, fork);
    }
}

/// [`dissect`] for a connected piece, with `s.levels` holding the BFS
/// from its local vertex 0.
fn dissect_connected(
    g: Cow<Graph>,
    globals: Cow<[usize]>,
    out: &mut Vec<usize>,
    s: &mut Scratch,
    fork: bool,
) {
    let n = g.n();
    if n <= LEAF_SIZE {
        return emit_min_degree(&g, &globals, out);
    }
    let side = &mut s.side[..n];
    let Some(counts) = bisect(&g, &mut s.levels, side) else {
        // Bisection failed (e.g. a clique): fall back to MD.
        return emit_min_degree(&g, &globals, out);
    };
    let [a, b, sep] = split(&g, &globals, side, &mut s.rank[..n], counts);
    drop((g, globals));
    if fork {
        // A goes straight to `out` with this piece's scratch; B gets a
        // buffer and scratch of its own, appended after.
        let mut b_out = Vec::with_capacity(b.0.n());
        let mut b_scratch = Scratch::new(b.0.n());
        let halves = [
            Mutex::new((Some(a), &mut *out, &mut *s)),
            Mutex::new((Some(b), &mut b_out, &mut b_scratch)),
        ];
        rlchol_dense::pool::global().run_for(2, &|k| {
            let mut half = halves[k]
                .lock()
                .expect("each index locks only its own half");
            let (h, h_out, h_scratch) = &mut *half;
            let (h, h_globals) = h.take().expect("each half is ordered once");
            dissect(
                Cow::Owned(h),
                Cow::Owned(h_globals),
                h_out,
                h_scratch,
                false,
            );
        });
        drop(halves);
        out.extend(b_out);
    } else {
        for (h, h_globals) in [a, b] {
            dissect(Cow::Owned(h), Cow::Owned(h_globals), out, s, false);
        }
    }
    // Separator vertices are eliminated last; order them by minimum
    // degree of their induced subgraph for a better dense tail.
    emit_min_degree(&sep.0, &sep.1, out);
}

/// The subgraph of the piece `g` induced by its ascending local vertices
/// `locals`, with that subgraph's own local → global map.
fn piece(g: &Graph, globals: &[usize], locals: &[usize]) -> (Graph, Vec<usize>) {
    let (sub, _) = g.induced_subgraph(locals);
    (sub, locals.iter().map(|&l| globals[l]).collect())
}

/// Appends the minimum-degree ordering of the piece `g`, as global ids.
fn emit_min_degree(g: &Graph, globals: &[usize], out: &mut Vec<usize>) {
    min_degree_into(g, |l| out.push(globals[l]));
}

/// Labels each vertex of the connected graph `g` [`A`], [`B`] or [`SEP`]
/// in `side`, with `SEP` a vertex separator, starting from the BFS that
/// `levels` holds. Returns the three sizes, or `None` when no useful
/// split exists.
fn bisect(g: &Graph, levels: &mut Levels, side: &mut [u8]) -> Option<[usize; 3]> {
    let n = g.n();
    levels.reroot_peripheral(g, |_| true);
    let depth = levels.depth();
    if depth < 3 {
        return None; // graph of diameter < 2: no interior level to cut
    }
    // Cut at the level where the cumulative size crosses half.
    let cut = (0..depth)
        .find(|&l| levels.below(l + 1) * 2 >= n)
        .expect("the levels hold all n vertices")
        .clamp(1, depth - 2);

    // A = levels < cut, B = levels > cut. BFS edges join equal or
    // adjacent levels, so no edge joins A and B.
    for (sd, &l) in side.iter_mut().zip(levels.level_of()) {
        *sd = match l.cmp(&cut) {
            std::cmp::Ordering::Less => A,
            std::cmp::Ordering::Equal => SEP,
            std::cmp::Ordering::Greater => B,
        };
    }
    let mut counts = [levels.below(cut), n - levels.below(cut + 1), 0];
    counts[SEP as usize] = n - counts[A as usize] - counts[B as usize];

    // Shrink: a separator vertex with all non-separator neighbors on one
    // side joins that side, and one with only separator neighbors joins
    // A. Multiple passes let the separator thin out. A vertex moves only
    // while it has no neighbor on the other side, and its separator
    // neighbors cannot then move there in turn, so no A-B edge appears.
    let sep = levels.sorted_level(cut);
    for _ in 0..SHRINK_PASSES {
        let mut changed = false;
        for &v in sep {
            if side[v] != SEP {
                continue;
            }
            let mut has_a = false;
            let mut has_b = false;
            for &u in g.neighbors(v) {
                match side[u] {
                    A => has_a = true,
                    B => has_b = true,
                    _ => {}
                }
            }
            let to = match (has_a, has_b) {
                (_, false) => A,
                (false, true) => B,
                (true, true) => continue,
            };
            side[v] = to;
            counts[to as usize] += 1;
            counts[SEP as usize] -= 1;
            changed = true;
        }
        if !changed {
            break;
        }
    }

    // Sanity: S must actually separate A from B.
    debug_assert!((0..n)
        .filter(|&v| side[v] == A)
        .all(|v| g.neighbors(v).iter().all(|&u| side[u] != B)));
    if counts[A as usize] == 0 || counts[B as usize] == 0 || counts[SEP as usize] >= n / 2 {
        return None;
    }
    Some(counts)
}

/// The three subgraphs of `g` induced by the side labels, each with its
/// local → global map, built in one pass; `counts` are the side sizes
/// and `rank` is scratch.
fn split(
    g: &Graph,
    globals: &[usize],
    side: &[u8],
    rank: &mut [usize],
    counts: [usize; 3],
) -> [(Graph, Vec<usize>); 3] {
    let mut maps = counts.map(Vec::with_capacity);
    let mut edges = [0usize; 3];
    for (v, (&sd, r)) in side.iter().zip(rank.iter_mut()).enumerate() {
        let map = &mut maps[sd as usize];
        *r = map.len();
        map.push(globals[v]);
        edges[sd as usize] += g.degree(v);
    }
    let mut xadj = counts.map(|k| {
        let mut x = Vec::with_capacity(k + 1);
        x.push(0);
        x
    });
    let mut adjncy = edges.map(Vec::with_capacity);
    for (v, &sd) in side.iter().enumerate() {
        // Ranks within a side increase with the parent index, so the
        // filtered list comes out sorted.
        let adj = &mut adjncy[sd as usize];
        adj.extend(
            g.neighbors(v)
                .iter()
                .filter(|&&u| side[u] == sd)
                .map(|&u| rank[u]),
        );
        xadj[sd as usize].push(adj.len());
    }
    let mut pieces = xadj.into_iter().zip(adjncy).zip(maps);
    std::array::from_fn(|_| {
        let ((x, adj), map) = pieces.next().expect("three sides");
        (Graph::from_sorted_parts(x, adj), map)
    })
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

    /// The edges of the 7-point grid graph of an `nx × ny × nz` box
    /// (`nz = 1`: the 5-point plane), `x` fastest, with every vertex
    /// number shifted by `off`.
    fn grid_edges(nx: usize, ny: usize, nz: usize, off: usize) -> Vec<(usize, usize)> {
        let idx = |x: usize, y: usize, z: usize| off + (z * ny + y) * nx + x;
        let mut edges = Vec::new();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    if x + 1 < nx {
                        edges.push((idx(x, y, z), idx(x + 1, y, z)));
                    }
                    if y + 1 < ny {
                        edges.push((idx(x, y, z), idx(x, y + 1, z)));
                    }
                    if z + 1 < nz {
                        edges.push((idx(x, y, z), idx(x, y, z + 1)));
                    }
                }
            }
        }
        edges
    }

    /// A plane, a box, and two disconnected planes of unequal size.
    fn fork_shapes() -> Vec<(&'static str, Graph)> {
        let mut two = grid_edges(60, 40, 1, 0);
        two.extend(grid_edges(50, 30, 1, 2400));
        vec![
            (
                "grid2d(120,120)",
                Graph::from_edges(14_400, &grid_edges(120, 120, 1, 0)),
            ),
            (
                "grid3d(24,24,24)",
                Graph::from_edges(13_824, &grid_edges(24, 24, 24, 0)),
            ),
            ("two grids", Graph::from_edges(3_900, &two)),
        ]
    }

    #[test]
    fn forked_halves_give_the_serial_permutation() {
        for (name, g) in fork_shapes() {
            let serial = nested_dissection(&g);
            assert_eq!(nested_dissection_par(&g, 1), serial, "{name}, 1 lane");
            assert_eq!(nested_dissection_par(&g, 2), serial, "{name}, 2 lanes");
        }
    }

    #[test]
    fn forked_halves_run_inline_while_another_thread_holds_the_pool() {
        use std::sync::Barrier;
        let shapes = fork_shapes();
        let serial: Vec<Permutation> = shapes.iter().map(|(_, g)| nested_dissection(g)).collect();
        let (held, release) = (Barrier::new(2), Barrier::new(2));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                rlchol_dense::pool::global().run_for(2, &|i| {
                    if i == 0 {
                        held.wait();
                        release.wait();
                    }
                });
            });
            // Index 0 of the other call is running: this thread's fork
            // finds the slot taken (or another test's call in it) and
            // orders both halves itself. The slot is released before any
            // assertion, so a failure cannot leave the holder waiting.
            held.wait();
            let got: Vec<Permutation> = shapes
                .iter()
                .map(|(_, g)| nested_dissection_par(g, 2))
                .collect();
            release.wait();
            for (((name, _), want), got) in shapes.iter().zip(&serial).zip(&got) {
                assert_eq!(got, want, "{name}, pool held");
            }
        });
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
        let mut s = Scratch::new(100);
        s.levels.bfs(&g, 0, |_| true);
        let counts = bisect(&g, &mut s.levels, &mut s.side).expect("grid splits");
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert!(counts[0] > 0 && counts[1] > 0);
        let side = &s.side;
        for (k, &count) in counts.iter().enumerate() {
            assert_eq!(side.iter().filter(|&&sd| sd as usize == k).count(), count);
        }
        // No direct A-B edge.
        for v in (0..100).filter(|&v| side[v] == A) {
            for &u in g.neighbors(v) {
                assert_ne!(side[u], B, "edge {v}-{u} crosses the separator");
            }
        }
        // Grid separator should be O(k): allow some slack.
        assert!(counts[2] <= 30, "separator too large: {}", counts[2]);
    }

    #[test]
    fn split_matches_induced_subgraphs() {
        let g = grid2d(10);
        let mut s = Scratch::new(100);
        s.levels.bfs(&g, 0, |_| true);
        let counts = bisect(&g, &mut s.levels, &mut s.side).expect("grid splits");
        let globals: Vec<usize> = (0..100).map(|v| 1000 + v).collect();
        let pieces = split(&g, &globals, &s.side, &mut s.rank, counts);
        for (k, (h, h_globals)) in pieces.iter().enumerate() {
            let locals: Vec<usize> = (0..100).filter(|&v| s.side[v] as usize == k).collect();
            let (want, want_globals) = piece(&g, &globals, &locals);
            assert_eq!((h, h_globals), (&want, &want_globals));
        }
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
