//! The solve plan: level sets and gather segments, computed once per
//! symbolic factorization.
//!
//! Triangular solves carry the same dependency structure as the numeric
//! factorization (the frontier driver in [`crate::sched::driver`]): in
//! the forward sweep `L y = b`, supernode `s` may finish its columns of
//! `y` only after every descendant that updates those columns has
//! produced its own entries; the backward sweep `Lᵀ x = y` reverses the
//! edges. Grouping supernodes by their longest-path depth over those
//! edges yields *level sets* — all supernodes of one level are mutually
//! independent and can be solved concurrently, with a barrier between
//! levels (the classic level-scheduled triangular solve).
//!
//! The plan also rewrites the forward sweep from the serial *scatter*
//! orientation (a finished supernode pushes `−L₂₁ y` into ancestor
//! entries) into a *gather* orientation: each supernode pulls the
//! contributions of its already-finished descendants before solving its
//! own diagonal block. Gathering confines every write of a task to its
//! own column range — disjoint within a level — while reproducing the
//! serial arithmetic exactly: per entry, contributions still arrive in
//! ascending source-supernode order, column by column (see
//! [`GatherSeg`]). That is what makes the parallel sweeps bit-identical
//! to [`super::serial`].
//!
//! Everything here depends only on the sparsity pattern, so
//! [`SolvePlan::build`] runs once inside `CholeskySolver::analyze` and
//! the plan is cached on the `SymbolicCholesky` handle alongside the
//! symbolic factor.

use rlchol_symbolic::SymbolicFactor;

use crate::assemble::{segments, Segment};

/// One contiguous run of a source supernode's below-diagonal rows that
/// lands in a single target supernode's columns: positions
/// `lo..hi` of `sym.rows[src]`. The forward gather of a target replays
/// its incoming segments in ascending `src` order, which matches the
/// serial scatter's ascending processing order entry for entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatherSeg {
    /// Source (descendant) supernode.
    pub src: usize,
    /// First row position of the run in `sym.rows[src]`.
    pub lo: usize,
    /// One past the last row position.
    pub hi: usize,
}

/// Level sets of the supernodal elimination structure plus the
/// per-supernode incoming gather segments and per-level work-balanced
/// slice boundaries — everything the level-set sweeps need, computed
/// once from the pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolvePlan {
    /// `order[level_ptr[l]..level_ptr[l + 1]]` are the supernodes of
    /// level `l`, ascending. Level 0 holds the forest's leaves; the
    /// forward sweep walks levels ascending, the backward sweep
    /// descending.
    level_ptr: Vec<usize>,
    /// Supernodes grouped by level (see `level_ptr`).
    order: Vec<usize>,
    /// Prefix sums of the per-supernode work estimate, aligned with
    /// `order` (`cost_prefix.len() == order.len() + 1`). Slicing a level
    /// into `k` equal-cost chunks is a binary search here, so the
    /// parallel sweeps can balance work without allocating.
    cost_prefix: Vec<u64>,
    /// CSR over supernodes into `in_segs`: the incoming gather segments
    /// of supernode `s` are `in_segs[in_ptr[s]..in_ptr[s + 1]]`, sorted
    /// by ascending source.
    in_ptr: Vec<usize>,
    in_segs: Vec<GatherSeg>,
    /// Widest level (1 on path-shaped trees — nothing to parallelize).
    max_width: usize,
}

impl SolvePlan {
    /// Computes the plan for `sym`'s elimination structure.
    pub fn build(sym: &SymbolicFactor) -> SolvePlan {
        Self::build_par(sym, 1)
    }

    /// [`build`](Self::build) with the per-supernode gather-segment
    /// extraction — the dominant cost, a scan of every supernode's row
    /// list — fanned out over the persistent pool. The level and fill
    /// passes then replay serially from the precomputed lists;
    /// `segments` is a pure function of `(sym, s)` and the passes consume
    /// its output in the same order as [`build`], so the plan is
    /// identical for every `threads`.
    pub fn build_par(sym: &SymbolicFactor, threads: usize) -> SolvePlan {
        let nsup = sym.nsup();
        let segs: Vec<Vec<Segment>> = if threads > 1 && nsup >= 2 * threads {
            let mut segs: Vec<Vec<Segment>> = Vec::with_capacity(nsup);
            segs.resize_with(nsup, Vec::new);
            let chunk = nsup.div_ceil(threads);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = segs
                .chunks_mut(chunk)
                .enumerate()
                .map(|(t, slot)| {
                    let base = t * chunk;
                    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        for (off, dst) in slot.iter_mut().enumerate() {
                            *dst = segments(sym, base + off);
                        }
                    });
                    task
                })
                .collect();
            rlchol_dense::pool::global().run(tasks);
            segs
        } else {
            (0..nsup).map(|s| segments(sym, s)).collect()
        };
        // Longest-path depth: every updater finishes strictly before its
        // target, so one ascending pass suffices (sources precede their
        // targets in the postordered supernode numbering).
        let mut level = vec![0usize; nsup];
        let mut in_counts = vec![0usize; nsup];
        for (s, list) in segs.iter().enumerate() {
            for seg in list {
                level[seg.target] = level[seg.target].max(level[s] + 1);
                in_counts[seg.target] += 1;
            }
        }
        let nlev = level.iter().map(|&l| l + 1).max().unwrap_or(0);

        // Counting sort into level groups; ascending `s` within a level
        // falls out of the stable fill order.
        let mut level_ptr = vec![0usize; nlev + 1];
        for &l in &level {
            level_ptr[l + 1] += 1;
        }
        for l in 0..nlev {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut order = vec![0usize; nsup];
        let mut fill = level_ptr.clone();
        for (s, &l) in level.iter().enumerate() {
            order[fill[l]] = s;
            fill[l] += 1;
        }
        let max_width = (0..nlev)
            .map(|l| level_ptr[l + 1] - level_ptr[l])
            .max()
            .unwrap_or(0);

        // Incoming gather segments (CSR), ascending source per target.
        let mut in_ptr = vec![0usize; nsup + 1];
        for (s, &c) in in_counts.iter().enumerate() {
            in_ptr[s + 1] = in_ptr[s] + c;
        }
        let mut in_segs = vec![
            GatherSeg {
                src: 0,
                lo: 0,
                hi: 0
            };
            in_ptr[nsup]
        ];
        let mut fill = in_ptr.clone();
        let mut gather_cost = vec![0u64; nsup];
        for s in 0..nsup {
            let c = sym.sn_ncols(s) as u64;
            for seg in &segs[s] {
                in_segs[fill[seg.target]] = GatherSeg {
                    src: s,
                    lo: seg.lo,
                    hi: seg.hi,
                };
                fill[seg.target] += 1;
                gather_cost[seg.target] += (seg.hi - seg.lo) as u64 * c;
            }
        }

        // Work estimate per supernode: its own panel entries (the
        // triangular solve / backward gather touches all of them) plus
        // the forward gather's incoming entries.
        let mut cost_prefix = vec![0u64; nsup + 1];
        for (pos, &s) in order.iter().enumerate() {
            let own = (sym.sn_ncols(s) * sym.sn_len(s)) as u64;
            cost_prefix[pos + 1] = cost_prefix[pos] + own.max(1) + gather_cost[s];
        }

        SolvePlan {
            level_ptr,
            order,
            cost_prefix,
            in_ptr,
            in_segs,
            max_width,
        }
    }

    /// Number of level sets (the tree height in supernodes; 0 for an
    /// empty matrix).
    pub fn num_levels(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// Supernodes of the widest level.
    pub fn max_width(&self) -> usize {
        self.max_width
    }

    /// Heap bytes of the cached plan (level pointers, order, cost
    /// prefix and the gather-segment CSR).
    pub fn memory_bytes(&self) -> u64 {
        let usz = std::mem::size_of::<usize>() as u64;
        (self.level_ptr.len() + self.order.len() + self.in_ptr.len()) as u64 * usz
            + self.cost_prefix.len() as u64 * std::mem::size_of::<u64>() as u64
            + self.in_segs.len() as u64 * std::mem::size_of::<GatherSeg>() as u64
    }

    /// The supernodes of level `l`, ascending.
    pub fn level(&self, l: usize) -> &[usize] {
        &self.order[self.level_ptr[l]..self.level_ptr[l + 1]]
    }

    /// All supernodes in level order (positions index this slice).
    pub(crate) fn order(&self) -> &[usize] {
        &self.order
    }

    /// Incoming gather segments of supernode `s`, ascending by source.
    pub(crate) fn incoming(&self, s: usize) -> &[GatherSeg] {
        &self.in_segs[self.in_ptr[s]..self.in_ptr[s + 1]]
    }

    /// Position range (into [`order`](Self::order)) of chunk `j` of `k`
    /// equal-cost chunks of level `l`. Chunks partition the level; some
    /// may be empty when costs are skewed. Every caller computing the
    /// same `(l, j, k)` gets the same bounds, so concurrent chunk tasks
    /// need no shared state.
    pub(crate) fn chunk_bounds(&self, l: usize, j: usize, k: usize) -> (usize, usize) {
        let lo = self.level_ptr[l];
        let hi = self.level_ptr[l + 1];
        let base = self.cost_prefix[lo];
        let total = self.cost_prefix[hi] - base;
        let k64 = k as u64;
        let bound = |j: usize| -> usize {
            let t = j as u64 * total;
            lo + self.cost_prefix[lo..hi].partition_point(|&p| (p - base) * k64 < t)
        };
        (bound(j), bound(j + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlchol_matgen::{grid3d, laplace2d, Stencil};
    use rlchol_ordering::{order, OrderingMethod};
    use rlchol_symbolic::{analyze, SymbolicOptions};

    fn plan_for(a: &rlchol_sparse::SymCsc) -> (SymbolicFactor, SolvePlan) {
        let fill = order(a, OrderingMethod::NestedDissection);
        let af = a.permute(&fill);
        let sym = analyze(&af, &SymbolicOptions::default());
        let plan = SolvePlan::build(&sym);
        (sym, plan)
    }

    #[test]
    fn levels_partition_supernodes_and_respect_dependencies() {
        let a = grid3d(6, 5, 4, Stencil::Star7, 1, 3);
        let (sym, plan) = plan_for(&a);
        let mut level_of = vec![usize::MAX; sym.nsup()];
        let mut seen = 0usize;
        for l in 0..plan.num_levels() {
            for &s in plan.level(l) {
                assert_eq!(level_of[s], usize::MAX, "supernode {s} listed twice");
                level_of[s] = l;
                seen += 1;
            }
        }
        assert_eq!(seen, sym.nsup());
        // Every incoming source finished on a strictly earlier level,
        // and sources are ascending per target.
        for s in 0..sym.nsup() {
            let mut prev_src = None;
            for seg in plan.incoming(s) {
                assert!(seg.lo < seg.hi);
                assert!(
                    level_of[seg.src] < level_of[s],
                    "src {} level {} vs target {s} level {}",
                    seg.src,
                    level_of[seg.src],
                    level_of[s]
                );
                assert!(prev_src < Some(seg.src), "sources must ascend");
                prev_src = Some(seg.src);
                // The segment's rows all live in s's column range.
                let first = sym.sn.first_col(s);
                let end = first + sym.sn_ncols(s);
                for pos in seg.lo..seg.hi {
                    let row = sym.rows[seg.src][pos];
                    assert!(row >= first && row < end);
                }
            }
        }
    }

    #[test]
    fn incoming_segments_cover_every_below_diagonal_row_once() {
        let a = laplace2d(13, 4);
        let (sym, plan) = plan_for(&a);
        let mut covered: Vec<Vec<bool>> = (0..sym.nsup())
            .map(|s| vec![false; sym.rows[s].len()])
            .collect();
        for s in 0..sym.nsup() {
            for seg in plan.incoming(s) {
                for pos in seg.lo..seg.hi {
                    assert!(!covered[seg.src][pos], "row position claimed twice");
                    covered[seg.src][pos] = true;
                }
            }
        }
        for (s, c) in covered.iter().enumerate() {
            assert!(c.iter().all(|&b| b), "supernode {s} rows not all gathered");
        }
    }

    #[test]
    fn chunk_bounds_partition_each_level() {
        let a = grid3d(5, 5, 5, Stencil::Star7, 1, 8);
        let (_, plan) = plan_for(&a);
        for l in 0..plan.num_levels() {
            for k in [1usize, 2, 3, 7] {
                let mut expect = plan.chunk_bounds(l, 0, k).0;
                for j in 0..k {
                    let (lo, hi) = plan.chunk_bounds(l, j, k);
                    assert_eq!(lo, expect, "level {l} chunk {j} of {k}");
                    assert!(hi >= lo);
                    expect = hi;
                }
                let whole = plan.level(l).len();
                let first = plan.chunk_bounds(l, 0, k).0;
                assert_eq!(expect - first, whole, "level {l} k {k} must cover");
            }
        }
    }

    #[test]
    fn nd_ordered_grid_has_bushy_levels() {
        // The property the parallel sweeps rely on: a 3-D grid under
        // nested dissection has levels wider than one supernode.
        let a = grid3d(7, 7, 7, Stencil::Star7, 1, 5);
        let (_, plan) = plan_for(&a);
        assert!(plan.max_width() > 1, "ND grid3d must have parallel width");
        assert!(plan.num_levels() > 1);
    }

    #[test]
    fn parallel_build_matches_serial_exactly() {
        for (a, tag) in [
            (grid3d(6, 5, 4, Stencil::Star7, 1, 3), "grid"),
            (laplace2d(17, 4), "laplace"),
        ] {
            let fill = order(&a, OrderingMethod::NestedDissection);
            let af = a.permute(&fill);
            let sym = analyze(&af, &SymbolicOptions::default());
            let serial = SolvePlan::build(&sym);
            for threads in [1usize, 2, 4, 8] {
                assert_eq!(
                    SolvePlan::build_par(&sym, threads),
                    serial,
                    "{tag} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn empty_matrix_yields_empty_plan() {
        let t = rlchol_sparse::TripletMatrix::new(0, 0);
        let a = rlchol_sparse::SymCsc::from_lower_triplets(&t).unwrap();
        let sym = analyze(&a, &SymbolicOptions::default());
        let plan = SolvePlan::build(&sym);
        assert_eq!(plan.num_levels(), 0);
        assert_eq!(plan.max_width(), 0);
    }
}
