//! Partition-refinement reordering of columns within supernodes
//! (Jacquelin–Ng–Peyton, *Fast and effective reordering of columns within
//! supernodes using partition refinement*, CSC 2018).
//!
//! Reordering the columns *inside* a supernode changes no fill (the
//! diagonal block is dense and every column shares the below-supernode
//! structure), but it changes whether the rows each descendant supernode
//! updates are **contiguous** — i.e. how many [`RowBlock`]s
//! (crate::blocks::RowBlock) RLB has to issue BLAS calls for.
//!
//! For every target supernode `P`, each descendant `J` that updates `P`
//! contributes the subset `S(J, P) = rows(J) ∩ cols(P)`. Processing these
//! subsets through a partition-refinement sweep groups columns touched by
//! the same descendants next to each other; ordering subsets from largest
//! to smallest gives the big updaters the best contiguity, which is the
//! variant recommended in the paper's companion reference [12].

use std::sync::Mutex;

use crate::blocks::total_blocks;
use crate::supernodes::SupernodePartition;
use rlchol_sparse::Permutation;

/// Result of the partition-refinement phase.
#[derive(Debug, Clone)]
pub struct PrResult {
    /// Global permutation (identity outside supernode interiors).
    pub perm: Permutation,
    /// Remapped row structures (same sets, renumbered and re-sorted).
    pub rows: Vec<Vec<usize>>,
    /// Total row blocks before refinement (after refinement they are
    /// counted off the final block lists).
    pub blocks_before: usize,
}

/// Visits every `(P, S(J, P))` in updater order `J`, and within one
/// updater in target order.
fn for_each_segment<'a>(
    sn: &SupernodePartition,
    rows: &'a [Vec<usize>],
    mut visit: impl FnMut(usize, &'a [usize]),
) {
    for rj in rows {
        let mut k = 0usize;
        while k < rj.len() {
            let target = sn.col_to_sn[rj[k]];
            let len = rj[k..].partition_point(|&r| r < sn.end_col(target));
            visit(target, &rj[k..k + len]);
            k += len;
        }
    }
}

/// Scratch of the refinement sweep, reused across the targets of one
/// chunk.
#[derive(Default)]
struct Buffers {
    /// Membership of the current subset, by column offset in the target.
    in_set: Vec<bool>,
    /// `order[bounds[c]..bounds[c + 1]]` is class `c` of the target.
    order: Vec<usize>,
    bounds: Vec<usize>,
    next_bounds: Vec<usize>,
    outside: Vec<usize>,
    new_pos: Vec<usize>,
    positions: Vec<usize>,
}

/// Refines the columns `f..e` of one target by its subsets `sets`,
/// writing the order it adopts into `old_of` (the target's columns).
fn refine_target(f: usize, e: usize, sets: &mut [&[usize]], old_of: &mut [usize], b: &mut Buffers) {
    // Largest updaters first (stable: ties stay in updater order).
    sets.sort_by_key(|s| std::cmp::Reverse(s.len()));
    if b.in_set.len() < e - f {
        b.in_set.resize(e - f, false);
    }
    b.order.clear();
    b.order.extend(f..e);
    b.bounds.clear();
    b.bounds.extend([0, e - f]);
    for &s in sets.iter() {
        if s.len() == e - f {
            continue; // touches everything: refines nothing
        }
        for &c in s {
            b.in_set[c - f] = true;
        }
        // Stable split of every class into its members in `s`, then the
        // rest; a class entirely on one side stays whole.
        b.next_bounds.clear();
        b.next_bounds.push(0);
        for w in b.bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            b.outside.clear();
            let mut inside = lo;
            for k in lo..hi {
                let c = b.order[k];
                if b.in_set[c - f] {
                    b.order[inside] = c;
                    inside += 1;
                } else {
                    b.outside.push(c);
                }
            }
            b.order[inside..hi].copy_from_slice(&b.outside);
            if inside != lo && inside != hi {
                b.next_bounds.push(inside);
            }
            b.next_bounds.push(hi);
        }
        std::mem::swap(&mut b.bounds, &mut b.next_bounds);
        for &c in s {
            b.in_set[c - f] = false;
        }
    }
    // Monotonicity guard: only adopt the refined order if it does not
    // increase the number of runs the updaters see (the largest-first
    // heuristic can fragment small interleaved subsets). Subsets are
    // ascending, so under the identity order a run ends wherever
    // consecutive members are not adjacent columns.
    let runs = |ps: &[usize]| 1 + ps.windows(2).filter(|w| w[1] != w[0] + 1).count();
    b.new_pos.clear();
    b.new_pos.resize(e - f, 0);
    for (k, &c) in b.order.iter().enumerate() {
        b.new_pos[c - f] = k;
    }
    let mut before = 0;
    let mut after = 0;
    for &s in sets.iter() {
        before += runs(s);
        b.positions.clear();
        b.positions.extend(s.iter().map(|&c| b.new_pos[c - f]));
        b.positions.sort_unstable();
        after += runs(&b.positions);
    }
    if after <= before {
        old_of.copy_from_slice(&b.order);
    }
}

/// `v` cut at the ascending offsets `at` (from 0 to `v.len()`), one
/// piece per gap, each behind a lock so a pool index can take its own.
fn cut_at<'a, T>(mut v: &'a mut [T], at: &[usize]) -> Vec<Mutex<&'a mut [T]>> {
    at.windows(2)
        .map(|w| {
            let (piece, rest) = std::mem::take(&mut v).split_at_mut(w[1] - w[0]);
            v = rest;
            Mutex::new(piece)
        })
        .collect()
}

/// Runs `f(0), …, f(parts - 1)`: on the pool when `parts > 1`, else
/// inline.
fn run_parts(parts: usize, f: &(dyn Fn(usize) + Sync)) {
    if parts > 1 {
        rlchol_dense::pool::global().run_for(parts, f);
    } else {
        f(0);
    }
}

/// Runs partition refinement on every supernode's column range.
///
/// Each target writes only its own columns of the permutation, so with
/// `threads > 1` the targets are split into `threads` contiguous chunks
/// of about equal work, refined on the pool with per-chunk buffers, and
/// the row lists are renumbered in the same chunks. The result is the
/// serial sweep's at any `threads`; `threads <= 1` runs it on the
/// caller.
pub fn refine_partition(sn: &SupernodePartition, rows: &[Vec<usize>], threads: usize) -> PrResult {
    let n = sn.n();
    let nsup = sn.nsup();
    let blocks_before = total_blocks(rows, sn);

    // Gather subsets per target supernode, S(J, P) = rows(J) ∩ cols(P),
    // as slices of `rows` grouped by target (CSR: `subsets[start[p]..
    // start[p + 1]]`), each target's in updater order.
    let mut start = vec![0usize; nsup + 1];
    for_each_segment(sn, rows, |target, _| start[target + 1] += 1);
    for p in 0..nsup {
        start[p + 1] += start[p];
    }
    let mut subsets: Vec<&[usize]> = vec![&[]; start[nsup]];
    let mut next = start.clone();
    for_each_segment(sn, rows, |target, seg| {
        subsets[next[target]] = seg;
        next[target] += 1;
    });

    // Targets `cuts[t]..cuts[t + 1]` form chunk `t`. Each subset costs
    // its target a pass over the target's columns, so the chunks hold
    // about equal sums of subsets × width.
    let parts = if threads > 1 && nsup >= 2 * threads {
        threads
    } else {
        1
    };
    let mut work = vec![0usize; nsup + 1];
    for p in 0..nsup {
        work[p + 1] = work[p] + (start[p + 1] - start[p]) * sn.ncols(p);
    }
    let mut cuts: Vec<usize> = (0..parts)
        .map(|t| work.partition_point(|&x| x * parts < work[nsup] * t))
        .collect();
    cuts.push(nsup);

    // Refine each supernode independently into the global permutation.
    let mut old_of: Vec<usize> = (0..n).collect();
    let col_cuts: Vec<usize> = cuts.iter().map(|&p| sn.sn_start[p]).collect();
    let set_cuts: Vec<usize> = cuts.iter().map(|&p| start[p]).collect();
    let chunks: Vec<_> = cut_at(&mut subsets, &set_cuts)
        .into_iter()
        .zip(cut_at(&mut old_of, &col_cuts))
        .collect();
    run_parts(parts, &|t| {
        let (sets, cols) = &chunks[t];
        let mut sets = sets.lock().expect("each index locks only its own chunk");
        let mut cols = cols.lock().expect("each index locks only its own chunk");
        let mut b = Buffers::default();
        let (s0, c0) = (set_cuts[t], col_cuts[t]);
        for p in cuts[t]..cuts[t + 1] {
            let (f, e) = (sn.first_col(p), sn.end_col(p));
            if e - f <= 1 || start[p] == start[p + 1] {
                continue;
            }
            refine_target(
                f,
                e,
                &mut sets[start[p] - s0..start[p + 1] - s0],
                &mut cols[f - c0..e - c0],
                &mut b,
            );
        }
    });
    drop(chunks);

    let perm = Permutation::from_old_of(old_of).expect("PR reordering is a bijection");
    // Renumber each updater's rows in the chunks of the targets (the
    // last chunk takes every row list past them).
    let mut new_rows: Vec<Vec<usize>> = vec![Vec::new(); rows.len()];
    cuts[parts] = rows.len();
    let chunks = cut_at(&mut new_rows, &cuts);
    run_parts(parts, &|t| {
        let mut out = chunks[t]
            .lock()
            .expect("each index locks only its own chunk");
        for (m, r) in out.iter_mut().zip(&rows[cuts[t]..]) {
            m.extend(r.iter().map(|&i| perm.new_of(i)));
            m.sort_unstable();
        }
    });
    drop(chunks);
    PrResult {
        perm,
        rows: new_rows,
        blocks_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_updaters_get_grouped() {
        // One target supernode covering columns 0..6; two updaters hitting
        // {0, 2, 4} and {1, 3, 5}: 3 blocks each before PR, 1 each after.
        let sn = SupernodePartition::from_starts(vec![0, 6, 8]);
        let rows = vec![vec![0, 2, 4], vec![1, 3, 5], vec![]];
        // rows[0]/rows[1] describe updaters living in supernode 1's
        // columns? They must come from *other* supernodes; structure-wise
        // only the sets matter here, so attach them to supernode index 0/1
        // is irrelevant — we pass them as the global rows table.
        let r = refine_partition(&sn, &rows, 1);
        assert_eq!(r.blocks_before, 6);
        assert_eq!(total_blocks(&r.rows, &sn), 2);
        // Sets preserved.
        for (old, new) in rows.iter().zip(&r.rows) {
            let mut mapped: Vec<usize> = old.iter().map(|&i| r.perm.new_of(i)).collect();
            mapped.sort_unstable();
            assert_eq!(&mapped, new);
        }
    }

    #[test]
    fn identity_when_already_contiguous() {
        let sn = SupernodePartition::from_starts(vec![0, 4, 8]);
        let rows = vec![vec![4, 5], vec![]];
        let r = refine_partition(&sn, &rows, 1);
        assert_eq!(r.blocks_before, total_blocks(&r.rows, &sn));
        assert_eq!(total_blocks(&r.rows, &sn), 1);
    }

    #[test]
    fn nested_subsets_refine_hierarchically() {
        // Updaters {0,1,2,3}, {0,1}, {2}: consecutive-ones is achievable.
        let sn = SupernodePartition::from_starts(vec![0, 5]);
        let rows = vec![vec![0, 1, 2, 3], vec![0, 1], vec![2]];
        let r = refine_partition(&sn, &rows, 1);
        assert!(total_blocks(&r.rows, &sn) <= r.blocks_before);
        // Each subset must be contiguous after refinement.
        for s in &r.rows {
            for w in s.windows(2) {
                assert_eq!(w[1], w[0] + 1, "subset {s:?} not contiguous");
            }
        }
    }

    #[test]
    fn never_reorders_across_supernodes() {
        let sn = SupernodePartition::from_starts(vec![0, 3, 6]);
        let rows = vec![vec![0, 2, 4], vec![3, 5]];
        let r = refine_partition(&sn, &rows, 1);
        for j in 0..6 {
            let old = r.perm.old_of(j);
            assert_eq!(
                sn.col_to_sn[j], sn.col_to_sn[old],
                "column crossed supernode"
            );
        }
    }

    #[test]
    fn block_count_never_increases_on_single_subset() {
        // A single updater can always be made contiguous.
        let sn = SupernodePartition::from_starts(vec![0, 8]);
        let rows = vec![vec![1, 3, 5, 7]];
        let r = refine_partition(&sn, &rows, 1);
        assert_eq!(total_blocks(&r.rows, &sn), 1);
    }
}
