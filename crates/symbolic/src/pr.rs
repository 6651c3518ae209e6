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

/// Runs partition refinement on every supernode's column range.
pub fn refine_partition(sn: &SupernodePartition, rows: &[Vec<usize>]) -> PrResult {
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

    // Refine each supernode independently; build the global permutation.
    // `order[bounds[c]..bounds[c + 1]]` is class `c` of the current
    // supernode; every buffer is reused across supernodes.
    let mut old_of: Vec<usize> = (0..n).collect();
    let mut in_set = vec![false; n];
    let mut order: Vec<usize> = Vec::new();
    let mut outside: Vec<usize> = Vec::new();
    let mut bounds: Vec<usize> = Vec::new();
    let mut next_bounds: Vec<usize> = Vec::new();
    let mut new_pos: Vec<usize> = Vec::new();
    let mut positions: Vec<usize> = Vec::new();
    for p in 0..nsup {
        let (f, e) = (sn.first_col(p), sn.end_col(p));
        if e - f <= 1 || start[p] == start[p + 1] {
            continue;
        }
        // Largest updaters first (stable: ties stay in updater order).
        let sets = &mut subsets[start[p]..start[p + 1]];
        sets.sort_by_key(|s| std::cmp::Reverse(s.len()));
        order.clear();
        order.extend(f..e);
        bounds.clear();
        bounds.extend([0, e - f]);
        for &s in sets.iter() {
            if s.len() == e - f {
                continue; // touches everything: refines nothing
            }
            for &c in s {
                in_set[c] = true;
            }
            // Stable split of every class into its members in `s`, then
            // the rest; a class entirely on one side stays whole.
            next_bounds.clear();
            next_bounds.push(0);
            for w in bounds.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                outside.clear();
                let mut inside = lo;
                for k in lo..hi {
                    let c = order[k];
                    if in_set[c] {
                        order[inside] = c;
                        inside += 1;
                    } else {
                        outside.push(c);
                    }
                }
                order[inside..hi].copy_from_slice(&outside);
                if inside != lo && inside != hi {
                    next_bounds.push(inside);
                }
                next_bounds.push(hi);
            }
            std::mem::swap(&mut bounds, &mut next_bounds);
            for &c in s {
                in_set[c] = false;
            }
        }
        // Monotonicity guard: only adopt the refined order if it does
        // not increase the number of runs the updaters see (the largest-
        // first heuristic can fragment small interleaved subsets).
        // Subsets are ascending, so under the identity order a run ends
        // wherever consecutive members are not adjacent columns.
        let runs = |ps: &[usize]| 1 + ps.windows(2).filter(|w| w[1] != w[0] + 1).count();
        new_pos.clear();
        new_pos.resize(e - f, 0);
        for (k, &c) in order.iter().enumerate() {
            new_pos[c - f] = k;
        }
        let mut before = 0;
        let mut after = 0;
        for &s in sets.iter() {
            before += runs(s);
            positions.clear();
            positions.extend(s.iter().map(|&c| new_pos[c - f]));
            positions.sort_unstable();
            after += runs(&positions);
        }
        if after <= before {
            old_of[f..e].copy_from_slice(&order);
        }
    }

    let perm = Permutation::from_old_of(old_of).expect("PR reordering is a bijection");
    let new_rows: Vec<Vec<usize>> = rows
        .iter()
        .map(|r| {
            let mut m: Vec<usize> = r.iter().map(|&i| perm.new_of(i)).collect();
            m.sort_unstable();
            m
        })
        .collect();
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
        let r = refine_partition(&sn, &rows);
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
        let r = refine_partition(&sn, &rows);
        assert_eq!(r.blocks_before, total_blocks(&r.rows, &sn));
        assert_eq!(total_blocks(&r.rows, &sn), 1);
    }

    #[test]
    fn nested_subsets_refine_hierarchically() {
        // Updaters {0,1,2,3}, {0,1}, {2}: consecutive-ones is achievable.
        let sn = SupernodePartition::from_starts(vec![0, 5]);
        let rows = vec![vec![0, 1, 2, 3], vec![0, 1], vec![2]];
        let r = refine_partition(&sn, &rows);
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
        let r = refine_partition(&sn, &rows);
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
        let r = refine_partition(&sn, &rows);
        assert_eq!(total_blocks(&r.rows, &sn), 1);
    }
}
