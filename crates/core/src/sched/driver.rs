//! The engine-agnostic update sequencer.
//!
//! A supernode is *ready* when every descendant that updates it has
//! applied its update. [`Sequencer`] owns exactly that state, with its
//! order: every target's updaters in ascending source order, and a
//! cursor at the next one to apply. An executor that applies an update
//! into `t` only when `t`'s cursor reaches its source performs every
//! target's subtractions in the serial sweep's order, so its factor is
//! bit-identical to the sweep's whatever runs when. The sequencer knows
//! nothing of threads, locks or devices: the CPU tree executor
//! ([`super::cpu`]) keeps it under its one lock; the GPU executor
//! ([`super::gpu`]) advances it from a single issue loop.

use rlchol_symbolic::SymbolicFactor;

/// Distinct target supernodes of `s`'s updates, in ascending order.
/// Rows of one target are contiguous in the sorted row list, so
/// deduplicating consecutive targets is exact.
pub fn distinct_targets(sym: &SymbolicFactor, s: usize, out: &mut Vec<usize>) {
    out.clear();
    for &row in &sym.rows[s] {
        let p = sym.sn.col_to_sn[row];
        if out.last() != Some(&p) {
            out.push(p);
        }
    }
}

/// Every target's updaters in ascending source order (CSR), with one
/// cursor per target at its next unapplied update.
pub struct Sequencer {
    /// `list[ptr[t]..ptr[t + 1]]` are `t`'s updaters, ascending.
    ptr: Vec<usize>,
    list: Vec<usize>,
    /// Updates applied into each target so far.
    cursor: Vec<usize>,
}

impl Sequencer {
    /// Builds the updater lists from the symbolic structure; every
    /// cursor starts at its target's first updater.
    pub fn new(sym: &SymbolicFactor) -> Self {
        let nsup = sym.nsup();
        let mut ptr = vec![0usize; nsup + 1];
        let mut targets = Vec::new();
        for s in 0..nsup {
            distinct_targets(sym, s, &mut targets);
            for &p in &targets {
                ptr[p + 1] += 1;
            }
        }
        for p in 0..nsup {
            ptr[p + 1] += ptr[p];
        }
        // Visiting sources in ascending order makes each list ascend.
        let mut fill = ptr.clone();
        let mut list = vec![0usize; ptr[nsup]];
        for s in 0..nsup {
            distinct_targets(sym, s, &mut targets);
            for &p in &targets {
                list[fill[p]] = s;
                fill[p] += 1;
            }
        }
        Sequencer {
            ptr,
            list,
            cursor: vec![0; nsup],
        }
    }

    /// The source whose update `target` takes next; `None` once every
    /// update into it has been applied (it is ready to factor).
    pub fn next(&self, target: usize) -> Option<usize> {
        let at = self.ptr[target] + self.cursor[target];
        (at < self.ptr[target + 1]).then(|| self.list[at])
    }

    /// The supernodes no update goes into (the forest's leaves),
    /// ascending: ready from the start.
    pub fn leaves(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.cursor.len()).filter(|&t| self.ptr[t] == self.ptr[t + 1])
    }

    /// Records that `target`'s next update has been applied; returns
    /// whether that was its last (it is ready now).
    pub fn advance(&mut self, target: usize) -> bool {
        debug_assert!(self.next(target).is_some(), "{target} has no update left");
        self.cursor[target] += 1;
        self.next(target).is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assemble::segments;
    use rlchol_matgen::{grid3d, Stencil};
    use rlchol_symbolic::{analyze, SymbolicOptions};

    #[test]
    fn dep_counts_match_segments() {
        let a = grid3d(6, 5, 4, Stencil::Star7, 1, 9);
        let sym = analyze(&a, &SymbolicOptions::default());
        let mut targets = Vec::new();
        for s in 0..sym.nsup() {
            distinct_targets(&sym, s, &mut targets);
            let segs: Vec<_> = segments(&sym, s).collect();
            assert_eq!(targets.len(), segs.len(), "supernode {s}");
            for (t, seg) in targets.iter().zip(&segs) {
                assert_eq!(*t, seg.target);
            }
        }
    }

    #[test]
    fn releases_drain_to_every_supernode_exactly_once() {
        // Simulate retirement in ascending order: every supernode must
        // become ready exactly once, and before its own retirement.
        let a = grid3d(5, 5, 5, Stencil::Star7, 1, 4);
        let sym = analyze(&a, &SymbolicOptions::default());
        let mut seq = Sequencer::new(&sym);
        let mut became_ready = vec![false; sym.nsup()];
        for s in seq.leaves().collect::<Vec<_>>() {
            became_ready[s] = true;
        }
        let mut targets = Vec::new();
        for s in 0..sym.nsup() {
            assert!(became_ready[s], "supernode {s} retired before ready");
            distinct_targets(&sym, s, &mut targets);
            for &p in &targets {
                if seq.advance(p) {
                    assert!(!became_ready[p], "supernode {p} released twice");
                    became_ready[p] = true;
                }
            }
        }
        assert!(became_ready.iter().all(|&b| b));
    }

    #[test]
    fn sequencer_walks_each_target_through_its_updaters_ascending() {
        let a = grid3d(5, 4, 6, Stencil::Star7, 1, 2);
        let sym = analyze(&a, &SymbolicOptions::default());
        let mut seq = Sequencer::new(&sym);
        let mut expected = vec![Vec::new(); sym.nsup()];
        let mut targets = Vec::new();
        for s in 0..sym.nsup() {
            distinct_targets(&sym, s, &mut targets);
            for &p in &targets {
                expected[p].push(s);
            }
        }
        for (t, updaters) in expected.iter().enumerate() {
            for &s in updaters {
                assert_eq!(seq.next(t), Some(s), "target {t}");
                seq.advance(t);
            }
            assert_eq!(seq.next(t), None, "target {t} is ready");
        }
    }
}
