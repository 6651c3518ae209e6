//! Assembly: scattering a supernode's update matrix into its ancestors.
//!
//! RL computes the full `r × r` (lower) update matrix `U = L₂₁ L₂₁ᵀ` of a
//! supernode and must *subtract* it from ancestor storage. Row/column `q`
//! of `U` corresponds to global index `rows[s][q]`; the target of column
//! `q` is the supernode containing that index, and every row below lands
//! at its relative index in the target's array (§II-A of the paper).
//!
//! The paper parallelizes these loops with OpenMP; here one segment
//! (the columns aimed at one target) is the CPU tree executor's *apply*
//! unit, and targets are disjoint arrays, so segments of different
//! targets run on different lanes with no synchronization.

use rlchol_symbolic::relind::relative_indices_into;
use rlchol_symbolic::SymbolicFactor;

use crate::storage::FactorData;

/// One contiguous run of update columns aimed at a single target.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Segment {
    /// First update-row position of the segment.
    pub(crate) lo: usize,
    /// One past the last update-row position.
    pub(crate) hi: usize,
    /// Target supernode.
    pub(crate) target: usize,
}

impl Segment {
    /// Entries a scatter of this segment of an `r × r` update matrix
    /// subtracts: update column `jj` from its row `jj` down.
    pub(crate) fn entries(&self, r: usize) -> usize {
        (self.lo..self.hi).map(|jj| r - jj).sum()
    }
}

/// Supernode `s`'s segments in ascending target order. Allocation-free:
/// the iterator walks the sorted row list, as `rlb_target_runs` walks the
/// block list.
pub(crate) fn segments(sym: &SymbolicFactor, s: usize) -> impl Iterator<Item = Segment> + '_ {
    let rows = &sym.rows[s];
    let mut k = 0;
    std::iter::from_fn(move || {
        if k >= rows.len() {
            return None;
        }
        let target = sym.sn.col_to_sn[rows[k]];
        let end = sym.sn.end_col(target);
        let hi = k + rows[k..].partition_point(|&r| r < end);
        let seg = Segment { lo: k, hi, target };
        k = hi;
        Some(seg)
    })
}

/// The segment of supernode `s`'s update aimed at `target`, which must
/// be one of `s`'s targets.
pub(crate) fn segment_to(sym: &SymbolicFactor, s: usize, target: usize) -> Segment {
    let rows = &sym.rows[s];
    let lo = rows.partition_point(|&r| r < sym.sn.first_col(target));
    let hi = lo + rows[lo..].partition_point(|&r| r < sym.sn.end_col(target));
    debug_assert!(lo < hi, "supernode {target} is not a target of {s}");
    Segment { lo, hi, target }
}

/// Scatters `-U` into the ancestors of supernode `s`. `upd` is the
/// `r × r` column-major update matrix (only the lower triangle is read);
/// `rel` is relative-index scratch. Returns the number of entries
/// assembled (the trace metric).
pub fn assemble_update(
    sym: &SymbolicFactor,
    data: &mut FactorData,
    s: usize,
    upd: &[f64],
    r: usize,
    rel: &mut Vec<usize>,
) -> usize {
    let rows = &sym.rows[s];
    debug_assert_eq!(rows.len(), r);
    segments(sym, s)
        .map(|seg| scatter_segment(sym, data.sn_mut(sym, seg.target), seg, rows, upd, r, rel))
        .sum()
}

/// Scatters one segment into its (already borrowed) target array, with
/// `rel` as relative-index scratch (no allocation once it has grown).
pub(crate) fn scatter_segment(
    sym: &SymbolicFactor,
    target_arr: &mut [f64],
    seg: Segment,
    rows: &[usize],
    upd: &[f64],
    r: usize,
    rel: &mut Vec<usize>,
) -> usize {
    let p = seg.target;
    let first = sym.sn.first_col(p);
    let ncols = sym.sn_ncols(p);
    let len = sym.sn_len(p);
    // Relative indices of ALL update rows from `lo` on (they all appear in
    // the target's index list — see module docs in rlchol-symbolic).
    relative_indices_into(&rows[seg.lo..], first, ncols, &sym.rows[p], rel);
    let mut entries = 0usize;
    for jj in seg.lo..seg.hi {
        let tcol = rows[jj] - first;
        let dst = &mut target_arr[tcol * len..(tcol + 1) * len];
        // Rows jj..r of update column jj.
        let ucol = &upd[jj * r + jj..(jj + 1) * r];
        for (&at, &u) in rel[jj - seg.lo..].iter().zip(ucol) {
            dst[at] -= u;
        }
        entries += r - jj;
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlchol_sparse::{SymCsc, TripletMatrix};
    use rlchol_symbolic::supernodes::paper_fig1_edges;
    use rlchol_symbolic::{analyze, SymbolicOptions};

    fn fig1_sym() -> (SymbolicFactor, SymCsc) {
        let mut t = TripletMatrix::new(15, 15);
        for j in 0..15 {
            t.push(j, j, 4.0);
        }
        for (i, j) in paper_fig1_edges() {
            t.push(i, j, -1.0);
        }
        let a = SymCsc::from_lower_triplets(&t).unwrap();
        let opts = SymbolicOptions {
            merge: false,
            partition_refine: false,
            ..SymbolicOptions::default()
        };
        let sym = analyze(&a, &opts);
        let ap = a.permute(&sym.perm);
        (sym, ap)
    }

    #[test]
    fn entries_count_is_lower_triangle() {
        let (sym, ap) = fig1_sym();
        let mut d = FactorData::load(&sym, &ap);
        for s in 0..sym.nsup() {
            let r = sym.rows[s].len();
            if r == 0 {
                continue;
            }
            let upd = vec![0.0; r * r];
            let e = assemble_update(&sym, &mut d, s, &upd, r, &mut Vec::new());
            assert_eq!(e, r * (r + 1) / 2, "supernode {s}");
            let by_segment: usize = segments(&sym, s).map(|seg| seg.entries(r)).sum();
            assert_eq!(by_segment, e, "supernode {s}");
        }
    }

    #[test]
    fn zero_update_is_identity() {
        let (sym, ap) = fig1_sym();
        let mut d = FactorData::load(&sym, &ap);
        let before = d.clone();
        for s in 0..sym.nsup() {
            let r = sym.rows[s].len();
            let upd = vec![0.0; r * r];
            assemble_update(&sym, &mut d, s, &upd, r, &mut Vec::new());
        }
        assert_eq!(d, before);
    }

    #[test]
    fn scatter_hits_expected_cells() {
        let (sym, ap) = fig1_sym();
        // Supernode containing original column 0 (J1): rows {5,6,13}
        // pre-permutation; after analyze's internal postorder the indices
        // move, so identify J1 as the supernode whose first column is the
        // image of column 0.
        let j1_col = sym.perm.new_of(0);
        let s = sym.sn.col_to_sn[j1_col];
        let r = sym.rows[s].len();
        assert_eq!(r, 3, "J1 keeps three below-diagonal rows");
        let mut upd = vec![0.0; r * r];
        // U[0,0] = 10 targets (rows[0], rows[0]).
        upd[0] = 10.0;
        let mut d = FactorData::load(&sym, &ap);
        let g = sym.rows[s][0];
        let before = d.get(&sym, g, g);
        assemble_update(&sym, &mut d, s, &upd, r, &mut Vec::new());
        let after = d.get(&sym, g, g);
        assert!((before - after - 10.0).abs() < 1e-14);
    }
}
