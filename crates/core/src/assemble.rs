//! Assembly: scattering a supernode's update matrix into its ancestors.
//!
//! RL computes the full `r × r` (lower) update matrix `U = L₂₁ L₂₁ᵀ` of a
//! supernode and must *subtract* it from ancestor storage. Row/column `q`
//! of `U` corresponds to global index `rows[s][q]`; the target of column
//! `q` is the supernode containing that index, and every row below lands
//! at its relative index in the target's array (§II-A of the paper).
//!
//! The paper parallelizes these loops with OpenMP; [`assemble_update_par`]
//! is the equivalent scoped-thread version, splitting work by target
//! supernode (targets are disjoint arrays, so no synchronization is
//! needed).

use rlchol_symbolic::relind::relative_indices;
use rlchol_symbolic::SymbolicFactor;

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

pub(crate) fn segments(sym: &SymbolicFactor, s: usize) -> Vec<Segment> {
    let rows = &sym.rows[s];
    let mut out = Vec::new();
    let mut k = 0;
    while k < rows.len() {
        let target = sym.sn.col_to_sn[rows[k]];
        let end = sym.sn.end_col(target);
        let hi = rows.partition_point(|&r| r < end);
        out.push(Segment { lo: k, hi, target });
        k = hi;
    }
    out
}

/// Scatters `-U` into the ancestors of supernode `s`. `upd` is the
/// `r × r` column-major update matrix (only the lower triangle is read).
/// Returns the number of entries assembled (the trace metric).
pub fn assemble_update(
    sym: &SymbolicFactor,
    data: &mut [Vec<f64>],
    s: usize,
    upd: &[f64],
    r: usize,
) -> usize {
    let rows = &sym.rows[s];
    debug_assert_eq!(rows.len(), r);
    let mut entries = 0usize;
    for seg in segments(sym, s) {
        entries += scatter_segment(sym, &mut data[seg.target], seg, rows, upd, r);
    }
    entries
}

/// Scatters one segment into its (already borrowed) target array.
pub(crate) fn scatter_segment(
    sym: &SymbolicFactor,
    target_arr: &mut [f64],
    seg: Segment,
    rows: &[usize],
    upd: &[f64],
    r: usize,
) -> usize {
    let p = seg.target;
    let first = sym.sn.first_col(p);
    let ncols = sym.sn_ncols(p);
    let len = sym.sn_len(p);
    // Relative indices of ALL update rows from `lo` on (they all appear in
    // the target's index list — see module docs in rlchol-symbolic).
    let rel = relative_indices(&rows[seg.lo..], first, ncols, &sym.rows[p]);
    let mut entries = 0usize;
    for jj in seg.lo..seg.hi {
        let tcol = rows[jj] - first;
        let dst = &mut target_arr[tcol * len..(tcol + 1) * len];
        let ucol = &upd[jj * r..(jj + 1) * r];
        for ii in jj..r {
            dst[rel[ii - seg.lo]] -= ucol[ii];
        }
        entries += r - jj;
    }
    entries
}

/// Pool-parallel assembly: each target supernode's segment is scattered
/// by a job on the persistent [`rlchol_dense::pool`], so the GPU engines'
/// host-side assembly overlaps across cores without per-call thread
/// spawns. Targets appear in increasing order, so progressive
/// `split_at_mut` hands each job a disjoint `&mut` array.
///
/// Bit-exactness: every entry is written by exactly the same subtraction,
/// in the same per-segment order, as [`assemble_update`] — segments only
/// move between lanes, so the result is bit-identical to the serial
/// scatter.
pub fn assemble_update_pool(
    sym: &SymbolicFactor,
    data: &mut [Vec<f64>],
    s: usize,
    upd: &[f64],
    r: usize,
) -> usize {
    let segs = segments(sym, s);
    if rlchol_dense::pool::global().threads() <= 1 || segs.len() <= 1 {
        return assemble_update(sym, data, s, upd, r);
    }
    let rows = &sym.rows[s];
    let total: std::sync::atomic::AtomicUsize = 0.into();
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(segs.len());
    let mut rest: &mut [Vec<f64>] = data;
    let mut consumed = 0usize;
    for seg in &segs {
        let (head, tail) = rest.split_at_mut(seg.target - consumed + 1);
        let target_arr = head.last_mut().expect("nonempty split");
        rest = tail;
        consumed = seg.target + 1;
        let total = &total;
        let seg = *seg;
        tasks.push(Box::new(move || {
            let e = scatter_segment(sym, target_arr, seg, rows, upd, r);
            total.fetch_add(e, std::sync::atomic::Ordering::Relaxed);
        }));
    }
    rlchol_dense::pool::global().run(tasks);
    total.into_inner()
}

/// Parallel assembly: each target supernode's segment is scattered by a
/// scoped thread. Targets appear in increasing order, so progressive
/// `split_at_mut` hands each thread a disjoint `&mut` array.
pub fn assemble_update_par(
    sym: &SymbolicFactor,
    data: &mut [Vec<f64>],
    s: usize,
    upd: &[f64],
    r: usize,
    threads: usize,
) -> usize {
    let segs = segments(sym, s);
    if threads <= 1 || segs.len() <= 1 {
        return assemble_update(sym, data, s, upd, r);
    }
    let rows = &sym.rows[s];
    let total: std::sync::atomic::AtomicUsize = 0.into();
    std::thread::scope(|scope| {
        let mut rest: &mut [Vec<f64>] = data;
        let mut consumed = 0usize;
        for seg in &segs {
            let (head, tail) = rest.split_at_mut(seg.target - consumed + 1);
            let target_arr = head.last_mut().expect("nonempty split");
            rest = tail;
            consumed = seg.target + 1;
            let total = &total;
            let seg = *seg;
            scope.spawn(move || {
                let e = scatter_segment(sym, target_arr, seg, rows, upd, r);
                total.fetch_add(e, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });
    total.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::FactorData;
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
    fn serial_and_parallel_assembly_agree() {
        let (sym, ap) = fig1_sym();
        // Pick the first supernode with >= 2 targets.
        let s = (0..sym.nsup())
            .find(|&s| {
                let segs = super::segments(&sym, s);
                segs.len() >= 2
            })
            .expect("fig1 has multi-target supernodes");
        let r = sym.rows[s].len();
        let upd: Vec<f64> = (0..r * r).map(|i| (i % 7) as f64 + 0.5).collect();
        let mut d1 = FactorData::load(&sym, &ap);
        let mut d2 = d1.clone();
        let e1 = assemble_update(&sym, &mut d1.sn, s, &upd, r);
        let e2 = assemble_update_par(&sym, &mut d2.sn, s, &upd, r, 4);
        assert_eq!(e1, e2);
        assert_eq!(d1, d2);
    }

    #[test]
    fn pool_assembly_is_bit_identical_to_serial() {
        let (sym, ap) = fig1_sym();
        for s in 0..sym.nsup() {
            let r = sym.rows[s].len();
            if r == 0 {
                continue;
            }
            let upd: Vec<f64> = (0..r * r)
                .map(|i| ((i * 13) % 11) as f64 * 0.3 - 1.0)
                .collect();
            let mut d1 = FactorData::load(&sym, &ap);
            let mut d2 = d1.clone();
            let e1 = assemble_update(&sym, &mut d1.sn, s, &upd, r);
            let e2 = assemble_update_pool(&sym, &mut d2.sn, s, &upd, r);
            assert_eq!(e1, e2, "supernode {s}");
            assert_eq!(d1, d2, "supernode {s} must match bitwise");
        }
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
            let e = assemble_update(&sym, &mut d.sn, s, &upd, r);
            assert_eq!(e, r * (r + 1) / 2, "supernode {s}");
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
            assemble_update(&sym, &mut d.sn, s, &upd, r);
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
        assemble_update(&sym, &mut d.sn, s, &upd, r);
        let after = d.get(&sym, g, g);
        assert!((before - after - 10.0).abs() < 1e-14);
    }
}
