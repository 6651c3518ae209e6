//! Assembly: scattering a supernode's update matrix into its ancestors.
//!
//! RL computes the full `r × r` (lower) update matrix `U = L₂₁ L₂₁ᵀ` of a
//! supernode and must *subtract* it from ancestor storage. Row/column `q`
//! of `U` corresponds to global index `rows[s][q]`; the target of column
//! `q` is the supernode containing that index, and every row below lands
//! at its relative index in the target's array (§II-A of the paper).
//!
//! The paper parallelizes these loops with OpenMP;
//! [`assemble_update_pool`] is the equivalent here, one job per target
//! supernode on a persistent [`ThreadPool`] (targets are disjoint arrays,
//! so no synchronization is needed). Its fan-out (`fan_out`) is the
//! one per-target fan-out of the crate: the RLB engines' staged strips
//! and direct updates go through it too.

use std::sync::atomic::{AtomicUsize, Ordering};

use rlchol_dense::pool::ThreadPool;
use rlchol_symbolic::relind::relative_indices_into;
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
    data: &mut [Vec<f64>],
    s: usize,
    upd: &[f64],
    r: usize,
    rel: &mut Vec<usize>,
) -> usize {
    let rows = &sym.rows[s];
    debug_assert_eq!(rows.len(), r);
    segments(sym, s)
        .map(|seg| scatter_segment(sym, &mut data[seg.target], seg, rows, upd, r, rel))
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

/// Fans one source supernode's per-target work out over `pool`, one job
/// per target. `units` pairs each target's index in `data` with its work
/// item in ascending target order, so progressive `split_at_mut` hands
/// every job a disjoint `&mut` array; the units are drawn on the calling
/// thread, in order. A single-lane pool or a single unit runs inline,
/// with no task boxing. Returns the sum of `work`'s counts (the entries
/// assembled).
///
/// Bit-exactness: each unit runs the same arithmetic in the same order
/// whichever lane takes it, and units write disjoint targets, so the
/// result equals the serial sweep's.
pub(crate) fn fan_out<U: Send>(
    pool: &ThreadPool,
    data: &mut [Vec<f64>],
    units: impl IntoIterator<Item = (usize, U)>,
    work: impl Fn(U, &mut [f64]) -> usize + Sync,
) -> usize {
    let mut units = units.into_iter().peekable();
    if pool.threads() <= 1 {
        return units.map(|(t, unit)| work(unit, &mut data[t])).sum();
    }
    let total = AtomicUsize::new(0);
    let (total_ref, work) = (&total, &work);
    let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
    let mut rest = data;
    let mut consumed = 0usize;
    while let Some((target, unit)) = units.next() {
        let (head, tail) = rest.split_at_mut(target - consumed + 1);
        let arr = head.last_mut().expect("nonempty split");
        rest = tail;
        consumed = target + 1;
        if tasks.is_empty() && units.peek().is_none() {
            return work(unit, arr);
        }
        tasks.push(Box::new(move || {
            total_ref.fetch_add(work(unit, arr), Ordering::Relaxed);
        }));
    }
    pool.run(tasks);
    total.into_inner()
}

/// Pool-parallel assembly: [`assemble_update`] with each target's
/// segment scattered by its own job on `pool` (`fan_out`), so host
/// assembly overlaps across cores without per-call thread spawns.
/// Bit-identical to the serial scatter — segments only move between
/// lanes.
pub fn assemble_update_pool(
    pool: &ThreadPool,
    sym: &SymbolicFactor,
    data: &mut [Vec<f64>],
    s: usize,
    upd: &[f64],
    r: usize,
) -> usize {
    let rows = &sym.rows[s];
    let units = segments(sym, s).map(|seg| (seg.target, seg));
    fan_out(pool, data, units, |seg, arr| {
        scatter_segment(sym, arr, seg, rows, upd, r, &mut Vec::new())
    })
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

    /// Source-independent test values for an `n`-entry buffer.
    fn pattern(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i * 13) % 11) as f64 * 0.3 - 1.0).collect()
    }

    /// The one fan-out on a real four-lane pool — whatever lane count the
    /// global pool has — against the serial sweep, bitwise and with equal
    /// counts, for each kind of per-target work: RL segments, RLB staged
    /// strips and RLB direct runs.
    #[test]
    fn pool_assembly_is_bit_identical_to_serial() {
        use crate::gpu_rlb::{apply_strip, scatter_strips, strips_of};
        use crate::rlb::{rlb_apply_run, rlb_target_runs, rlb_update_pool};

        let pool = ThreadPool::new(4);
        let (sym, ap) = fig1_sym();
        let mut multi_target = 0;
        for s in 0..sym.nsup() {
            let r = sym.rows[s].len();
            if r == 0 {
                continue;
            }
            multi_target += usize::from(segments(&sym, s).count() > 1);

            // RL: the update matrix scattered segment by segment.
            let upd = pattern(r * r);
            let mut d1 = FactorData::load(&sym, &ap);
            let mut d2 = d1.clone();
            let e1 = assemble_update(&sym, &mut d1.sn, s, &upd, r, &mut Vec::new());
            let e2 = assemble_update_pool(&pool, &sym, &mut d2.sn, s, &upd, r);
            assert_eq!(e1, e2, "RL supernode {s}");
            assert_eq!(d1, d2, "RL supernode {s} must match bitwise");

            // RLB staged strips, as the device engines land them.
            let blocks = &sym.blocks[s];
            let (strips, stage_len) = strips_of(blocks);
            let staged = pattern(stage_len);
            let mut d1 = FactorData::load(&sym, &ap);
            let mut d2 = d1.clone();
            let mut e1 = 0;
            for st in &strips {
                let host = &staged[st.stage_off..st.stage_off + st.m * st.n];
                e1 += apply_strip(&sym, &mut d1.sn[blocks[st.b1].target], blocks, st, host);
            }
            let e2 = scatter_strips(&pool, &sym, &mut d2.sn, blocks, &strips, &staged);
            assert_eq!(e1, e2, "strips supernode {s}");
            assert_eq!(d1, d2, "strips supernode {s} must match bitwise");

            // RLB direct runs, as the serial RLB sweep applies them.
            let mut d1 = FactorData::load(&sym, &ap);
            let mut d2 = d1.clone();
            let (mut ops1, mut ops2) = (Vec::new(), Vec::new());
            let (head, tail) = d1.sn.split_at_mut(s + 1);
            for run in rlb_target_runs(&sym, s) {
                let parr = &mut tail[run.target - s - 1];
                rlb_apply_run(&sym, s, &head[s], parr, &run, |op| ops1.push(*op));
            }
            rlb_update_pool(&pool, &sym, &mut d2.sn, s, |op| ops2.push(*op));
            assert_eq!(ops1, ops2, "direct supernode {s}");
            assert_eq!(d1, d2, "direct supernode {s} must match bitwise");
        }
        assert!(multi_target > 0, "fig1 has multi-target supernodes");
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
            let e = assemble_update(&sym, &mut d.sn, s, &upd, r, &mut Vec::new());
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
            assemble_update(&sym, &mut d.sn, s, &upd, r, &mut Vec::new());
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
        assemble_update(&sym, &mut d.sn, s, &upd, r, &mut Vec::new());
        let after = d.get(&sym, g, g);
        assert!((before - after - 10.0).abs() < 1e-14);
    }
}
