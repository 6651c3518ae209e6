//! Level-set (tree-parallel) triangular sweeps.
//!
//! Each level of the [`SolvePlan`] is dispatched onto the persistent
//! [`rlchol_dense::pool`] through its allocation-free
//! [`run_for`](rlchol_dense::pool::ThreadPool::run_for) parallel-for:
//! the level is cut into up to `threads` equal-cost chunks (boundaries
//! precomputed as prefix sums in the plan, resolved by binary search —
//! no per-call allocation), one task per chunk, and `run_for`'s
//! completion is the barrier before the next level. The sweeps are
//! therefore **zero-allocation** after pool warm-up, like the serial
//! path they replace.
//!
//! **Bit-identity.** A task writes only the solution entries of its own
//! supernodes' columns — the forward sweep *gathers* descendant
//! contributions (see [`super::plan`]) instead of scattering into
//! ancestors, and the backward sweep is a gather already — so writes
//! within a level are disjoint and no arithmetic is reassociated:
//! per entry, contributions apply in ascending source order, column by
//! column, exactly as [`super::serial`] applies them. Any thread count
//! (and any chunking) produces the serial bits.
//!
//! Safety: tasks share the right-hand-side block through a raw pointer
//! ([`SharedCols`]) because chunk tasks *read* entries finalized on
//! earlier levels while *writing* their own disjoint ranges — a borrow
//! the slice type system cannot express. The two invariants that make
//! it sound (disjoint writes within a level, reads only of
//! earlier-level entries, ordered by the `run_for` barrier) are
//! documented at each access site.

use rlchol_symbolic::SymbolicFactor;

use crate::storage::FactorData;

use super::plan::SolvePlan;

/// A column-major `n × nrhs` right-hand-side block shared across chunk
/// tasks of one level. All access goes through raw-pointer arithmetic so
/// concurrent tasks never materialize overlapping `&mut` slices.
#[derive(Clone, Copy)]
struct SharedCols {
    p: *mut f64,
    len: usize,
}

// SAFETY: the sweeps only hand a `SharedCols` to tasks whose writes are
// disjoint within a level (each supernode's columns belong to exactly
// one task) and whose reads target entries finalized before the level
// started (the `run_for` barrier provides the happens-before edge).
unsafe impl Send for SharedCols {}
unsafe impl Sync for SharedCols {}

impl SharedCols {
    /// # Safety
    /// `i < self.len`, and no concurrent task writes entry `i`.
    unsafe fn get(&self, i: usize) -> f64 {
        debug_assert!(i < self.len);
        *self.p.add(i)
    }

    /// # Safety
    /// `i < self.len`, and entry `i` belongs to the calling task's own
    /// supernode columns (no other task touches it this level).
    unsafe fn sub(&self, i: usize, v: f64) {
        debug_assert!(i < self.len);
        *self.p.add(i) -= v;
    }

    /// # Safety
    /// As for [`sub`](Self::sub).
    unsafe fn set(&self, i: usize, v: f64) {
        debug_assert!(i < self.len);
        *self.p.add(i) = v;
    }

    /// # Safety
    /// `[at, at + n)` is in bounds and owned exclusively by the calling
    /// task for the duration of the borrow.
    #[allow(clippy::mut_from_ref)]
    unsafe fn slice_mut(&self, at: usize, n: usize) -> &mut [f64] {
        debug_assert!(at + n <= self.len);
        std::slice::from_raw_parts_mut(self.p.add(at), n)
    }
}

/// Level-scheduled forward substitution `L Y = B` in place, for `nrhs`
/// column-major right-hand sides (`b.len() == n * nrhs`). Bit-identical
/// to [`super::serial::solve_forward`] (`nrhs == 1`) /
/// [`super::serial::solve_forward_multi`] at any `threads`.
pub fn solve_forward_level_set(
    sym: &SymbolicFactor,
    plan: &SolvePlan,
    f: &FactorData,
    b: &mut [f64],
    nrhs: usize,
    threads: usize,
) {
    let n = sym.n;
    assert_eq!(b.len(), n * nrhs);
    let threads = threads.max(1);
    let cols = SharedCols {
        p: b.as_mut_ptr(),
        len: b.len(),
    };
    let pool = rlchol_dense::pool::global();
    for l in 0..plan.num_levels() {
        let level = plan.level(l);
        let k = level.len().min(threads);
        if k <= 1 {
            for &s in level {
                // SAFETY: single task this level — trivially exclusive.
                unsafe { forward_supernode(sym, plan, f, &cols, n, nrhs, s) };
            }
        } else {
            pool.run_for(k, &|j| {
                let (lo, hi) = plan.chunk_bounds(l, j, k);
                for pos in lo..hi {
                    // SAFETY: chunk bounds partition the level, so this
                    // task exclusively owns its supernodes' columns;
                    // gathered reads touch levels < l only.
                    unsafe { forward_supernode(sym, plan, f, &cols, n, nrhs, plan.order()[pos]) };
                }
            });
        }
    }
}

/// Level-scheduled backward substitution `Lᵀ X = Y` in place (levels
/// descending — roots first). Bit-identical to
/// [`super::serial::solve_backward`] /
/// [`super::serial::solve_backward_multi`] at any `threads`.
pub fn solve_backward_level_set(
    sym: &SymbolicFactor,
    plan: &SolvePlan,
    f: &FactorData,
    b: &mut [f64],
    nrhs: usize,
    threads: usize,
) {
    let n = sym.n;
    assert_eq!(b.len(), n * nrhs);
    let threads = threads.max(1);
    let cols = SharedCols {
        p: b.as_mut_ptr(),
        len: b.len(),
    };
    let pool = rlchol_dense::pool::global();
    for l in (0..plan.num_levels()).rev() {
        let level = plan.level(l);
        let k = level.len().min(threads);
        if k <= 1 {
            for &s in level {
                // SAFETY: single task this level — trivially exclusive.
                unsafe { backward_supernode(sym, f, &cols, n, nrhs, s) };
            }
        } else {
            pool.run_for(k, &|j| {
                let (lo, hi) = plan.chunk_bounds(l, j, k);
                for pos in lo..hi {
                    // SAFETY: disjoint own-column writes within the
                    // level; ancestor reads were finalized on levels
                    // > l, sequenced by the run_for barrier.
                    unsafe { backward_supernode(sym, f, &cols, n, nrhs, plan.order()[pos]) };
                }
            });
        }
    }
}

/// Forward step of one supernode: gather descendant contributions
/// (ascending source, replicating the serial scatter order entry for
/// entry), then the dense triangular solve on the diagonal block.
///
/// # Safety
/// The caller guarantees exclusive ownership of `s`'s column entries in
/// `cols` and that all of `s`'s descendants finished earlier levels.
unsafe fn forward_supernode(
    sym: &SymbolicFactor,
    plan: &SolvePlan,
    f: &FactorData,
    cols: &SharedCols,
    n: usize,
    nrhs: usize,
    s: usize,
) {
    let first = sym.sn.first_col(s);
    let c = sym.sn_ncols(s);
    let len = sym.sn_len(s);
    for seg in plan.incoming(s) {
        let d = seg.src;
        let dfirst = sym.sn.first_col(d);
        let dc = sym.sn_ncols(d);
        let dlen = sym.sn_len(d);
        let darr = &f.sn[d];
        let drows = &sym.rows[d];
        for rhs in 0..nrhs {
            let off = rhs * n;
            for lc in 0..dc {
                let yj = cols.get(off + dfirst + lc);
                if yj == 0.0 {
                    continue;
                }
                let col = &darr[lc * dlen + dc..(lc + 1) * dlen];
                for pos in seg.lo..seg.hi {
                    let v = col[pos];
                    if v != 0.0 {
                        cols.sub(off + drows[pos], v * yj);
                    }
                }
            }
        }
    }
    let arr = &f.sn[s];
    for rhs in 0..nrhs {
        let own = cols.slice_mut(rhs * n + first, c);
        rlchol_dense::trsv_ln(c, arr, len, own);
    }
}

/// Backward step of one supernode — the serial per-supernode body
/// verbatim: writes its own columns, reads finished ancestors.
///
/// # Safety
/// The caller guarantees exclusive ownership of `s`'s column entries in
/// `cols` and that all of `s`'s ancestors finished earlier (higher)
/// levels.
unsafe fn backward_supernode(
    sym: &SymbolicFactor,
    f: &FactorData,
    cols: &SharedCols,
    n: usize,
    nrhs: usize,
    s: usize,
) {
    let first = sym.sn.first_col(s);
    let c = sym.sn_ncols(s);
    let len = sym.sn_len(s);
    let arr = &f.sn[s];
    let rows = &sym.rows[s];
    for rhs in 0..nrhs {
        let off = rhs * n;
        for lc in (0..c).rev() {
            let col = &arr[lc * len..(lc + 1) * len];
            let mut acc = cols.get(off + first + lc);
            for li in lc + 1..c {
                acc -= col[li] * cols.get(off + first + li);
            }
            for (pos, &v) in col[c..].iter().enumerate() {
                if v != 0.0 {
                    acc -= v * cols.get(off + rows[pos]);
                }
            }
            cols.set(off + first + lc, acc / col[lc]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::serial;
    use super::*;
    use crate::fresh::factor_rl_cpu;
    use rlchol_matgen::{grid3d, Stencil};
    use rlchol_ordering::{order, OrderingMethod};
    use rlchol_symbolic::{analyze, SymbolicOptions};

    #[test]
    fn level_set_sweeps_match_serial_bitwise() {
        let a0 = grid3d(6, 6, 5, Stencil::Star7, 1, 17);
        let fill = order(&a0, OrderingMethod::NestedDissection);
        let af = a0.permute(&fill);
        let sym = analyze(&af, &SymbolicOptions::default());
        let ap = af.permute(&sym.perm);
        let run = factor_rl_cpu(&sym, &ap).unwrap();
        let plan = SolvePlan::build(&sym);
        assert!(plan.max_width() > 1, "need parallel width to test");
        let n = sym.n;
        for nrhs in [1usize, 3] {
            let b: Vec<f64> = (0..n * nrhs)
                .map(|i| ((i * 23) % 19) as f64 - 9.0)
                .collect();
            let mut reference = b.clone();
            serial::solve_forward_multi(&sym, &run.factor, &mut reference, nrhs);
            serial::solve_backward_multi(&sym, &run.factor, &mut reference, nrhs);
            for threads in [1usize, 2, 4, 8] {
                let mut x = b.clone();
                solve_forward_level_set(&sym, &plan, &run.factor, &mut x, nrhs, threads);
                solve_backward_level_set(&sym, &plan, &run.factor, &mut x, nrhs, threads);
                assert_eq!(x, reference, "threads {threads} nrhs {nrhs}");
            }
        }
    }
}
