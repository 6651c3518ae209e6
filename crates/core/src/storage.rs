//! Supernodal factor storage.
//!
//! Each supernode `s` with `c` columns and `r` below-diagonal rows is one
//! dense column-major array of `len × c` doubles (`len = c + r`), exactly
//! as in the paper ("a supernode is stored in a dense array", §II-A —
//! e.g. J1 in a 5×2 array). Row `0..c` of the array is the (lower)
//! triangular diagonal block; rows `c..len` are indexed by the
//! supernode's `rows` list.
//!
//! The arrays lie end to end in one `Vec<f64>`, supernode `s` at
//! [`SymbolicFactor::sn_ptr`]`[s]..sn_ptr[s + 1]` (CHOLMOD's supernodal
//! `x` and `px`). Only this module slices it: [`FactorData::sn`] gives
//! one supernode's array, `FactorData::split_source` a source panel
//! with disjoint arrays of its targets, for every update fan-out.

use rlchol_sparse::SymCsc;
use rlchol_symbolic::SymbolicFactor;

/// The numeric values of a supernodal factor (structure lives in
/// [`SymbolicFactor`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FactorData {
    /// Every supernode's dense column-major array, end to end; leading
    /// dimension of each is its supernode length.
    values: Vec<f64>,
}

impl FactorData {
    /// Allocates zeroed storage for all supernodes.
    pub fn zeros(sym: &SymbolicFactor) -> Self {
        let values = vec![0.0f64; sym.sn_ptr[sym.nsup()]];
        FactorData { values }
    }

    /// Loads the values of `a` (already permuted into factor order) into
    /// supernodal storage; entries outside `A`'s pattern stay zero.
    pub fn load(sym: &SymbolicFactor, a: &SymCsc) -> Self {
        assert_eq!(a.n(), sym.n);
        let mut f = FactorData::zeros(sym);
        for j in 0..a.n() {
            for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
                let off = FactorData::slot(sym, i, j).expect("A entry outside factor pattern");
                f.values[off] = v;
            }
        }
        f
    }

    /// True when this storage has `sym`'s length, so it can hold a
    /// factorization of `sym`.
    pub fn shape_matches(&self, sym: &SymbolicFactor) -> bool {
        self.values.len() == sym.sn_ptr[sym.nsup()]
    }

    /// All stored entries, supernode after supernode.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// All stored entries, mutably.
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Supernode `s`'s dense column-major array.
    pub fn sn(&self, sym: &SymbolicFactor, s: usize) -> &[f64] {
        &self.values[sym.sn_ptr[s]..sym.sn_ptr[s + 1]]
    }

    /// Supernode `s`'s dense column-major array, mutably.
    pub fn sn_mut(&mut self, sym: &SymbolicFactor, s: usize) -> &mut [f64] {
        &mut self.values[sym.sn_ptr[s]..sym.sn_ptr[s + 1]]
    }

    /// Source supernode `s`'s array, read-only, and the arrays above it,
    /// handed out one ascending target at a time by [`Targets::take`]:
    /// updates go from a supernode to its ancestors, all above it.
    pub(crate) fn split_source<'a>(
        &'a mut self,
        sym: &'a SymbolicFactor,
        s: usize,
    ) -> (&'a [f64], Targets<'a>) {
        let (head, rest) = self.values.split_at_mut(sym.sn_ptr[s + 1]);
        let (sn_ptr, next) = (&sym.sn_ptr[..], s + 1);
        (&head[sym.sn_ptr[s]..], Targets { sn_ptr, rest, next })
    }

    /// Where entry `L[i, j]` (global indices, `i >= j`) is stored: its
    /// offset in [`values`](Self::values), or `None` when it lies outside
    /// the supernodal pattern.
    pub fn slot(sym: &SymbolicFactor, i: usize, j: usize) -> Option<usize> {
        let s = sym.sn.col_to_sn[j];
        let first = sym.sn.first_col(s);
        let end = sym.sn.end_col(s);
        let lr = if i < end {
            i - first
        } else {
            end - first + sym.rows[s].binary_search(&i).ok()?
        };
        Some(sym.sn_ptr[s] + (j - first) * sym.sn_len(s) + lr)
    }

    /// Entry `L[i, j]` (global indices, `i >= j`); zero when outside the
    /// supernodal pattern.
    pub fn get(&self, sym: &SymbolicFactor, i: usize, j: usize) -> f64 {
        FactorData::slot(sym, i, j).map_or(0.0, |off| self.values[off])
    }

    /// Maximum relative elementwise difference against another factor
    /// with the same structure (used to compare engines); NaN when any
    /// entry of either is NaN.
    pub fn max_rel_diff(&self, other: &FactorData) -> f64 {
        let rel = |(&x, &y): (&f64, &f64)| (x - y).abs() / x.abs().max(y.abs()).max(1.0);
        let pairs = self.values.iter().zip(&other.values);
        pairs.map(rel).fold(0.0, max_nan)
    }

    /// Every column `j` of the factor, in order, as `(j, entries)`: its
    /// stored `(global row, value)` pairs from the diagonal down.
    fn columns<'a>(
        &'a self,
        sym: &'a SymbolicFactor,
    ) -> impl Iterator<Item = (usize, impl Iterator<Item = (usize, f64)> + 'a)> + 'a {
        (0..sym.nsup()).flat_map(move |s| {
            let (first, c, len) = (sym.sn.first_col(s), sym.sn_ncols(s), sym.sn_len(s));
            let arr = self.sn(sym, s);
            (0..c).map(move |lc| {
                let rows = (first + lc..first + c).chain(sym.rows[s].iter().copied());
                let col = arr[lc * len + lc..(lc + 1) * len].iter().copied();
                (first + lc, rows.zip(col))
            })
        })
    }

    /// `y = Lᵀ x` over the supernodal structure.
    pub fn lt_matvec(&self, sym: &SymbolicFactor, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), sym.n);
        let mut y = vec![0.0f64; sym.n];
        for (j, col) in self.columns(sym) {
            y[j] = col
                .filter(|&(_, v)| v != 0.0)
                .fold(0.0, |acc, (i, v)| acc + v * x[i]);
        }
        y
    }

    /// `z = L y` over the supernodal structure.
    pub fn l_matvec(&self, sym: &SymbolicFactor, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), sym.n);
        let mut z = vec![0.0f64; sym.n];
        for (j, col) in self.columns(sym) {
            if y[j] != 0.0 {
                for (i, v) in col.filter(|&(_, v)| v != 0.0) {
                    z[i] += v * y[j];
                }
            }
        }
        z
    }

    /// Probabilistic reconstruction residual:
    /// `max_trials ‖A x − L(Lᵀ x)‖∞ / (‖A‖_max · ‖x‖₁)` over seeded random
    /// vectors — an O(nnz)-per-trial check suitable for large matrices.
    /// NaN when the factor (or `a`) holds a NaN that reaches the product.
    pub fn residual(&self, sym: &SymbolicFactor, a: &SymCsc, trials: usize) -> f64 {
        let n = sym.n;
        let mut amax = 0.0f64;
        for v in a.values() {
            amax = amax.max(v.abs());
        }
        let mut worst = 0.0f64;
        // Simple deterministic pseudo-random vectors (xorshift), avoiding
        // an extra dependency in this hot path.
        let mut state = 0x243f6a8885a308d3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for _ in 0..trials.max(1) {
            let x: Vec<f64> = (0..n).map(|_| next()).collect();
            let x1: f64 = x.iter().map(|v| v.abs()).sum();
            let mut ax = vec![0.0; n];
            a.matvec(&x, &mut ax);
            let llx = self.l_matvec(sym, &self.lt_matvec(sym, &x));
            let err = ax
                .iter()
                .zip(&llx)
                .fold(0.0f64, |m, (&p, &q)| max_nan(m, (p - q).abs()));
            worst = max_nan(worst, err / (amax.max(1e-300) * x1.max(1e-300)));
        }
        worst
    }
}

/// The arrays above a source supernode ([`FactorData::split_source`]).
/// Each [`take`](Self::take) hands out a `&mut` array disjoint from the
/// source panel and from every array taken before.
pub(crate) struct Targets<'a> {
    sn_ptr: &'a [usize],
    /// Storage from supernode `next` on: what is left to hand out.
    rest: &'a mut [f64],
    /// The lowest supernode that may still be taken.
    next: usize,
}

impl<'a> Targets<'a> {
    /// Supernode `t`'s array. Panics unless `t` is above the source and
    /// every target taken before.
    #[track_caller]
    pub(crate) fn take(&mut self, t: usize) -> &'a mut [f64] {
        assert!(
            t >= self.next,
            "target {t} is not above the source and earlier targets"
        );
        let skip = self.sn_ptr[t] - self.sn_ptr[self.next];
        let len = self.sn_ptr[t + 1] - self.sn_ptr[t];
        let (arr, rest) = std::mem::take(&mut self.rest)[skip..].split_at_mut(len);
        (self.rest, self.next) = (rest, t + 1);
        arr
    }
}

/// `a.max(b)`, except that a NaN on either side wins: `f64::max` returns
/// the other operand, which would let a NaN factor compare as exact.
fn max_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.max(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlchol_sparse::TripletMatrix;
    use rlchol_symbolic::{analyze, SymbolicOptions};

    fn small_spd() -> SymCsc {
        // 5x5 SPD with an arrow-ish pattern.
        let mut t = TripletMatrix::new(5, 5);
        for j in 0..5 {
            t.push(j, j, 8.0 + j as f64);
        }
        t.push(1, 0, -1.0);
        t.push(4, 0, -2.0);
        t.push(3, 2, -1.5);
        t.push(4, 3, -0.5);
        SymCsc::from_lower_triplets(&t).unwrap()
    }

    #[test]
    fn load_round_trips_entries() {
        let a = small_spd();
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let f = FactorData::load(&sym, &ap);
        for j in 0..5 {
            for i in j..5 {
                assert_eq!(
                    f.get(&sym, i, j),
                    ap.get(i, j),
                    "mismatch at permuted ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn zeros_have_correct_shapes() {
        let a = small_spd();
        let sym = analyze(&a, &SymbolicOptions::default());
        let f = FactorData::zeros(&sym);
        // The supernodes' arrays tile `values()` in supernode order: each
        // starts where the one before ends, and the last ends at its end.
        let base = f.values().as_ptr() as usize;
        let mut end = 0;
        for s in 0..sym.nsup() {
            let arr = f.sn(&sym, s);
            assert_eq!(arr.len(), sym.sn_len(s) * sym.sn_ncols(s));
            let start = (arr.as_ptr() as usize - base) / std::mem::size_of::<f64>();
            assert_eq!(start, end, "supernode {s} leaves a gap or overlaps");
            end = start + arr.len();
        }
        assert_eq!(end, f.values().len());
        assert!(f.shape_matches(&sym));
    }

    /// `n` unconnected columns: `n` one-column supernodes.
    fn diagonal_sym(n: usize) -> SymbolicFactor {
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 4.0);
        }
        let a = SymCsc::from_lower_triplets(&t).unwrap();
        let sym = analyze(&a, &SymbolicOptions::default());
        assert_eq!(sym.nsup(), n);
        sym
    }

    #[test]
    fn split_source_hands_out_the_supernode_arrays() {
        let sym = diagonal_sym(5);
        let mut f = FactorData::zeros(&sym);
        let want: Vec<*const f64> = (0..5).map(|s| f.sn(&sym, s).as_ptr()).collect();
        let (src, mut targets) = f.split_source(&sym, 1);
        assert_eq!(src.as_ptr(), want[1]);
        for t in [2, 4] {
            let arr = targets.take(t);
            assert_eq!((arr.as_ptr(), arr.len()), (want[t], 1));
        }
    }

    #[test]
    #[should_panic(expected = "not above the source")]
    fn split_source_rejects_a_target_at_or_below_the_source() {
        let sym = diagonal_sym(4);
        let mut f = FactorData::zeros(&sym);
        let (_, mut targets) = f.split_source(&sym, 2);
        targets.take(2);
    }

    #[test]
    #[should_panic(expected = "not above the source")]
    fn split_source_rejects_targets_out_of_order() {
        let sym = diagonal_sym(5);
        let mut f = FactorData::zeros(&sym);
        let (_, mut targets) = f.split_source(&sym, 0);
        targets.take(3);
        targets.take(2);
    }

    #[test]
    fn matvecs_match_dense_reference() {
        let a = small_spd();
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let f = FactorData::load(&sym, &ap);
        // Treat the loaded values as a lower-triangular L and compare
        // L x / Lᵀ x against an explicit dense triangle.
        let n = 5;
        let mut dense = vec![0.0f64; n * n];
        for j in 0..n {
            for i in j..n {
                dense[j * n + i] = f.get(&sym, i, j);
            }
        }
        let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let lx = f.l_matvec(&sym, &x);
        let ltx = f.lt_matvec(&sym, &x);
        for i in 0..n {
            let mut expect_l = 0.0;
            let mut expect_lt = 0.0;
            for j in 0..n {
                if i >= j {
                    expect_l += dense[j * n + i] * x[j];
                }
                if j >= i {
                    expect_lt += dense[i * n + j] * x[j];
                }
            }
            assert!((lx[i] - expect_l).abs() < 1e-12, "L x mismatch at {i}");
            assert!((ltx[i] - expect_lt).abs() < 1e-12, "Lt x mismatch at {i}");
        }
    }

    /// `A = 4 I` (3 x 3), permuted, with its loaded (unfactored) values.
    fn diagonal_4i() -> (SymbolicFactor, SymCsc, FactorData) {
        let mut t = TripletMatrix::new(3, 3);
        for j in 0..3 {
            t.push(j, j, 4.0);
        }
        let a = SymCsc::from_lower_triplets(&t).unwrap();
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let f = FactorData::load(&sym, &ap);
        (sym, ap, f)
    }

    /// Overwrites every stored nonzero with 2.0: the exact factor of 4 I.
    fn set_nonzeros_to_two(f: &mut FactorData) {
        for v in f.values_mut() {
            if *v != 0.0 {
                *v = 2.0;
            }
        }
    }

    #[test]
    fn residual_reacts_to_wrong_factors() {
        // Loaded (unfactored) values give a large residual; the correct
        // factor gives ~0.
        let (sym, ap, mut f) = diagonal_4i();
        assert!(f.residual(&sym, &ap, 2) > 1e-3);
        set_nonzeros_to_two(&mut f);
        assert!(f.residual(&sym, &ap, 2) < 1e-14);
    }

    #[test]
    fn residual_propagates_nan() {
        // One NaN entry in an otherwise exact factor must not certify.
        let (sym, ap, mut f) = diagonal_4i();
        set_nonzeros_to_two(&mut f);
        f.values_mut()[0] = f64::NAN;
        assert!(f.residual(&sym, &ap, 2).is_nan());
    }

    #[test]
    fn max_rel_diff_propagates_nan() {
        let a = small_spd();
        let sym = analyze(&a, &SymbolicOptions::default());
        let f = FactorData::load(&sym, &a.permute(&sym.perm));
        for i in [0, f.values().len() - 1] {
            let mut g = f.clone();
            g.values_mut()[i] = f64::NAN;
            assert!(f.max_rel_diff(&g).is_nan(), "NaN at entry {i} dropped");
            assert!(g.max_rel_diff(&f).is_nan(), "NaN at entry {i} dropped");
        }
        assert_eq!(f.max_rel_diff(&f), 0.0);
    }
}
