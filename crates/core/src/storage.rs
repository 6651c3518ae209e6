//! Supernodal factor storage.
//!
//! Each supernode `s` with `c` columns and `r` below-diagonal rows is one
//! dense column-major array of `len × c` doubles (`len = c + r`), exactly
//! as in the paper ("a supernode is stored in a dense array", §II-A —
//! e.g. J1 in a 5×2 array). Row `0..c` of the array is the (lower)
//! triangular diagonal block; rows `c..len` are indexed by the
//! supernode's `rows` list.

use rlchol_sparse::SymCsc;
use rlchol_symbolic::SymbolicFactor;

/// The numeric values of a supernodal factor (structure lives in
/// [`SymbolicFactor`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FactorData {
    /// One dense column-major array per supernode; leading dimension is
    /// the supernode length.
    pub sn: Vec<Vec<f64>>,
}

impl FactorData {
    /// Allocates zeroed storage for all supernodes.
    pub fn zeros(sym: &SymbolicFactor) -> Self {
        let sn = (0..sym.nsup())
            .map(|s| vec![0.0f64; sym.sn_len(s) * sym.sn_ncols(s)])
            .collect();
        FactorData { sn }
    }

    /// Loads the values of `a` (already permuted into factor order) into
    /// supernodal storage; entries outside `A`'s pattern stay zero.
    pub fn load(sym: &SymbolicFactor, a: &SymCsc) -> Self {
        let mut f = FactorData::zeros(sym);
        f.reload(sym, a);
        f
    }

    /// True when this factor's per-supernode arrays match `sym`'s shapes
    /// — the precondition for [`reload`](Self::reload).
    pub fn shape_matches(&self, sym: &SymbolicFactor) -> bool {
        self.sn.len() == sym.nsup()
            && (0..sym.nsup()).all(|s| self.sn[s].len() == sym.sn_len(s) * sym.sn_ncols(s))
    }

    /// Reloads the values of `a` into this factor's existing storage
    /// (zeroing it first) — the refactorization path: same symbolic
    /// structure, new values, **no reallocation**.
    pub fn reload(&mut self, sym: &SymbolicFactor, a: &SymCsc) {
        assert_eq!(a.n(), sym.n);
        assert!(self.shape_matches(sym), "factor storage shape mismatch");
        for arr in &mut self.sn {
            arr.fill(0.0);
        }
        let f = self;
        for s in 0..sym.nsup() {
            let first = sym.sn.first_col(s);
            let end = sym.sn.end_col(s);
            let len = sym.sn_len(s);
            let rows = &sym.rows[s];
            let arr = &mut f.sn[s];
            for j in first..end {
                let lc = j - first;
                let mut cursor = 0usize; // two-pointer over rows (sorted)
                for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
                    debug_assert!(i >= j);
                    let lr = if i < end {
                        i - first
                    } else {
                        while rows[cursor] < i {
                            cursor += 1;
                        }
                        debug_assert_eq!(rows[cursor], i, "A entry outside factor pattern");
                        end - first + cursor
                    };
                    arr[lc * len + lr] = v;
                }
            }
        }
    }

    /// Entry `L[i, j]` (global indices, `i >= j`); zero when outside the
    /// supernodal pattern.
    pub fn get(&self, sym: &SymbolicFactor, i: usize, j: usize) -> f64 {
        let s = sym.sn.col_to_sn[j];
        let first = sym.sn.first_col(s);
        let end = sym.sn.end_col(s);
        let len = sym.sn_len(s);
        let lc = j - first;
        let lr = if i < end {
            i - first
        } else {
            match sym.rows[s].binary_search(&i) {
                Ok(pos) => end - first + pos,
                Err(_) => return 0.0,
            }
        };
        self.sn[s][lc * len + lr]
    }

    /// Maximum relative elementwise difference against another factor
    /// with the same structure (used to compare engines); NaN when any
    /// entry of either is NaN.
    pub fn max_rel_diff(&self, other: &FactorData) -> f64 {
        let mut worst = 0.0f64;
        for (a, b) in self.sn.iter().zip(&other.sn) {
            for (&x, &y) in a.iter().zip(b) {
                let scale = x.abs().max(y.abs()).max(1.0);
                worst = max_nan(worst, (x - y).abs() / scale);
            }
        }
        worst
    }

    /// `y = Lᵀ x` over the supernodal structure.
    pub fn lt_matvec(&self, sym: &SymbolicFactor, x: &[f64]) -> Vec<f64> {
        let n = sym.n;
        assert_eq!(x.len(), n);
        let mut y = vec![0.0f64; n];
        for s in 0..sym.nsup() {
            let first = sym.sn.first_col(s);
            let end = sym.sn.end_col(s);
            let len = sym.sn_len(s);
            let c = end - first;
            let arr = &self.sn[s];
            let rows = &sym.rows[s];
            for lc in 0..c {
                let col = &arr[lc * len..(lc + 1) * len];
                let mut acc = 0.0;
                for (li, &v) in col.iter().enumerate().skip(lc) {
                    if v != 0.0 {
                        let gi = if li < c { first + li } else { rows[li - c] };
                        acc += v * x[gi];
                    }
                }
                y[first + lc] = acc;
            }
        }
        y
    }

    /// `z = L y` over the supernodal structure.
    pub fn l_matvec(&self, sym: &SymbolicFactor, y: &[f64]) -> Vec<f64> {
        let n = sym.n;
        assert_eq!(y.len(), n);
        let mut z = vec![0.0f64; n];
        for s in 0..sym.nsup() {
            let first = sym.sn.first_col(s);
            let end = sym.sn.end_col(s);
            let len = sym.sn_len(s);
            let c = end - first;
            let arr = &self.sn[s];
            let rows = &sym.rows[s];
            for lc in 0..c {
                let yj = y[first + lc];
                if yj == 0.0 {
                    continue;
                }
                let col = &arr[lc * len..(lc + 1) * len];
                for (li, &v) in col.iter().enumerate().skip(lc) {
                    if v != 0.0 {
                        let gi = if li < c { first + li } else { rows[li - c] };
                        z[gi] += v * yj;
                    }
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
        for s in 0..sym.nsup() {
            assert_eq!(f.sn[s].len(), sym.sn_len(s) * sym.sn_ncols(s));
        }
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
        for v in f.sn.iter_mut().flatten() {
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
        f.sn[0][0] = f64::NAN;
        assert!(f.residual(&sym, &ap, 2).is_nan());
    }

    #[test]
    fn max_rel_diff_propagates_nan() {
        let a = small_spd();
        let sym = analyze(&a, &SymbolicOptions::default());
        let f = FactorData::load(&sym, &a.permute(&sym.perm));
        let last = f.sn.len() - 1;
        for (s, i) in [(0, 0), (last, f.sn[last].len() - 1)] {
            let mut g = f.clone();
            g.sn[s][i] = f64::NAN;
            assert!(
                f.max_rel_diff(&g).is_nan(),
                "NaN at sn {s} entry {i} dropped"
            );
            assert!(
                g.max_rel_diff(&f).is_nan(),
                "NaN at sn {s} entry {i} dropped"
            );
        }
        assert_eq!(f.max_rel_diff(&f), 0.0);
    }
}
