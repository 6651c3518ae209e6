//! Pattern fingerprinting — the cache key for symbolic handles.
//!
//! Two requests share a [`SymbolicCholesky`](rlchol_core::SymbolicCholesky)
//! handle exactly when they have the same sparsity pattern (dimension,
//! column pointers, row indices — values are irrelevant to analysis) and
//! the same analysis-shaping options (engine method and fill-reducing
//! ordering). The fingerprint stores `n` and `nnz` verbatim plus a
//! 128-bit pattern digest: one pass over the pattern's 64-bit words
//! feeding two independent multiply-rotate lanes (own seed, multiplier
//! and rotation each, a final avalanche each), so accidental collisions
//! need simultaneous agreement of both lanes *and* the explicit fields.
//! The digest is an in-memory cache key and nothing else — it is never
//! stored or sent, so it may change between builds. Even a collision is
//! contained: `factor_with` re-walks the pattern and rejects a foreign
//! matrix with a typed `PatternMismatch` — a wrong cache hit can never
//! silently corrupt numerics.

use rlchol_core::solver::SolverOptions;
use rlchol_core::Method;
use rlchol_ordering::OrderingMethod;
use rlchol_sparse::SymCsc;

const SEED_A: u64 = 0xcbf2_9ce4_8422_2325;
const SEED_B: u64 = 0x9e37_79b9_7f4a_7c15;
// Odd multipliers (the 64-bit FxHash and xxHash primes).
const MUL_A: u64 = 0x517c_c1b7_2722_0a95;
const MUL_B: u64 = 0xc2b2_ae3d_27d4_eb4f;

/// Identity of one (pattern, method, ordering) analysis product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternFingerprint {
    /// Matrix dimension.
    pub n: u64,
    /// Stored lower-triangle nonzeros.
    pub nnz: u64,
    /// Engine index into [`Method::ALL`].
    method: u8,
    /// Ordering tag.
    ordering: u8,
    /// 128-bit pattern digest.
    hash: [u64; 2],
}

/// The 64-bit finalizer of MurmurHash3: every input bit reaches every
/// output bit.
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Digest of a pattern's words: `n`, the column pointers, the row
/// indices, in that order. Every word enters both lanes, so each half
/// of the digest covers the whole pattern; the lanes share no state, so
/// their multiply chains overlap in the pipeline. The rotation carries a
/// lane's high bits, which a multiplication only ever moves upward, back
/// under the next word.
fn digest(n: usize, colptr: &[usize], rowind: &[usize]) -> [u64; 2] {
    let (mut a, mut b) = (SEED_A, SEED_B);
    let mut push = |w: usize| {
        a = (a.rotate_left(5) ^ w as u64).wrapping_mul(MUL_A);
        b = (b.rotate_left(23) ^ w as u64).wrapping_mul(MUL_B);
    };
    push(n);
    colptr.iter().chain(rowind).for_each(|&w| push(w));
    [avalanche(a), avalanche(b)]
}

fn ordering_tag(o: OrderingMethod) -> u8 {
    match o {
        OrderingMethod::Natural => 0,
        OrderingMethod::MinDegree => 1,
        OrderingMethod::Rcm => 2,
        OrderingMethod::NestedDissection => 3,
    }
}

impl PatternFingerprint {
    /// Fingerprints `a`'s pattern under the analysis-shaping options
    /// (engine `method`, fill-reducing `ordering`).
    pub fn of(a: &SymCsc, method: Method, ordering: OrderingMethod) -> Self {
        let method_idx = Method::ALL
            .iter()
            .position(|m| *m == method)
            .expect("Method::ALL enumerates every engine") as u8;
        PatternFingerprint {
            n: a.n() as u64,
            nnz: a.rowind().len() as u64,
            method: method_idx,
            ordering: ordering_tag(ordering),
            hash: digest(a.n(), a.colptr(), a.rowind()),
        }
    }

    /// Fingerprint under a full option set (the fields that shape
    /// analysis: method + ordering).
    pub fn of_request(a: &SymCsc, opts: &SolverOptions) -> Self {
        Self::of(a, opts.method, opts.ordering)
    }

    /// Short hex digest for logs and metrics.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hash[0], self.hash[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlchol_matgen::{grid3d, laplace2d, Stencil};

    #[test]
    fn same_pattern_same_key_values_ignored() {
        let a = grid3d(3, 3, 3, Stencil::Star7, 1, 7);
        let b = grid3d(3, 3, 3, Stencil::Star7, 1, 99); // same pattern, new values
        let ka = PatternFingerprint::of(&a, Method::RlbCpu, OrderingMethod::MinDegree);
        let kb = PatternFingerprint::of(&b, Method::RlbCpu, OrderingMethod::MinDegree);
        assert_eq!(ka, kb, "values must not affect the fingerprint");
        assert_eq!(ka.hex().len(), 32);
    }

    #[test]
    fn any_one_word_of_the_pattern_changes_both_lanes() {
        // Raw words: a valid `SymCsc` cannot differ from another in a
        // single column pointer, or by two swapped row indices.
        let colptr = [0, 3, 5, 7, 8];
        let rowind = [0, 2, 3, 1, 3, 2, 3, 3];
        let base = digest(4, &colptr, &rowind);
        let differs = |what: &str, other: [u64; 2]| {
            assert_ne!(base[0], other[0], "{what}: first lane");
            assert_ne!(base[1], other[1], "{what}: second lane");
        };
        differs("dimension", digest(5, &colptr, &rowind));
        differs("one column pointer", digest(4, &[0, 3, 4, 7, 8], &rowind));
        differs(
            "one row index",
            digest(4, &colptr, &[0, 1, 3, 1, 3, 2, 3, 3]),
        );
        differs(
            "two adjacent row indices swapped",
            digest(4, &colptr, &[0, 3, 2, 1, 3, 2, 3, 3]),
        );
        // The high bit alone, which a bare multiply chain loses when it
        // flips in two words.
        let high = 1usize << (usize::BITS - 1);
        differs(
            "high bit of two words",
            digest(4, &colptr, &[0, 2 | high, 3 | high, 1, 3, 2, 3, 3]),
        );
    }

    #[test]
    fn pattern_method_and_ordering_all_discriminate() {
        let a = grid3d(3, 3, 3, Stencil::Star7, 1, 7);
        let c = laplace2d(5, 7);
        let base = PatternFingerprint::of(&a, Method::RlbCpu, OrderingMethod::MinDegree);
        assert_ne!(
            base,
            PatternFingerprint::of(&c, Method::RlbCpu, OrderingMethod::MinDegree),
            "different patterns"
        );
        assert_ne!(
            base,
            PatternFingerprint::of(&a, Method::RlCpu, OrderingMethod::MinDegree),
            "different engine"
        );
        assert_ne!(
            base,
            PatternFingerprint::of(&a, Method::RlbCpu, OrderingMethod::Natural),
            "different ordering"
        );
    }
}
