//! Property tests for the staged API on the proptest shim: random small
//! SPD patterns × every registered engine.
//!
//! Invariants, per generated `(pattern, values)` case and [`Method`]:
//!
//! 1. `factor_with` on a [`SymbolicCholesky`] handle is **bitwise**
//!    identical to the one-shot `CholeskySolver::factor` path.
//! 2. `refactor` with a second value set is bitwise identical to a fresh
//!    `factor_with` of that set (storage reuse never changes values).
//! 3. A wrong-pattern input — an entry toggled, or a different
//!    dimension — always yields [`FactorError::PatternMismatch`] and
//!    leaves the previous factor untouched; it can never produce a
//!    silently wrong factor.
//! 4. Solving after a refactor round-trips: `x` recovered from
//!    `b = A₂ x` within a tight tolerance (the generated systems are
//!    strictly diagonally dominant, hence well conditioned).
//!
//! The GPU engines run with threshold 0 so even these small supernodes
//! exercise the device path.

use proptest::prelude::*;

use rlchol::{
    CholeskySolver, FactorError, GpuOptions, Method, SolveWorkspace, SolverOptions, SymCsc,
    TripletMatrix,
};

/// Deterministic value stream for matrix construction (the shim's
/// SplitMix64, seeded from the strategy-drawn case seed).
struct Vals(TestRng);

impl Vals {
    fn new(seed: u64) -> Self {
        Vals(TestRng::for_case(seed))
    }

    fn in_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.0.next_f64()
    }

    fn index(&mut self, n: usize) -> usize {
        (self.0.next_u64() % n as u64) as usize
    }
}

/// A random lower-triangular SPD pattern: `n` diagonal entries plus
/// `extra` off-diagonal entries per column (deduplicated), with values
/// made strictly diagonally dominant.
fn random_spd(n: usize, extra: usize, vals: &mut Vals) -> SymCsc {
    let mut t = TripletMatrix::new(n, n);
    let mut present = std::collections::HashSet::new();
    let mut offdiag = Vec::new();
    for j in 0..n.saturating_sub(1) {
        for _ in 0..extra {
            let i = j + 1 + vals.index(n - 1 - j);
            if present.insert((i, j)) {
                offdiag.push((i, j, vals.in_range(-1.0, 1.0)));
            }
        }
    }
    // Dominance: diag(j) > Σ |offdiag in row j| + |offdiag in col j|.
    let mut dom = vec![0.0f64; n];
    for &(i, j, v) in &offdiag {
        dom[i] += v.abs();
        dom[j] += v.abs();
        t.push(i, j, v);
    }
    for (j, d) in dom.iter().enumerate() {
        t.push(j, j, 1.0 + d + vals.in_range(0.0, 1.0));
    }
    SymCsc::from_lower_triplets(&t).expect("valid triplets")
}

/// A same-pattern clone of `a` with fresh (still dominant) values.
fn reseed_values(a: &SymCsc, vals: &mut Vals) -> SymCsc {
    let mut b = a.clone();
    let n = b.n();
    let mut dom = vec![0.0f64; n];
    let mut diag_pos = Vec::with_capacity(n);
    {
        let colptr = b.colptr().to_vec();
        let rowind = b.rowind().to_vec();
        let values = b.values_mut();
        for j in 0..n {
            for p in colptr[j]..colptr[j + 1] {
                let i = rowind[p];
                if i == j {
                    diag_pos.push(p);
                } else {
                    let v = vals.in_range(-1.0, 1.0);
                    values[p] = v;
                    dom[i] += v.abs();
                    dom[j] += v.abs();
                }
            }
        }
        for (j, &p) in diag_pos.iter().enumerate() {
            values[p] = 1.0 + dom[j] + vals.in_range(0.0, 1.0);
        }
    }
    b
}

/// A minimally perturbed pattern: one extra off-diagonal entry when
/// possible, otherwise one dropped entry — same dimension, same or
/// nearly same nnz, different structure.
fn perturbed_pattern(a: &SymCsc, vals: &mut Vals) -> SymCsc {
    let n = a.n();
    let mut t = TripletMatrix::new(n, n);
    let mut entries = Vec::new();
    for j in 0..n {
        for (&i, &v) in a.col_rows(j).iter().zip(a.col_values(j)) {
            entries.push((i, j, v));
        }
    }
    // Find a missing off-diagonal slot to add.
    let mut added = false;
    'outer: for j in 0..n.saturating_sub(1) {
        for i in j + 1..n {
            if a.col_rows(j).binary_search(&i).is_err() {
                entries.push((i, j, vals.in_range(-0.5, 0.5)));
                added = true;
                break 'outer;
            }
        }
    }
    if !added {
        // Fully dense lower triangle: drop one off-diagonal instead.
        let pos = entries
            .iter()
            .position(|&(i, j, _)| i != j)
            .expect("n >= 2 dense triangle has off-diagonals");
        entries.swap_remove(pos);
    }
    for (i, j, v) in entries {
        t.push(i, j, v);
    }
    SymCsc::from_lower_triplets(&t).expect("valid triplets")
}

fn opts_for(method: Method) -> SolverOptions {
    let threshold = if method.is_gpu() { 0 } else { usize::MAX };
    SolverOptions {
        method,
        gpu: GpuOptions::with_threshold(threshold),
        factor_lanes: 2,
        ..SolverOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn staged_api_invariants_hold_for_every_engine(
        n in 3usize..24,
        extra in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut vals = Vals::new(seed);
        let a0 = random_spd(n, extra, &mut vals);
        let a1 = reseed_values(&a0, &mut vals);
        let wrong = perturbed_pattern(&a0, &mut vals);
        let bigger = random_spd(n + 1, extra, &mut vals);

        for method in Method::ALL {
            let opts = opts_for(method);
            let handle = CholeskySolver::analyze(&a0, &opts);

            // 1. factor_with ≡ one-shot, bitwise.
            let mut fact = handle.factor_with(&a0).expect("SPD input");
            let one_shot = CholeskySolver::factor(&a0, &opts).expect("SPD input");
            prop_assert_eq!(
                fact.data(), one_shot.factor_data(),
                "{:?}: staged factor differs from one-shot (n={}, seed={})",
                method, n, seed
            );

            // 2. refactor ≡ factor_with on the second value set, bitwise.
            handle.refactor(&mut fact, &a1).expect("SPD values");
            let direct = handle.factor_with(&a1).expect("SPD values");
            prop_assert_eq!(
                fact.data(), direct.data(),
                "{:?}: refactor differs from factor_with (n={}, seed={})",
                method, n, seed
            );

            // 3. Wrong patterns are typed rejections, never wrong factors.
            let before = fact.data().clone();
            for bad in [&wrong, &bigger] {
                prop_assert!(
                    matches!(handle.factor_with(bad), Err(FactorError::PatternMismatch { .. })),
                    "{:?}: wrong pattern must be rejected", method
                );
                prop_assert!(
                    matches!(handle.refactor(&mut fact, bad), Err(FactorError::PatternMismatch { .. })),
                    "{:?}: wrong pattern must be rejected on refactor", method
                );
                prop_assert_eq!(
                    fact.data(), &before,
                    "{:?}: rejected refactor must leave the factor untouched", method
                );
            }

            // 4. Solve after refactor round-trips on the current values.
            let x_true: Vec<f64> = (0..n).map(|i| ((i * 5) % 11) as f64 - 5.0).collect();
            let mut b = vec![0.0; n];
            a1.matvec(&x_true, &mut b);
            let mut x = vec![0.0; n];
            let mut ws = SolveWorkspace::warm(n, 1);
            handle.solve_into(&fact, &b, &mut x, &mut ws).expect("sized buffers");
            for i in 0..n {
                prop_assert!(
                    (x[i] - x_true[i]).abs() < 1e-8,
                    "{:?}: solve-after-refactor entry {} off by {} (n={}, seed={})",
                    method, i, (x[i] - x_true[i]).abs(), n, seed
                );
            }
        }
    }
}
