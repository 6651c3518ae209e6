//! Bit-identity of the thread-parallel symbolic analysis.
//!
//! The contract under test: `analyze_threads` (the option, the
//! `RLCHOL_ANALYZE_THREADS` lane count, or the pool default) may change
//! only the analyze *wall clock* — never a single bit of the analysis.
//! Per generated `(pattern, ordering)` case:
//!
//! 1. `rlchol_symbolic::analyze_par` at 2/4/8 threads equals the serial
//!    `analyze` **exactly** (full `SymbolicFactor` comparison: counts,
//!    supernode partition, rows, relative-index blocks, permutation,
//!    stats).
//! 2. A `SymbolicCholesky` handle built with `analyze_threads` 2/4/8 is
//!    `analysis_eq` to the serial handle: symbolic factor, composed
//!    permutation, solve plan, value map and analyzed pattern all equal.
//! 3. The analysis is engine-independent: every registered engine's
//!    handle carries the identical analysis.
//! 4. Numeric smoke: a factor through a parallel-analyzed handle is
//!    bitwise the serial-analyzed handle's factor.
//!
//! A separate stress leg analyzes concurrently from eight threads — the
//! pool is shared and nested submission degrades to inline execution,
//! which must not change results either.

use proptest::prelude::*;

use rlchol::symbolic::{analyze, analyze_par, SymbolicOptions};
use rlchol::{
    CholeskySolver, Method, OrderingMethod, SolverOptions, SymCsc, SymbolicCholesky, TripletMatrix,
};

const ORDERINGS: [OrderingMethod; 4] = [
    OrderingMethod::NestedDissection,
    OrderingMethod::MinDegree,
    OrderingMethod::Rcm,
    OrderingMethod::Natural,
];

/// Deterministic value stream (the shim's SplitMix64).
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

/// Random SPD pattern: connected, `extra` off-diagonals per column,
/// strictly diagonally dominant values.
fn random_spd(n: usize, extra: usize, vals: &mut Vals) -> SymCsc {
    let mut t = TripletMatrix::new(n, n);
    let mut present = std::collections::HashSet::new();
    let mut offdiag = Vec::new();
    for i in 1..n {
        let j = vals.index(i);
        if present.insert((i, j)) {
            offdiag.push((i, j, vals.in_range(-1.0, 1.0)));
        }
    }
    for j in 0..n.saturating_sub(1) {
        for _ in 0..extra {
            let i = j + 1 + vals.index(n - 1 - j);
            if present.insert((i, j)) {
                offdiag.push((i, j, vals.in_range(-1.0, 1.0)));
            }
        }
    }
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

fn opts(ordering: OrderingMethod, analyze_threads: usize) -> SolverOptions {
    SolverOptions {
        ordering,
        analyze_threads,
        ..SolverOptions::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_analysis_is_bit_identical_for_every_ordering(
        n in 4usize..40,
        extra in 0usize..4,
        seed in any::<u64>(),
    ) {
        let mut vals = Vals::new(seed);
        let a = random_spd(n, extra, &mut vals);

        for ordering in ORDERINGS {
            // Symbolic layer: analyze_par ≡ analyze, full struct.
            let fill = rlchol::ordering::order(&a, ordering);
            let af = a.permute(&fill);
            let serial_sym = analyze(&af, &SymbolicOptions::default());
            for threads in [1usize, 2, 4, 8] {
                prop_assert_eq!(
                    &analyze_par(&af, &SymbolicOptions::default(), threads),
                    &serial_sym,
                    "analyze_par diverged ({:?}, n={}, threads={}, seed={})",
                    ordering, n, threads, seed
                );
            }

            // Handle layer: plan + value map + permutation all equal.
            let serial = SymbolicCholesky::new(&a, &opts(ordering, 1));
            for threads in [2usize, 4, 8] {
                let par = SymbolicCholesky::new(&a, &opts(ordering, threads));
                prop_assert!(
                    par.analysis_eq(&serial),
                    "handle analysis diverged ({:?}, n={}, threads={}, seed={})",
                    ordering, n, threads, seed
                );
            }
        }
    }
}

#[test]
fn analysis_is_engine_independent_and_factors_bitwise() {
    let mut vals = Vals::new(0x5eed);
    let a = random_spd(60, 3, &mut vals);
    let serial = SymbolicCholesky::new(&a, &opts(OrderingMethod::NestedDissection, 1));
    let serial_fact = serial.factor_with(&a).expect("SPD input");
    for method in Method::ALL {
        let par = SymbolicCholesky::new(
            &a,
            &SolverOptions {
                method,
                ..opts(OrderingMethod::NestedDissection, 4)
            },
        );
        assert!(
            par.analysis_eq(&serial),
            "{method:?}: engine choice leaked into the analysis"
        );
    }
    // Numeric smoke: the default engine's factor through a
    // parallel-analyzed handle is bitwise the serial-analyzed one.
    let par = SymbolicCholesky::new(&a, &opts(OrderingMethod::NestedDissection, 8));
    let par_fact = par.factor_with(&a).expect("SPD input");
    assert_eq!(
        par_fact.data(),
        serial_fact.data(),
        "factor values depend on the analyze lane count"
    );
}

#[test]
fn concurrent_analyses_from_many_threads_stay_bit_identical() {
    let mut vals = Vals::new(0xc0ffee);
    let a = random_spd(80, 2, &mut vals);
    let serial = std::sync::Arc::new(SymbolicCholesky::new(
        &a,
        &opts(OrderingMethod::NestedDissection, 1),
    ));
    std::thread::scope(|s| {
        for t in 0..8 {
            let a = &a;
            let serial = std::sync::Arc::clone(&serial);
            s.spawn(move || {
                // Mixed lane counts, all racing on the shared pool.
                let threads = [1usize, 2, 4, 8][t % 4];
                let par =
                    SymbolicCholesky::new(a, &opts(OrderingMethod::NestedDissection, threads));
                assert!(
                    par.analysis_eq(&serial),
                    "concurrent analysis (worker {t}, threads {threads}) diverged"
                );
            });
        }
    });
}

#[test]
fn oneshot_analyze_honours_the_option() {
    // CholeskySolver::analyze is the public front door; make sure the
    // option flows through and is reported back in the breakdown.
    let mut vals = Vals::new(7);
    let a = random_spd(50, 2, &mut vals);
    let h = CholeskySolver::analyze(&a, &opts(OrderingMethod::MinDegree, 4));
    assert_eq!(h.analyze_breakdown().threads, 4);
    let serial = CholeskySolver::analyze(&a, &opts(OrderingMethod::MinDegree, 1));
    assert_eq!(serial.analyze_breakdown().threads, 1);
    assert!(h.analysis_eq(&serial));
}

#[test]
fn breakdown_charges_the_ordering_stage() {
    // Nested dissection on a grid is most of an analysis; the breakdown
    // must carry it as its own stage, inside the total.
    let a = rlchol::matgen::grid2d(40, 40, rlchol::matgen::Stencil::Star5, 1, 5);
    let h = CholeskySolver::analyze(&a, &opts(OrderingMethod::NestedDissection, 1));
    let b = h.analyze_breakdown();
    assert!(b.ordering > std::time::Duration::ZERO);
    assert!(b.total() >= b.ordering + b.etree + b.merge);
    let json = rlchol::core::json::analyze_breakdown_json(&b);
    assert!(json.contains("\"ordering_ms\":"), "{json}");
}
