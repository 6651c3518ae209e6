//! Refactorization semantics across every engine: factor a pattern
//! once, refactor with several value sets, and require the results to
//! be **bit-identical** to a fresh one-shot factorization — plus the
//! typed error paths (pattern mismatch, not-positive-definite on
//! refactor).
//!
//! The CPU engines give the same bits at any lane count, so the sweep
//! runs them at the pool default and a separate test refactors on four
//! lanes. The CPU executor runs one lane below a flop cutoff and beside
//! another CPU factorization, so that test uses a matrix above the
//! cutoff, every test holds [`serial`] while it factors, and the test
//! asserts the lanes its runs started.

use std::sync::{Mutex, MutexGuard};

use rlchol::core::FactorError;
use rlchol::matgen::{grid3d, Stencil};
use rlchol::{CholeskySolver, GpuOptions, Method, SolverOptions, SymCsc};

/// Same pattern for every seed; values re-roll per seed.
fn matrix(seed: u64) -> SymCsc {
    grid3d(5, 4, 4, Stencil::Star7, 1, seed)
}

/// One factorization at a time in this test binary, so none of them
/// sees another in flight and falls back to one lane.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn opts_for(method: Method) -> SolverOptions {
    let threshold = if method.is_gpu() { 200 } else { usize::MAX };
    SolverOptions {
        method,
        gpu: GpuOptions::with_threshold(threshold),
        ..SolverOptions::default()
    }
}

#[test]
fn refactor_is_bit_identical_to_one_shot_for_every_engine() {
    let _serial = serial();
    let a0 = matrix(100);
    for method in Method::ALL {
        let opts = opts_for(method);
        let handle = CholeskySolver::analyze(&a0, &opts);
        let mut fact = handle.factor_with(&a0).expect("SPD input");
        let storage_ptr = fact.data().sn[0].as_ptr();
        for seed in [101u64, 102, 103] {
            let a = matrix(seed);
            handle.refactor(&mut fact, &a).expect("SPD values");
            assert_eq!(
                fact.data().sn[0].as_ptr(),
                storage_ptr,
                "{method:?}: refactor must reuse factor storage, not reallocate"
            );
            let fresh = CholeskySolver::factor(&a, &opts).expect("SPD input");
            assert_eq!(
                fact.data(),
                fresh.factor_data(),
                "{method:?} seed {seed}: refactored factor differs from one-shot"
            );
        }
    }
}

#[test]
fn multi_lane_refactor_matches_serial_bitwise() {
    let _serial = serial();
    // Above the executor's flop cutoff, so four lanes run the tree.
    let a0 = grid3d(16, 16, 16, Stencil::Star7, 1, 200);
    let a1 = grid3d(16, 16, 16, Stencil::Star7, 1, 201);
    for (method, serial) in [
        (Method::RlCpuPar, Method::RlCpu),
        (Method::RlbCpuPar, Method::RlbCpu),
    ] {
        let opts = SolverOptions {
            method,
            threads: 4,
            ..SolverOptions::default()
        };
        let handle = CholeskySolver::analyze(&a0, &opts);
        let mut fact = handle.factor_with(&a0).expect("SPD input");
        let storage_ptr = fact.data().sn[0].as_ptr();
        handle.refactor(&mut fact, &a1).expect("SPD values");
        assert_eq!(
            fact.data().sn[0].as_ptr(),
            storage_ptr,
            "{method:?}: multi-lane refactor must reuse factor storage"
        );
        assert_eq!(
            fact.info().lanes,
            4,
            "{method:?}: the refactor ran the tree"
        );
        let one_lane = SolverOptions {
            threads: 1,
            ..opts_for(serial)
        };
        let serial = CholeskySolver::factor(&a1, &one_lane).expect("SPD input");
        assert_eq!(serial.info().lanes, 1);
        assert_eq!(fact.data(), serial.factor_data(), "{method:?}");
    }
}

#[test]
fn pattern_mismatch_is_rejected_for_factor_and_refactor() {
    let _serial = serial();
    let a = matrix(300);
    let wrong_size = grid3d(5, 4, 3, Stencil::Star7, 1, 300);
    let wrong_pattern = grid3d(5, 4, 4, Stencil::Star27, 1, 300);
    let handle = CholeskySolver::analyze(&a, &SolverOptions::default());
    let mut fact = handle.factor_with(&a).expect("SPD input");
    let before = fact.data().clone();
    for bad in [&wrong_size, &wrong_pattern] {
        assert!(matches!(
            handle.factor_with(bad),
            Err(FactorError::PatternMismatch { .. })
        ));
        assert!(matches!(
            handle.refactor(&mut fact, bad),
            Err(FactorError::PatternMismatch { .. })
        ));
        // A rejected refactor leaves the factorization untouched.
        assert_eq!(fact.data(), &before);
    }
}

#[test]
fn non_pd_on_refactor_errors_for_every_engine_and_handle_recovers() {
    let _serial = serial();
    let a0 = matrix(400);
    // Same pattern, indefinite values: a large negative diagonal entry.
    let mut bad = a0.clone();
    let mid = bad.n() / 2;
    let dpos = bad.colptr()[mid];
    bad.values_mut()[dpos] = -100.0;

    for method in Method::ALL {
        let opts = opts_for(method);
        let handle = CholeskySolver::analyze(&a0, &opts);
        let mut fact = handle.factor_with(&a0).expect("SPD input");
        let err = handle.refactor(&mut fact, &bad).expect_err("indefinite");
        match err {
            FactorError::NotPositiveDefinite { .. } | FactorError::Gpu(_) => {}
            other => panic!("{method:?}: unexpected error {other:?}"),
        }
        // The handle stays usable afterwards and matches one-shot again.
        handle.refactor(&mut fact, &a0).expect("SPD values");
        let fresh = CholeskySolver::factor(&a0, &opts).expect("SPD input");
        assert_eq!(
            fact.data(),
            fresh.factor_data(),
            "{method:?}: post-error refactor"
        );
    }
}
