//! Level-set triangular solves against the serial reference, bitwise.
//!
//! The contract under test: the tree-parallel sweeps produce **exactly**
//! the serial bits at every thread count and RHS block size, on both
//! tree shapes that matter — a natural-ordered band matrix whose
//! elimination tree is a path (every level 1 wide: the degenerate case
//! where level scheduling has nothing to do) and an ND-ordered 3-D grid
//! whose tree is bushy (the case the parallelism exists for). The
//! staged handle must make the same guarantee across its serial/parallel
//! selection, and its plan must describe both shapes truthfully.

use rlchol::core::engine::{GpuOptions, RetireMode};
use rlchol::core::solve::{
    solve_backward_level_set, solve_backward_multi, solve_forward_level_set, solve_forward_multi,
    SolvePlan,
};
use rlchol::core::{engine_for, EngineWorkspace, Method};
use rlchol::matgen::{grid3d, Stencil};
use rlchol::ordering::{order, OrderingMethod};
use rlchol::symbolic::{analyze, SymbolicFactor, SymbolicOptions};
use rlchol::{CholeskySolver, SolveWorkspace, SolverOptions, SymCsc, TripletMatrix};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];
const RHS_SWEEP: [usize; 3] = [1, 4, 33];

/// A natural-ordered band matrix (bandwidth 2): its elimination tree is
/// a path, so every level holds exactly one supernode.
fn band_matrix(n: usize) -> SymCsc {
    let mut t = TripletMatrix::new(n, n);
    for j in 0..n {
        t.push(j, j, 8.0);
        if j + 1 < n {
            t.push(j + 1, j, -1.0);
        }
        if j + 2 < n {
            t.push(j + 2, j, -0.5);
        }
    }
    SymCsc::from_lower_triplets(&t).unwrap()
}

/// Orders (optionally), analyzes, factors, and returns everything the
/// sweeps need.
fn prepared(
    a: &SymCsc,
    ordering: OrderingMethod,
) -> (SymbolicFactor, SymCsc, rlchol::core::FactorData, SolvePlan) {
    let fill = order(a, ordering);
    let af = a.permute(&fill);
    let sym = analyze(&af, &SymbolicOptions::default());
    let ap = af.permute(&sym.perm);
    let run = engine_for(Method::RlCpu)
        .factor(&sym, &ap, &mut EngineWorkspace::default())
        .unwrap();
    let plan = SolvePlan::build(&sym);
    (sym, ap, run.factor, plan)
}

/// Runs the serial reference and the level-set sweeps over the full
/// thread × RHS sweep and demands bitwise equality.
fn check_sweep(a: &SymCsc, ordering: OrderingMethod, label: &str) {
    let (sym, _ap, factor, plan) = prepared(a, ordering);
    let n = sym.n;
    for k in RHS_SWEEP {
        let b: Vec<f64> = (0..n * k).map(|i| ((i * 37) % 29) as f64 - 14.0).collect();
        let mut reference = b.clone();
        solve_forward_multi(&sym, &factor, &mut reference, k);
        solve_backward_multi(&sym, &factor, &mut reference, k);
        for threads in THREAD_SWEEP {
            let mut x = b.clone();
            solve_forward_level_set(&sym, &plan, &factor, &mut x, k, threads);
            solve_backward_level_set(&sym, &plan, &factor, &mut x, k, threads);
            assert_eq!(x, reference, "{label}: threads {threads} k {k}");
        }
    }
}

#[test]
fn path_shaped_band_matrix_matches_serial_bitwise() {
    let a = band_matrix(300);
    let (_, _, _, plan) = prepared(&a, OrderingMethod::Natural);
    assert_eq!(
        plan.max_width(),
        1,
        "natural-ordered band must degenerate to 1-wide levels"
    );
    check_sweep(&a, OrderingMethod::Natural, "band(300) natural");
}

#[test]
fn nd_ordered_grid3d_matches_serial_bitwise() {
    let a = grid3d(7, 6, 6, Stencil::Star7, 1, 71);
    let (_, _, _, plan) = prepared(&a, OrderingMethod::NestedDissection);
    assert!(plan.max_width() > 1, "ND grid3d must have level width");
    check_sweep(&a, OrderingMethod::NestedDissection, "grid3d(7,6,6) ND");
}

#[test]
fn staged_handle_paths_agree_bitwise_across_thread_settings() {
    // The user-facing guarantee: a handle forced parallel and a handle
    // forced serial return identical solutions through every entry
    // point, including the permutation plumbing. The parallel handles
    // also ask for out-of-order retirement — a setting of the pipelined
    // GPU executor that must not select anything on the solve side.
    let a = grid3d(6, 6, 5, Stencil::Star7, 1, 72);
    let n = a.n();
    let serial = CholeskySolver::analyze(
        &a,
        &SolverOptions {
            solve_threads: 1,
            ..SolverOptions::default()
        },
    );
    assert!(!serial.solve_info().level_set);
    let fact_s = serial.factor_with(&a).unwrap();
    let k = 5;
    let b: Vec<f64> = (0..n * k).map(|i| ((i * 11) % 23) as f64 - 11.0).collect();
    let mut ws = SolveWorkspace::new();
    let mut x_serial = vec![0.0; n * k];
    serial
        .solve_many(&fact_s, &b, &mut x_serial, k, &mut ws)
        .unwrap();
    for threads in THREAD_SWEEP {
        let par = CholeskySolver::analyze(
            &a,
            &SolverOptions {
                solve_threads: threads,
                gpu: GpuOptions::with_threshold(usize::MAX).with_retire(RetireMode::Ooo),
                ..SolverOptions::default()
            },
        );
        let info = par.solve_info();
        assert_eq!(
            info.level_set,
            threads > 1,
            "threads {threads}: level-set exactly when there are lanes"
        );
        assert!(!info.async_dispatch, "one parallel dispatcher: barriered");
        assert_eq!(info.threads, threads);
        let fact_p = par.factor_with(&a).unwrap();
        let mut x_par = vec![0.0; n * k];
        par.solve_many(&fact_p, &b, &mut x_par, k, &mut ws).unwrap();
        assert_eq!(x_par, x_serial, "threads {threads}");
        // Single-RHS path too.
        let mut x1s = vec![0.0; n];
        let mut x1p = vec![0.0; n];
        serial
            .solve_into(&fact_s, &b[..n], &mut x1s, &mut ws)
            .unwrap();
        par.solve_into(&fact_p, &b[..n], &mut x1p, &mut ws).unwrap();
        assert_eq!(x1p, x1s, "threads {threads} single RHS");
    }
}

#[test]
fn solve_info_matches_plan_shapes() {
    // Path-shaped: never parallel, whatever the thread setting.
    let band = band_matrix(300);
    let h = CholeskySolver::analyze(
        &band,
        &SolverOptions {
            ordering: OrderingMethod::Natural,
            solve_threads: 8,
            ..SolverOptions::default()
        },
    );
    let info = h.solve_info();
    assert_eq!(info.max_width, 1);
    assert!(
        !info.level_set,
        "1-wide levels leave nothing to parallelize"
    );
    // Bushy: parallel once threads allow.
    let grid = grid3d(6, 6, 6, Stencil::Star7, 1, 73);
    let h = CholeskySolver::analyze(
        &grid,
        &SolverOptions {
            solve_threads: 4,
            ..SolverOptions::default()
        },
    );
    let info = h.solve_info();
    assert!(info.max_width > 1);
    assert!(info.levels > 1);
    assert!(info.level_set);
}
