//! The supernodal solve sweeps through the staged handle.
//!
//! On both tree shapes that matter — a natural-ordered band matrix whose
//! elimination tree is a path, and an ND-ordered 3-D grid whose tree is
//! bushy — and for 1, 4 and 33 right-hand sides:
//!
//! * column `j` of `solve_many` is bit-identical to `solve_into` of
//!   column `j`, so the per-column arithmetic does not depend on `k`;
//! * every solution meets `tests/oracle.rs`'s normwise residual bound.
//!
//! Between them the two factors hold supernodes 1, 2, 3 and at least 5
//! columns wide and a root with no rows below it, so every branch of the
//! sweeps is reached.

use rlchol::matgen::{grid3d, Stencil};
use rlchol::ordering::OrderingMethod;
use rlchol::symbolic::{SymbolicFactor, NONE};
use rlchol::{
    CholeskySolver, SolveWorkspace, SolverOptions, SymCsc, SymbolicCholesky, TripletMatrix,
};

const RHS_SWEEP: [usize; 3] = [1, 4, 33];

/// `tests/oracle.rs`'s bound on `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`.
const RESIDUAL_BOUND: f64 = 1e-14;

/// A 300 × 300 band matrix (bandwidth 2): natural-ordered, its
/// elimination tree is a path.
fn band() -> SymCsc {
    let n = 300;
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

fn inf_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// Normwise backward error of `x` as a solution of `a x = b`.
fn normwise_residual(a: &SymCsc, x: &[f64], b: &[f64]) -> f64 {
    let n = a.n();
    let mut ax = vec![0.0; n];
    a.matvec(x, &mut ax);
    let mut abs_a = a.clone();
    abs_a.values_mut().iter_mut().for_each(|v| *v = v.abs());
    let mut row_sums = vec![0.0; n];
    abs_a.matvec(&vec![1.0; n], &mut row_sums);
    let r: Vec<f64> = b.iter().zip(&ax).map(|(p, q)| p - q).collect();
    inf_norm(&r) / (inf_norm(&row_sums) * inf_norm(x) + inf_norm(b))
}

fn analyzed(a: &SymCsc, ordering: OrderingMethod) -> SymbolicCholesky {
    CholeskySolver::analyze(
        a,
        &SolverOptions {
            ordering,
            ..SolverOptions::default()
        },
    )
}

fn grid() -> SymCsc {
    grid3d(7, 6, 6, Stencil::Star7, 1, 71)
}

/// Solves `a` at every `k` of the sweep and checks bits and residuals.
fn check(a: &SymCsc, handle: &SymbolicCholesky, label: &str) {
    let fact = handle.factor_with(a).unwrap();
    let n = a.n();
    let mut ws = SolveWorkspace::new();
    let mut x1 = vec![0.0; n];
    for k in RHS_SWEEP {
        let b: Vec<f64> = (0..n * k).map(|i| ((i * 37) % 29) as f64 - 14.0).collect();
        let mut x = vec![0.0; n * k];
        handle.solve_many(&fact, &b, &mut x, k, &mut ws).unwrap();
        for j in 0..k {
            let (bj, xj) = (&b[j * n..(j + 1) * n], &x[j * n..(j + 1) * n]);
            handle.solve_into(&fact, bj, &mut x1, &mut ws).unwrap();
            assert!(
                x1.iter().zip(xj).all(|(p, q)| p.to_bits() == q.to_bits()),
                "{label}: k {k}, column {j} differs from its single solve"
            );
            let sr = normwise_residual(a, xj, bj);
            assert!(sr <= RESIDUAL_BOUND, "{label}: k {k}, column {j}: {sr:e}");
        }
    }
}

/// True when no supernode has two children: the supernodal tree is a
/// path.
fn is_path(sym: &SymbolicFactor) -> bool {
    let mut children = vec![0usize; sym.nsup()];
    for &p in sym.sn_parent.iter().filter(|&&p| p != NONE) {
        children[p] += 1;
    }
    children.iter().all(|&c| c <= 1)
}

#[test]
fn path_shaped_band_solves_bitwise_across_rhs_counts() {
    let a = band();
    let handle = analyzed(&a, OrderingMethod::Natural);
    assert!(is_path(handle.symbolic()), "band must have a path tree");
    check(&a, &handle, "band(300) natural");
}

#[test]
fn bushy_nd_grid3d_solves_bitwise_across_rhs_counts() {
    let a = grid();
    let handle = analyzed(&a, OrderingMethod::NestedDissection);
    assert!(!is_path(handle.symbolic()), "ND grid3d must be bushy");
    check(&a, &handle, "grid3d(7,6,6) ND");
}

#[test]
fn the_two_factors_reach_every_supernode_shape() {
    let band = analyzed(&band(), OrderingMethod::Natural);
    let grid = analyzed(&grid(), OrderingMethod::NestedDissection);
    let syms = [band.symbolic(), grid.symbolic()];
    let widths: Vec<usize> = syms
        .iter()
        .flat_map(|sym| (0..sym.nsup()).map(|s| sym.sn_ncols(s)))
        .collect();
    for want in [1, 2, 3] {
        assert!(
            widths.contains(&want),
            "no supernode {want} wide: {widths:?}"
        );
    }
    assert!(widths.iter().any(|&c| c >= 5), "no supernode ≥ 5 wide");
    for sym in syms {
        let root = sym.nsup() - 1;
        assert_eq!(sym.sn_nrows_below(root), 0, "root has rows below it");
    }
}

#[test]
fn the_solve_report_read_by_the_benchmark_is_the_serial_sweep() {
    // The repository benchmark still reads these (ROADMAP item 0(d)):
    // they must describe the one serial sweep whatever it asks for.
    let a = grid();
    let mut handle = analyzed(&a, OrderingMethod::NestedDissection);
    handle.set_solve_threads(4);
    let info = handle.solve_info();
    assert_eq!(
        (info.threads, info.level_set, info.async_dispatch),
        (1, false, false)
    );
    let stages = handle.analyze_breakdown();
    assert_eq!(stages.solve_plan, std::time::Duration::ZERO);
}
