//! End-to-end integration tests: the full pipeline (ordering → symbolic →
//! numeric → solve) across matrix families, engines and options.

use rlchol::core::engine::{GpuOptions, Method};
use rlchol::core::{engine_for, EngineWorkspace};
use rlchol::matgen::{grid2d, grid3d, kkt3d, perturbed_grid3d, Stencil};
use rlchol::perfmodel::MachineModel;
use rlchol::sparse::SymCsc;
use rlchol::{CholeskySolver, OrderingMethod, SolverOptions, SymbolicOptions};

fn solve_error(a: &SymCsc, opts: &SolverOptions) -> f64 {
    let solver = CholeskySolver::factor(a, opts).expect("SPD input must factor");
    let n = a.n();
    let x_true: Vec<f64> = (0..n).map(|i| ((i * 131) % 19) as f64 - 9.0).collect();
    let mut b = vec![0.0; n];
    a.matvec(&x_true, &mut b);
    let x = solver.solve(&b);
    x.iter()
        .zip(&x_true)
        .fold(0.0f64, |m, (&p, &q)| m.max((p - q).abs()))
}

fn gpu_opts(threshold: usize) -> GpuOptions {
    GpuOptions {
        machine: MachineModel::perlmutter(64).scale_compute(24.0),
        ..GpuOptions::with_threshold(threshold)
    }
}

#[test]
fn every_method_solves_every_family() {
    let matrices: Vec<(&str, SymCsc)> = vec![
        ("grid2d", grid2d(12, 9, Stencil::Star5, 1, 1)),
        ("grid3d", grid3d(6, 5, 4, Stencil::Star7, 1, 2)),
        ("grid3d-3dof", grid3d(4, 4, 4, Stencil::Star7, 3, 3)),
        ("star27", grid3d(5, 5, 5, Stencil::Star27, 1, 4)),
        (
            "perturbed",
            perturbed_grid3d(5, 5, 5, Stencil::Star7, 1, 0.3, 5),
        ),
        ("kkt", kkt3d(4, 6)),
    ];
    let methods = [
        Method::RlCpu,
        Method::RlbCpu,
        Method::RlGpu,
        Method::RlbGpuV1,
        Method::RlbGpuV2,
        Method::RlGpuPipe,
        Method::RlbGpuPipe,
    ];
    for (name, a) in &matrices {
        for &method in &methods {
            let opts = SolverOptions {
                method,
                gpu: gpu_opts(200),
                ..SolverOptions::default()
            };
            let err = solve_error(a, &opts);
            assert!(err < 1e-8, "{name} via {method:?}: error {err}");
        }
    }
}

#[test]
fn all_orderings_produce_correct_solves() {
    let a = grid2d(15, 15, Stencil::Star9, 1, 7);
    for ordering in [
        OrderingMethod::Natural,
        OrderingMethod::Rcm,
        OrderingMethod::MinDegree,
        OrderingMethod::NestedDissection,
    ] {
        let opts = SolverOptions {
            ordering,
            ..SolverOptions::default()
        };
        let err = solve_error(&a, &opts);
        assert!(err < 1e-8, "{ordering:?}: error {err}");
    }
}

#[test]
fn symbolic_option_combinations_are_all_correct() {
    let a = grid3d(6, 6, 5, Stencil::Star7, 1, 8);
    for merge in [false, true] {
        for pr in [false, true] {
            for fundamental in [false, true] {
                let opts = SolverOptions {
                    symbolic: SymbolicOptions {
                        merge,
                        partition_refine: pr,
                        fundamental,
                        merge_growth_cap: 0.25,
                    },
                    method: Method::RlbCpu,
                    ..SolverOptions::default()
                };
                let err = solve_error(&a, &opts);
                assert!(
                    err < 1e-8,
                    "merge={merge} pr={pr} fundamental={fundamental}: {err}"
                );
            }
        }
    }
}

#[test]
fn engines_agree_on_the_factor_bitwise_tolerance() {
    use rlchol::ordering::order;
    use rlchol::symbolic::analyze;
    let a = grid3d(6, 6, 6, Stencil::Star7, 1, 9);
    let fill = order(&a, OrderingMethod::NestedDissection);
    let af = a.permute(&fill);
    let sym = analyze(&af, &SymbolicOptions::default());
    let afact = af.permute(&sym.perm);
    let run = |method: Method| {
        let mut ws = EngineWorkspace::new(0, gpu_opts(500));
        engine_for(method)
            .factor(&sym, &afact, &mut ws)
            .unwrap()
            .factor
    };
    let rl = run(Method::RlCpu);
    for method in [
        Method::RlbCpu,
        Method::RlGpu,
        Method::RlbGpuV1,
        Method::RlbGpuV2,
    ] {
        let d = rl.max_rel_diff(&run(method));
        assert!(d < 1e-11, "{} differs from RL by {d}", method.label());
    }
}

#[test]
fn factorization_residual_is_small_on_suite_scale_matrix() {
    use rlchol::ordering::order;
    use rlchol::symbolic::analyze;
    // A mid-size 3-dof problem similar to the suite's geomechanics family.
    let a = grid3d(9, 9, 9, Stencil::Star7, 3, 10);
    let fill = order(&a, OrderingMethod::NestedDissection);
    let af = a.permute(&fill);
    let sym = analyze(&af, &SymbolicOptions::default());
    let afact = af.permute(&sym.perm);
    let run = engine_for(Method::RlCpu)
        .factor(&sym, &afact, &mut EngineWorkspace::default())
        .unwrap();
    let resid = run.factor.residual(&sym, &afact, 3);
    assert!(resid < 1e-12, "residual {resid}");
}

#[test]
fn indefinite_matrix_fails_cleanly_through_the_pipeline() {
    use rlchol::sparse::TripletMatrix;
    let mut t = TripletMatrix::new(4, 4);
    for j in 0..4 {
        t.push(j, j, 1.0);
    }
    t.push(1, 0, 3.0); // 2x2 leading block indefinite
    let a = SymCsc::from_lower_triplets(&t).unwrap();
    let err = CholeskySolver::factor(&a, &SolverOptions::default());
    assert!(matches!(
        err,
        Err(rlchol::FactorError::NotPositiveDefinite { .. })
    ));
}
