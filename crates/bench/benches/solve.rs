//! Criterion benches of the supernodal triangular solves.

use criterion::{criterion_group, criterion_main, Criterion};
use rlchol_core::solve::{solve, solve_backward, solve_forward};
use rlchol_core::{
    engine_for, CholeskySolver, EngineWorkspace, Method, SolveWorkspace, SolverOptions,
};
use rlchol_matgen::{grid3d, Stencil};
use rlchol_ordering::{order, OrderingMethod};
use rlchol_symbolic::{analyze, SymbolicOptions};
use std::time::Duration;

fn bench_solve(c: &mut Criterion) {
    let a0 = grid3d(12, 12, 12, Stencil::Star7, 1, 41);
    let fill = order(&a0, OrderingMethod::NestedDissection);
    let af = a0.permute(&fill);
    let sym = analyze(&af, &SymbolicOptions::default());
    let a = af.permute(&sym.perm);
    let run = engine_for(Method::RlCpu)
        .factor(&sym, &a, &mut EngineWorkspace::default())
        .unwrap();
    let n = a.n();
    let b: Vec<f64> = (0..n).map(|i| (i % 11) as f64 - 5.0).collect();

    let mut g = c.benchmark_group("solve_12x12x12");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    let mut scratch = Vec::new();
    g.bench_function("forward", |bench| {
        bench.iter(|| {
            let mut x = b.clone();
            solve_forward(&sym, &run.factor, &mut x, 1, &mut scratch);
            x
        })
    });
    g.bench_function("backward", |bench| {
        bench.iter(|| {
            let mut x = b.clone();
            solve_backward(&sym, &run.factor, &mut x, 1, &mut scratch);
            x
        })
    });
    g.bench_function("full", |bench| bench.iter(|| solve(&sym, &run.factor, &b)));
    g.finish();
}

/// Eight right-hand sides through the staged handle: one blocked sweep
/// reads each panel once for all eight.
fn bench_solve_many(c: &mut Criterion) {
    const K: usize = 8;
    let a = grid3d(12, 12, 12, Stencil::Star7, 1, 41);
    let handle = CholeskySolver::analyze(&a, &SolverOptions::default());
    let fact = handle.factor_with(&a).unwrap();
    let n = a.n();
    let b: Vec<f64> = (0..n * K).map(|i| (i % 11) as f64 - 5.0).collect();
    let mut x = vec![0.0; n * K];
    let mut ws = SolveWorkspace::warm(n, K);

    let mut g = c.benchmark_group("solve_many_12x12x12");
    g.sample_size(20)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    g.bench_function("k8", |bench| {
        bench.iter(|| handle.solve_many(&fact, &b, &mut x, K, &mut ws).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_solve, bench_solve_many);
criterion_main!(benches);
