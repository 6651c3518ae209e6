//! Criterion benches of the supernodal triangular solves.

use criterion::{criterion_group, criterion_main, Criterion};
use rlchol_core::solve::{solve, solve_backward, solve_forward};
use rlchol_core::{engine_for, EngineWorkspace, Method};
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
    g.bench_function("forward", |bench| {
        bench.iter(|| {
            let mut x = b.clone();
            solve_forward(&sym, &run.factor, &mut x);
            x
        })
    });
    g.bench_function("backward", |bench| {
        bench.iter(|| {
            let mut x = b.clone();
            solve_backward(&sym, &run.factor, &mut x);
            x
        })
    });
    g.bench_function("full", |bench| bench.iter(|| solve(&sym, &run.factor, &b)));
    g.finish();
}

criterion_group!(benches, bench_solve);
criterion_main!(benches);
