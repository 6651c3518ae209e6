//! Criterion benches of the task-parallel factorization engines against
//! their serial counterparts (real wall time; the repository benchmark's
//! `core.par_refactor_s` is the recorded number).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlchol_core::engine::{GpuOptions, Method};
use rlchol_core::{engine_for, EngineWorkspace};
use rlchol_matgen::{grid3d, Stencil};
use rlchol_ordering::{order, OrderingMethod};
use rlchol_symbolic::{analyze, SymbolicOptions};
use std::time::Duration;

fn bench_factorization_par(c: &mut Criterion) {
    let a0 = grid3d(14, 14, 14, Stencil::Star7, 1, 21);
    let fill = order(&a0, OrderingMethod::NestedDissection);
    let af = a0.permute(&fill);
    let sym = analyze(&af, &SymbolicOptions::default());
    let a = af.permute(&sym.perm);

    let mut g = c.benchmark_group("factorization_par_14x14x14");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    // One engine through the registry at an explicit lane count.
    let factor = |method: Method, lanes: usize| {
        let mut ws = EngineWorkspace::new(lanes, GpuOptions::with_threshold(usize::MAX));
        engine_for(method).factor(&sym, &a, &mut ws).unwrap()
    };
    g.bench_function("rl_serial", |b| b.iter(|| factor(Method::RlCpu, 1)));
    g.bench_function("rlb_serial", |b| b.iter(|| factor(Method::RlbCpu, 1)));
    for threads in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("rl_par", threads), &threads, |b, &t| {
            b.iter(|| factor(Method::RlCpuPar, t))
        });
        g.bench_with_input(BenchmarkId::new("rlb_par", threads), &threads, |b, &t| {
            b.iter(|| factor(Method::RlbCpuPar, t))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_factorization_par);
criterion_main!(benches);
