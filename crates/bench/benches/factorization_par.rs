//! Criterion benches of the task-parallel factorization engines against
//! their serial counterparts (real wall time; the repository benchmark's
//! `core.par_refactor_s` is the recorded number).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rlchol_core::rl::factor_rl_cpu;
use rlchol_core::rlb::factor_rlb_cpu;
use rlchol_core::sched::{factor_rl_cpu_par, factor_rlb_cpu_par};
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

    g.bench_function("rl_serial", |b| b.iter(|| factor_rl_cpu(&sym, &a).unwrap()));
    g.bench_function("rlb_serial", |b| {
        b.iter(|| factor_rlb_cpu(&sym, &a).unwrap())
    });
    for threads in [2usize, 4, 8] {
        g.bench_with_input(BenchmarkId::new("rl_par", threads), &threads, |b, &t| {
            b.iter(|| factor_rl_cpu_par(&sym, &a, t).unwrap())
        });
        g.bench_with_input(BenchmarkId::new("rlb_par", threads), &threads, |b, &t| {
            b.iter(|| factor_rlb_cpu_par(&sym, &a, t).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_factorization_par);
criterion_main!(benches);
