//! Criterion benches of the numeric factorization engines (real wall
//! time of the actual Rust execution, complementing the simulated clock
//! of the `paper` bin).

use criterion::{criterion_group, criterion_main, Criterion};
use rlchol_core::engine::{GpuOptions, Method};
use rlchol_core::simplicial::simplicial_cholesky;
use rlchol_core::{engine_for, EngineWorkspace, FactorData};
use rlchol_matgen::{grid3d, Stencil};
use rlchol_ordering::{order, OrderingMethod};
use rlchol_perfmodel::MachineModel;
use rlchol_symbolic::{analyze, SymbolicOptions};
use std::time::Duration;

fn bench_factorization(c: &mut Criterion) {
    let a0 = grid3d(10, 10, 10, Stencil::Star7, 1, 21);
    let fill = order(&a0, OrderingMethod::NestedDissection);
    let af = a0.permute(&fill);
    let sym = analyze(&af, &SymbolicOptions::default());
    let a = af.permute(&sym.perm);

    let mut g = c.benchmark_group("factorization_10x10x10");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));

    g.bench_function("simplicial", |b| {
        b.iter(|| simplicial_cholesky(&a).unwrap())
    });

    let opts = GpuOptions {
        machine: MachineModel::perlmutter(64).scale_compute(24.0),
        ..GpuOptions::with_threshold(20_000)
    };
    for (name, method) in [
        ("rl_cpu", Method::RlCpu),
        ("rlb_cpu", Method::RlbCpu),
        ("rl_gpu_sim", Method::RlGpu),
        ("rlb_gpu_v2_sim", Method::RlbGpuV2),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut ws = EngineWorkspace::new(0, opts.clone());
                engine_for(method)
                    .factor(&sym, FactorData::load(&sym, &a), &mut ws)
                    .unwrap()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_factorization);
criterion_main!(benches);
