//! Criterion bench of the update-matrix assembly (the scatter loops the
//! paper parallelizes with OpenMP; here one target's segment is one unit
//! of the CPU tree executor).

use criterion::{criterion_group, criterion_main, Criterion};
use rlchol_core::assemble::assemble_update;
use rlchol_core::storage::FactorData;
use rlchol_matgen::{grid3d, Stencil};
use rlchol_ordering::{order, OrderingMethod};
use rlchol_symbolic::{analyze, SymbolicOptions};
use std::time::Duration;

fn bench_assembly(c: &mut Criterion) {
    let a0 = grid3d(10, 10, 10, Stencil::Star7, 1, 31);
    let fill = order(&a0, OrderingMethod::NestedDissection);
    let af = a0.permute(&fill);
    let sym = analyze(&af, &SymbolicOptions::default());
    let a = af.permute(&sym.perm);

    // Pick the supernode with the most below-diagonal rows that still has
    // multiple targets.
    let s = (0..sym.nsup())
        .filter(|&s| !sym.rows[s].is_empty())
        .max_by_key(|&s| sym.rows[s].len())
        .expect("grid has updating supernodes");
    let r = sym.rows[s].len();
    let upd: Vec<f64> = (0..r * r).map(|i| (i % 17) as f64 * 0.25).collect();

    let mut g = c.benchmark_group("assembly");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600));
    g.bench_function("serial", |b| {
        let mut data = FactorData::load(&sym, &a);
        let mut rel = Vec::new();
        b.iter(|| assemble_update(&sym, &mut data, s, &upd, r, &mut rel))
    });
    g.finish();
}

criterion_group!(benches, bench_assembly);
criterion_main!(benches);
