//! Criterion benches of the symbolic phases: elimination tree, column
//! counts, supernode detection, amalgamation (with the merged row
//! structures) and partition refinement.

use criterion::{criterion_group, criterion_main, Criterion};
use rlchol_matgen::{grid3d, Stencil};
use rlchol_ordering::{order, OrderingMethod};
use rlchol_sparse::Permutation;
use rlchol_symbolic::colcount::col_counts;
use rlchol_symbolic::etree::EliminationTree;
use rlchol_symbolic::merge::merge_supernodes;
use rlchol_symbolic::pr::refine_partition;
use rlchol_symbolic::supernodes::{find_supernodes, supernode_rows};
use rlchol_symbolic::{analyze, SymbolicOptions};
use std::time::Duration;

fn bench_symbolic(c: &mut Criterion) {
    let a0 = grid3d(14, 14, 14, Stencil::Star7, 1, 9);
    let fill = order(&a0, OrderingMethod::NestedDissection);
    let a = a0.permute(&fill);

    let mut g = c.benchmark_group("symbolic");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    g.bench_function("etree", |b| b.iter(|| EliminationTree::from_matrix(&a)));

    // Supernodes are found on the postordered matrix, as `analyze` does.
    let t0 = EliminationTree::from_matrix(&a);
    let post = Permutation::from_old_of(t0.postorder()).unwrap();
    let ap = a.permute(&post);
    let t = EliminationTree::from_matrix(&ap);
    g.bench_function("col_counts", |b| b.iter(|| col_counts(&ap, &t)));

    let counts = col_counts(&ap, &t);
    let id = Permutation::identity(ap.n());
    g.bench_function("supernodes+rows", |b| {
        b.iter(|| {
            let sn = find_supernodes(&t, &counts, false);
            supernode_rows(&ap, &sn, &id)
        })
    });

    let sn = find_supernodes(&t, &counts, false);
    g.bench_function("merge_25pct", |b| {
        b.iter(|| merge_supernodes(&ap, &t, &counts, &sn, 0.25))
    });

    let m = merge_supernodes(&ap, &t, &counts, &sn, 0.25);
    g.bench_function("partition_refinement", |b| {
        b.iter(|| refine_partition(&m.sn, &m.rows))
    });

    g.bench_function("analyze_full", |b| {
        b.iter(|| analyze(&a, &SymbolicOptions::default()))
    });

    g.finish();
}

fn bench_ordering(c: &mut Criterion) {
    let a = grid3d(12, 12, 12, Stencil::Star7, 1, 10);
    let mut g = c.benchmark_group("ordering");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));
    g.bench_function("nested_dissection", |b| {
        b.iter(|| order(&a, OrderingMethod::NestedDissection))
    });
    g.bench_function("rcm", |b| b.iter(|| order(&a, OrderingMethod::Rcm)));
    g.finish();
}

criterion_group!(benches, bench_symbolic, bench_ordering);
criterion_main!(benches);
