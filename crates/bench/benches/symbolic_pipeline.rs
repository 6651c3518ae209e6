//! Criterion benches of the symbolic phases: elimination tree, column
//! counts, supernode detection, amalgamation (with the merged row
//! structures) and partition refinement.

use criterion::{criterion_group, criterion_main, Criterion};
use rlchol_matgen::{grid3d, Stencil};
use rlchol_ordering::{order, order_graph, OrderingMethod};
use rlchol_sparse::Permutation;
use rlchol_symbolic::colcount::col_counts_par;
use rlchol_symbolic::etree::{EliminationTree, LowerRows};
use rlchol_symbolic::merge::merge_supernodes;
use rlchol_symbolic::pr::refine_partition;
use rlchol_symbolic::supernodes::{find_supernodes, supernode_rows};
use rlchol_symbolic::{analyze_instrumented, SymbolicOptions};
use std::time::Duration;

/// Every stage reads the input's graph through the nested-dissection
/// ordering, as `analyze_instrumented` does, on one lane.
fn bench_symbolic(c: &mut Criterion) {
    let graph = grid3d(14, 14, 14, Stencil::Star7, 1, 9).to_graph();
    let fill = order_graph(&graph, OrderingMethod::NestedDissection);
    let rows = LowerRows::new(&graph, &fill);

    let mut g = c.benchmark_group("symbolic");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    g.bench_function("etree", |b| b.iter(|| EliminationTree::from_rows(rows)));
    let t0 = EliminationTree::from_rows(rows);
    g.bench_function("postorder", |b| b.iter(|| t0.postorder()));
    g.bench_function("col_counts", |b| b.iter(|| col_counts_par(rows, &t0, 1)));

    // Supernodes are found on the postordered tree, as the analysis does.
    let post = t0.postorder();
    let counts0 = col_counts_par(rows, &t0, 1);
    let counts: Vec<usize> = post.iter().map(|&v| counts0[v]).collect();
    let t = EliminationTree {
        parent: t0.relabel(&post),
    };
    let to_post = Permutation::from_old_of(post).unwrap().compose(&fill);
    g.bench_function("supernodes+rows", |b| {
        b.iter(|| {
            let sn = find_supernodes(&t, &counts, false);
            supernode_rows(&graph, &sn, &to_post)
        })
    });

    let sn = find_supernodes(&t, &counts, false);
    g.bench_function("merge_25pct", |b| {
        b.iter(|| merge_supernodes(&graph, &to_post, &t, &counts, &sn, 0.25))
    });

    let m = merge_supernodes(&graph, &to_post, &t, &counts, &sn, 0.25);
    g.bench_function("partition_refinement", |b| {
        b.iter(|| refine_partition(&m.sn, &m.rows, 1))
    });

    let opts = SymbolicOptions::default();
    g.bench_function("analyze_full", |b| {
        b.iter(|| analyze_instrumented(&graph, &fill, &opts, 1))
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
