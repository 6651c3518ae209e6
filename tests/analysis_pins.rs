//! Pinned outputs of the analysis phase: nested dissection and minimum
//! degree permutations, and the amalgamation + partition-refinement
//! result, recorded as digests.
//!
//! Orderings and merge sequences are deterministic functions of the
//! pattern, and every downstream number (fill, flops, supernode sizes,
//! every simulated second in `BENCH_paper.json`) follows from them, so a
//! change that only makes the analysis *faster* must leave every value
//! here untouched. A change that means to move one records the new value
//! and says why.
//!
//! The `#[ignore]`d pins are the benchmark's two direct workloads (about
//! a second in a release build), run by CI as
//! `cargo test --release -p rlchol --test analysis_pins -- --ignored`.

use rlchol::matgen::{grid2d, grid3d, Stencil};
use rlchol::ordering::{min_degree, order, order_graph};
use rlchol::sparse::Graph;
use rlchol::symbolic::analyze;
use rlchol::{OrderingMethod, SymCsc, SymbolicOptions};

/// FNV-1a over the 64-bit little-endian encoding of each value.
fn digest<'a>(xs: impl IntoIterator<Item = &'a usize>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in xs {
        for b in (x as u64).to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Compares every `(name, got, want)` and reports all drifted pins at once.
fn check(pins: &[(String, u64, u64)]) {
    let drifted: Vec<String> = pins
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(name, got, want)| format!("{name}: got {got:#x} ({got}), pinned {want:#x}"))
        .collect();
    assert!(drifted.is_empty(), "drifted pins:\n{}", drifted.join("\n"));
}

fn nd_digest(g: &Graph) -> u64 {
    let p = order_graph(g, OrderingMethod::NestedDissection);
    digest(p.old_of_slice())
}

/// Deterministic connected random graph: a random spanning tree plus
/// `extra` random edges per vertex (SplitMix64 stream).
fn random_graph(n: usize, extra: usize, seed: u64) -> Graph {
    let mut s = seed;
    let mut next = move || {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut edges = Vec::new();
    for i in 1..n {
        edges.push((i, (next() % i as u64) as usize));
        for _ in 0..extra {
            edges.push((i, (next() % n as u64) as usize));
        }
    }
    Graph::from_edges(n, &edges)
}

/// Two disjoint grids (40×40 and 30×30, both above the leaf size), so
/// the top level of the dissection sees two components.
fn two_components() -> Graph {
    let mut edges = Vec::new();
    let mut off = 0;
    for k in [40usize, 30] {
        for y in 0..k {
            for x in 0..k {
                let v = off + y * k + x;
                if x + 1 < k {
                    edges.push((v, v + 1));
                }
                if y + 1 < k {
                    edges.push((v, v + k));
                }
            }
        }
        off += k * k;
    }
    Graph::from_edges(off, &edges)
}

fn clique(k: usize) -> Graph {
    let edges: Vec<(usize, usize)> = (0..k)
        .flat_map(|i| (i + 1..k).map(move |j| (i, j)))
        .collect();
    Graph::from_edges(k, &edges)
}

#[test]
fn nested_dissection_permutations_are_pinned() {
    let cases: [(&str, Graph, u64); 5] = [
        (
            "grid2d 60x60",
            grid2d(60, 60, Stencil::Star5, 1, 1).to_graph(),
            0x5f61_4cb0_a00f_c1ad,
        ),
        (
            "grid3d 12^3 star7",
            grid3d(12, 12, 12, Stencil::Star7, 1, 1).to_graph(),
            0x2bf2_8171_15e5_2df1,
        ),
        (
            "grid3d 8^3 star27",
            grid3d(8, 8, 8, Stencil::Star27, 1, 1).to_graph(),
            0xd22f_b46b_27cf_5d1d,
        ),
        ("two components", two_components(), 0x9911_9958_0eec_ba31),
        ("clique 130", clique(130), 0x8703_4ac9_13bc_e744),
    ];
    let pins: Vec<(String, u64, u64)> = cases
        .iter()
        .map(|(name, g, want)| (format!("nd {name}"), nd_digest(g), *want))
        .collect();
    check(&pins);
}

#[test]
fn minimum_degree_permutations_are_pinned() {
    let cases: [(&str, Graph, u64); 3] = [
        (
            "grid3d 10^3 star7",
            grid3d(10, 10, 10, Stencil::Star7, 1, 1).to_graph(),
            0x0982_6550_368c_61e9,
        ),
        (
            "random 400/2 seed 1",
            random_graph(400, 2, 1),
            0x0f71_639c_1420_ac81,
        ),
        (
            "random 600/3 seed 2",
            random_graph(600, 3, 2),
            0xb1b2_8191_2369_91fd,
        ),
    ];
    let pins: Vec<(String, u64, u64)> = cases
        .iter()
        .map(|(name, g, want)| {
            let p = min_degree(g);
            (format!("md {name}"), digest(p.old_of_slice()), *want)
        })
        .collect();
    check(&pins);
}

/// `(perm digest, merges, extra_fill, nsup)` of the symbolic pipeline
/// (amalgamation + partition refinement) on the ND-ordered matrix.
fn merge_pins(name: &str, a: &SymCsc, want: [(f64, [u64; 4]); 3]) -> Vec<(String, u64, u64)> {
    let fill = order(a, OrderingMethod::NestedDissection);
    let af = a.permute(&fill);
    let mut pins = Vec::new();
    for (cap, want) in want {
        let opts = SymbolicOptions {
            merge_growth_cap: cap,
            ..SymbolicOptions::default()
        };
        let f = analyze(&af, &opts);
        let got = [
            digest(f.perm.old_of_slice()),
            f.stats.merges as u64,
            f.stats.merge_extra_fill,
            f.nsup() as u64,
        ];
        for (k, field) in ["perm", "merges", "extra_fill", "nsup"].iter().enumerate() {
            pins.push((format!("merge {name} cap {cap} {field}"), got[k], want[k]));
        }
    }
    pins
}

#[test]
fn supernode_merge_is_pinned() {
    let mut pins = merge_pins(
        "grid2d 50x50",
        &grid2d(50, 50, Stencil::Star5, 1, 1),
        [
            (0.0, [0x8a2b_5e5e_48f0_47ed, 0, 0, 1959]),
            (0.25, [0xad53_dbf4_1ffd_aff1, 1466, 10_074, 493]),
            (1.0, [0xd7bf_400b_5dbb_a0f9, 1836, 40_033, 123]),
        ],
    );
    pins.extend(merge_pins(
        "grid3d 10^3 star7",
        &grid3d(10, 10, 10, Stencil::Star7, 1, 1),
        [
            (0.0, [0x6a9a_45c5_1ce9_343d, 0, 0, 667]),
            (0.25, [0x4c84_b0b6_e887_7185, 528, 7987, 139]),
            (1.0, [0x0b8d_b2f3_8c15_b8b1, 639, 32_091, 28]),
        ],
    ));
    check(&pins);
}

/// ND digest and factor nonzeros under default symbolic options — the
/// `ordering.factor_nnz` the benchmark records for the same matrix.
fn workload_pins(name: &str, a: &SymCsc, nd: u64, nnz: u64) -> Vec<(String, u64, u64)> {
    let fill = order(a, OrderingMethod::NestedDissection);
    let f = analyze(&a.permute(&fill), &SymbolicOptions::default());
    vec![
        (format!("{name} nd"), digest(fill.old_of_slice()), nd),
        (format!("{name} factor_nnz"), f.nnz, nnz),
    ]
}

#[test]
#[ignore = "benchmark-size matrix: run in release with --ignored"]
fn plate300_analysis_is_pinned() {
    check(&workload_pins(
        "plate300",
        &grid2d(300, 300, Stencil::Star5, 1, 1),
        0x0a1f_3dbc_a987_9ba1,
        3_277_057,
    ));
}

#[test]
#[ignore = "benchmark-size matrix: run in release with --ignored"]
fn cube32_analysis_is_pinned() {
    check(&workload_pins(
        "cube32",
        &grid3d(32, 32, 32, Stencil::Star7, 1, 1),
        0xcd52_97b3_f47a_33b5,
        6_481_534,
    ));
}
