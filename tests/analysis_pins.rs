//! Pinned outputs of the analysis phase: nested dissection and minimum
//! degree permutations, the amalgamation + partition-refinement result,
//! and the whole symbolic factor, recorded as digests.
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
use rlchol::{OrderingMethod, SymCsc, SymbolicFactor, SymbolicOptions, TripletMatrix};

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

/// FNV-1a over every field of a symbolic factor: the permutation, the
/// partition, each row list and block list with its length, the tree,
/// `nnz`, the bits of `flops` and all five statistics. A wrong row or
/// block list moves it even where fill and supernode count do not.
fn factor_digest(f: &SymbolicFactor) -> u64 {
    let mut xs: Vec<usize> = vec![f.n];
    xs.extend(f.perm.old_of_slice());
    xs.extend(&f.sn.sn_start);
    for rows in &f.rows {
        xs.push(rows.len());
        xs.extend(rows);
    }
    xs.extend(&f.sn_parent);
    for blocks in &f.blocks {
        xs.push(blocks.len());
        for b in blocks {
            xs.extend([b.offset, b.len, b.first, b.target]);
        }
    }
    let st = &f.stats;
    xs.extend([
        f.nnz as usize,
        f.flops.to_bits() as usize,
        st.nsup_before_merge,
        st.merges,
        st.merge_extra_fill as usize,
        st.blocks_before_pr,
        st.blocks_after_pr,
    ]);
    digest(&xs)
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
    let cases: [(&str, Graph, u64); 6] = [
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
        // A tree: every half below the root is a forest, so pieces that
        // fall apart are pinned deep in the recursion, not only at the top.
        (
            "random tree 2000 seed 3",
            random_graph(2000, 0, 3),
            0xfcfc_9531_66d0_9459,
        ),
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

/// RCM starts each component from the pseudo-peripheral search that
/// nested dissection's bisection shares.
#[test]
fn rcm_permutations_are_pinned() {
    let cases: [(&str, Graph, u64); 2] = [
        (
            "grid2d 60x60",
            grid2d(60, 60, Stencil::Star5, 1, 1).to_graph(),
            0xd859_e706_8c45_f531,
        ),
        (
            "random 400/2 seed 1",
            random_graph(400, 2, 1),
            0xb135_65bd_6f1f_b609,
        ),
    ];
    let pins: Vec<(String, u64, u64)> = cases
        .iter()
        .map(|(name, g, want)| {
            let p = order_graph(g, OrderingMethod::Rcm);
            (format!("rcm {name}"), digest(p.old_of_slice()), *want)
        })
        .collect();
    check(&pins);
}

/// `(perm digest, merges, extra_fill, nsup)` of the symbolic pipeline
/// (amalgamation + partition refinement) on the ND-ordered matrix, at
/// three growth caps.
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

/// [`factor_digest`] of the ND-ordered matrix under each named set of
/// symbolic options.
fn factor_pins(
    name: &str,
    a: &SymCsc,
    want: &[(&str, SymbolicOptions, u64)],
) -> Vec<(String, u64, u64)> {
    let fill = order(a, OrderingMethod::NestedDissection);
    let af = a.permute(&fill);
    want.iter()
        .map(|(label, opts, want)| {
            let got = factor_digest(&analyze(&af, opts));
            (format!("factor {name} {label}"), got, *want)
        })
        .collect()
}

/// The option sets the whole-factor pins cover: the merge-pin caps
/// under default options, then one switch flipped at a time.
fn option_cases(want: [u64; 6]) -> Vec<(&'static str, SymbolicOptions, u64)> {
    let d = SymbolicOptions::default();
    let cap = |merge_growth_cap| SymbolicOptions {
        merge_growth_cap,
        ..d
    };
    vec![
        ("cap 0", cap(0.0), want[0]),
        ("cap 0.25", cap(0.25), want[1]),
        ("cap 1", cap(1.0), want[2]),
        (
            "fundamental",
            SymbolicOptions {
                fundamental: true,
                ..d
            },
            want[3],
        ),
        ("no merge", SymbolicOptions { merge: false, ..d }, want[4]),
        (
            "no pr",
            SymbolicOptions {
                partition_refine: false,
                ..d
            },
            want[5],
        ),
    ]
}

#[test]
fn symbolic_factor_is_pinned() {
    let mut pins = factor_pins(
        "grid2d 50x50",
        &grid2d(50, 50, Stencil::Star5, 1, 1),
        &option_cases([
            0x0e22_190d_45ab_5666,
            0xdb44_0e3e_fd7c_de96,
            0x0276_db38_f1ce_9fb4,
            0xded7_9421_b2a4_6f34,
            0x0e22_190d_45ab_5666,
            0xc212_1af4_ad15_febd,
        ]),
    );
    pins.extend(factor_pins(
        "grid3d 10^3 star7",
        &grid3d(10, 10, 10, Stencil::Star7, 1, 1),
        &option_cases([
            0x33a2_9a0a_9d08_9afb,
            0x91ef_d975_1210_36fd,
            0x8914_3eac_30a5_24aa,
            0xb53a_ae96_7b5d_078d,
            0x33a2_9a0a_9d08_9afb,
            0xe8d3_0f73_17e4_3963,
        ]),
    ));
    check(&pins);
}

/// The random SPD pattern of the symbolic crate's property tests
/// (`crates/symbolic/tests/props.rs`): a connected random tree plus `n`
/// random edges, from an xorshift stream seeded with `seed`.
fn props_pattern(n: usize, seed: u64) -> SymCsc {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut t = TripletMatrix::new(n, n);
    for j in 0..n {
        t.push(j, j, 8.0);
    }
    for i in 1..n {
        t.push(i, (next() as usize) % i, -0.5);
    }
    for _ in 0..n {
        let a = (next() as usize) % n;
        let b = (next() as usize) % n;
        if a != b {
            t.push(a.max(b), a.min(b), -0.25);
        }
    }
    SymCsc::from_lower_triplets(&t).unwrap()
}

/// One digest folded over 64 random patterns (sizes 12–75, in their
/// natural order) × growth caps {0, 0.25, 1e9} × {maximal, fundamental}.
#[test]
fn symbolic_factor_of_random_patterns_is_pinned() {
    let mut folded = Vec::new();
    for k in 0..64u64 {
        let a = props_pattern(12 + k as usize, 0x9e37_79b9 ^ k);
        for merge_growth_cap in [0.0, 0.25, 1e9] {
            for fundamental in [false, true] {
                let opts = SymbolicOptions {
                    fundamental,
                    merge_growth_cap,
                    ..SymbolicOptions::default()
                };
                folded.push(factor_digest(&analyze(&a, &opts)) as usize);
            }
        }
    }
    check(&[(
        "factor 64 random patterns".into(),
        digest(&folded),
        0xd36b_b464_169d_5809,
    )]);
}

/// ND digest, factor nonzeros and [`factor_digest`] under default
/// symbolic options; `factor_nnz` is the `ordering.factor_nnz` the
/// benchmark records for the same matrix.
fn workload_pins(name: &str, a: &SymCsc, nd: u64, nnz: u64, whole: u64) -> Vec<(String, u64, u64)> {
    let fill = order(a, OrderingMethod::NestedDissection);
    let f = analyze(&a.permute(&fill), &SymbolicOptions::default());
    vec![
        (format!("{name} nd"), digest(fill.old_of_slice()), nd),
        (format!("{name} factor_nnz"), f.nnz, nnz),
        (format!("{name} factor"), factor_digest(&f), whole),
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
        0xcfeb_47be_9758_3b46,
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
        0xf55e_572c_f718_c4cb,
    ));
}
