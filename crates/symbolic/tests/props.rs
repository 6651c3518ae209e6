//! Property-based tests of the symbolic machinery.

use proptest::prelude::*;
use rlchol_sparse::{Permutation, SymCsc, TripletMatrix};
use rlchol_symbolic::colcount::{col_counts, col_counts_reference};
use rlchol_symbolic::etree::EliminationTree;
use rlchol_symbolic::merge::{merge_supernodes, storage};
use rlchol_symbolic::relind::relative_indices;
use rlchol_symbolic::supernodes::{check_against_counts, find_supernodes, supernode_rows};
use rlchol_symbolic::{analyze, analyze_instrumented, SymbolicOptions, NONE};

fn arb_sym(max_n: usize) -> impl Strategy<Value = SymCsc> {
    (3..=max_n, any::<u64>()).prop_map(|(n, seed)| {
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
        // Connected path + random extras.
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
    })
}

/// A random tree with every parent above its child, so the elimination
/// tree is bushy (`arb_sym`'s fill makes near-paths), each vertex also
/// linked to an ancestor a few steps further up. Amalgamation on it
/// reorders columns in about half the cases.
fn arb_bushy(max_n: usize) -> impl Strategy<Value = SymCsc> {
    (3..=max_n, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 8.0);
        }
        let mut parent = vec![NONE; n];
        for i in 0..n - 1 {
            parent[i] = i + 1 + next() % (n - 1 - i).min(6);
            t.push(parent[i], i, -0.5);
        }
        for i in 0..n - 1 {
            let mut v = parent[i];
            for _ in 0..next() % 3 {
                if parent[v] == NONE {
                    break;
                }
                v = parent[v];
            }
            if v != parent[i] {
                t.push(v, i, -0.25);
            }
        }
        SymCsc::from_lower_triplets(&t).unwrap()
    })
}

/// A pattern that need not be connected: `n` columns and about
/// `n * density / 2` random off-diagonals, none at all (a diagonal
/// matrix) when `density` is 0, plus a random permutation of `0..n`.
fn arb_loose(max_n: usize) -> impl Strategy<Value = (SymCsc, Permutation)> {
    (1..=max_n, 0..4usize, any::<u64>()).prop_map(|(n, density, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as usize
        };
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 8.0);
        }
        for _ in 0..n * density / 2 {
            let (a, b) = (next() % n, next() % n);
            if a != b {
                t.push(a.max(b), a.min(b), -0.25);
            }
        }
        let mut old_of: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            old_of.swap(i, next() % (i + 1));
        }
        let p = Permutation::from_old_of(old_of).unwrap();
        (SymCsc::from_lower_triplets(&t).unwrap(), p)
    })
}

/// The analysis of `P A Pᵀ` read off `A`'s graph through `P` equals the
/// analysis of the explicitly permuted matrix, field for field, under
/// every option set the pipeline branches on and at one and three lanes.
fn check_graph_analysis(a: &SymCsc, p: &Permutation) {
    let g = a.to_graph();
    let ap = a.permute(p);
    let plain = SymbolicOptions {
        fundamental: false,
        merge: false,
        merge_growth_cap: 0.0,
        partition_refine: false,
    };
    let all = [
        SymbolicOptions::default(),
        plain,
        SymbolicOptions {
            fundamental: true,
            ..SymbolicOptions::default()
        },
        SymbolicOptions {
            merge_growth_cap: 1e9,
            ..SymbolicOptions::default()
        },
    ];
    for opts in all {
        let want = analyze(&ap, &opts);
        for threads in [1, 3] {
            let (got, _) = analyze_instrumented(&g, p, &opts, threads);
            assert_eq!(got, want, "opts {opts:?} threads {threads}");
        }
    }
}

/// Amalgamates the postordered `a` at several caps, on both partitions,
/// reading `a`'s graph through the postorder, and checks the merged rows
/// against rows built on the explicitly permuted matrix with the identity
/// map, and the stored entries against the input storage plus the
/// accounted extra fill.
fn check_row_map(a: &SymCsc) {
    let t0 = EliminationTree::from_matrix(a);
    let p = Permutation::from_old_of(t0.postorder()).unwrap();
    let ap = a.permute(&p);
    let t = EliminationTree::from_matrix(&ap);
    let counts = col_counts(&ap, &t);
    let id = Permutation::identity(ap.n());
    let g = a.to_graph();
    for fundamental in [false, true] {
        let sn = find_supernodes(&t, &counts, fundamental);
        for cap in [0.0, 0.25, 1e9] {
            // `m.rows` is `supernode_rows(&g, &m.sn, &m.perm ∘ p)`.
            let m = merge_supernodes(&g, &p, &t, &counts, &sn, cap);
            let explicit = supernode_rows(&ap.permute(&m.perm).to_graph(), &m.sn, &id);
            assert_eq!(m.rows, explicit, "fundamental {fundamental} cap {cap}");
            let stored: u64 = (0..m.sn.nsup())
                .map(|s| storage(m.sn.ncols(s), m.rows[s].len()))
                .sum();
            assert_eq!(stored, m.base_storage + m.extra_fill);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn etree_parents_are_above(a in arb_sym(48)) {
        let t = EliminationTree::from_matrix(&a);
        for (j, &p) in t.parent.iter().enumerate() {
            prop_assert!(p == NONE || p > j);
        }
        let post = t.postorder();
        prop_assert!(t.is_postorder(&post));
    }

    #[test]
    fn counts_match_reference(a in arb_sym(48)) {
        let t = EliminationTree::from_matrix(&a);
        prop_assert_eq!(col_counts(&a, &t), col_counts_reference(&a, &t));
    }

    #[test]
    fn supernode_structures_consistent_after_postorder(a in arb_sym(40)) {
        // Postorder first (supernode detection expects postordered input
        // for maximality, and rows computation for contiguity).
        let t0 = EliminationTree::from_matrix(&a);
        let p = rlchol_sparse::Permutation::from_old_of(t0.postorder()).unwrap();
        let ap = a.permute(&p);
        let t = EliminationTree::from_matrix(&ap);
        let counts = col_counts(&ap, &t);
        for fundamental in [false, true] {
            let sn = find_supernodes(&t, &counts, fundamental);
            let rows = supernode_rows(&ap.to_graph(), &sn, &Permutation::identity(ap.n()));
            prop_assert_eq!(check_against_counts(&sn, &rows, &counts), None);
        }
    }

    #[test]
    fn graph_analysis_equals_analysis_of_the_permuted_copy(
        loose in arb_loose(40),
        b in arb_sym(40),
        c in arb_bushy(40),
    ) {
        check_graph_analysis(&loose.0, &loose.1);
        // The connected generators under a reversal, a random-looking
        // permutation the fill ordering would not produce.
        for m in [&b, &c] {
            let rev = Permutation::from_old_of((0..m.n()).rev().collect()).unwrap();
            check_graph_analysis(m, &rev);
        }
    }

    #[test]
    fn merged_rows_read_through_the_merge_permutation(a in arb_sym(40), b in arb_bushy(40)) {
        check_row_map(&a);
        check_row_map(&b);
    }

    #[test]
    fn fundamental_refines_maximal(a in arb_sym(40)) {
        let t0 = EliminationTree::from_matrix(&a);
        let p = rlchol_sparse::Permutation::from_old_of(t0.postorder()).unwrap();
        let ap = a.permute(&p);
        let t = EliminationTree::from_matrix(&ap);
        let counts = col_counts(&ap, &t);
        let coarse = find_supernodes(&t, &counts, false);
        let fine = find_supernodes(&t, &counts, true);
        prop_assert!(fine.nsup() >= coarse.nsup());
        for &b in &coarse.sn_start {
            prop_assert!(fine.sn_start.contains(&b));
        }
    }

    #[test]
    fn analyze_invariants_and_relind_coverage(a in arb_sym(36)) {
        let sym = analyze(&a, &SymbolicOptions::default());
        sym.validate().unwrap();
        // Every supernode's full row tail must locate inside each target
        // ancestor's index list (the assembly invariant).
        for s in 0..sym.nsup() {
            let rows = &sym.rows[s];
            let mut k = 0;
            while k < rows.len() {
                let target = sym.sn.col_to_sn[rows[k]];
                let end = sym.sn.end_col(target);
                let hi = rows.partition_point(|&r| r < end);
                let rel = relative_indices(
                    &rows[k..],
                    sym.sn.first_col(target),
                    sym.sn_ncols(target),
                    &sym.rows[target],
                );
                // Positions are strictly increasing and within bounds.
                let len = sym.sn_len(target);
                for w in rel.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
                for &r in &rel {
                    prop_assert!(r < len);
                }
                k = hi;
            }
        }
    }

    #[test]
    fn merge_never_loses_columns(a in arb_sym(36)) {
        for cap in [0.0, 0.25, 2.0] {
            let sym = analyze(&a, &SymbolicOptions {
                merge: true,
                merge_growth_cap: cap,
                partition_refine: false,
                ..SymbolicOptions::default()
            });
            prop_assert_eq!(sym.sn.n(), a.n());
            sym.validate().unwrap();
        }
    }
}
