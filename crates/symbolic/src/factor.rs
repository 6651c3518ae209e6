//! The symbolic-analysis driver: postorder → supernodes → merge → PR.
//!
//! [`analyze`] consumes a symmetrically permuted SPD matrix (typically the
//! output of a fill-reducing ordering) and produces a [`SymbolicFactor`]:
//! everything the numeric engines need, plus the composed permutation the
//! caller must apply to the matrix before loading numeric values.

use std::time::{Duration, Instant};

use crate::blocks::{row_blocks, RowBlock};
use crate::colcount::col_counts_par;
use crate::etree::EliminationTree;
use crate::merge::merge_supernodes;
use crate::pr::refine_partition;
use crate::supernodes::{find_supernodes, supernodal_etree, supernode_rows};
use crate::NONE;
use rlchol_sparse::{Permutation, SymCsc};

/// Options controlling the symbolic pipeline (defaults follow the paper).
#[derive(Debug, Clone, Copy)]
pub struct SymbolicOptions {
    /// Use fundamental (finer) supernodes instead of maximal ones.
    pub fundamental: bool,
    /// Run relaxed supernode amalgamation.
    pub merge: bool,
    /// Storage growth cap for amalgamation (paper: 0.25 = 25 %).
    pub merge_growth_cap: f64,
    /// Run partition-refinement column reordering within supernodes.
    pub partition_refine: bool,
}

impl Default for SymbolicOptions {
    fn default() -> Self {
        SymbolicOptions {
            fundamental: false,
            merge: true,
            merge_growth_cap: 0.25,
            partition_refine: true,
        }
    }
}

/// Wall time of each symbolic stage, reported by
/// [`analyze_instrumented`] so first-contact latency can be attributed
/// (the service's cache-miss path and the CLI `analyze` breakdown).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyzeStages {
    /// Elimination tree + postorder + the postorder permute (the fused
    /// serial front of the pipeline).
    pub etree: Duration,
    /// Exact column counts (parallel when `threads > 1`).
    pub colcount: Duration,
    /// Supernode detection, row structures, amalgamation and partition
    /// refinement.
    pub merge: Duration,
    /// Per-supernode row-block decomposition, supernodal etree and the
    /// nnz/flop totals (parallel when `threads > 1`).
    pub relind: Duration,
}

/// Aggregate statistics of the symbolic phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SymbolicStats {
    /// Supernodes before amalgamation.
    pub nsup_before_merge: usize,
    /// Pairwise merges performed.
    pub merges: usize,
    /// Explicit zeros introduced by amalgamation (factor entries).
    pub merge_extra_fill: u64,
    /// Row blocks before partition refinement.
    pub blocks_before_pr: usize,
    /// Row blocks after partition refinement.
    pub blocks_after_pr: usize,
}

/// The symbolic factorization: supernode partition, row structures,
/// supernodal elimination tree, block decomposition and size/flop counts.
///
/// `PartialEq` compares every field (including the composed permutation
/// and the per-supernode block lists), which is how the parallel-analyze
/// tests assert bit-identity against the serial pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SymbolicFactor {
    /// Matrix dimension.
    pub n: usize,
    /// Composed permutation from the *input* ordering of [`analyze`] to
    /// the final factor ordering (postorder ∘ merge ∘ PR). Apply to the
    /// input matrix before numeric factorization.
    pub perm: Permutation,
    /// Supernode partition in factor ordering.
    pub sn: crate::supernodes::SupernodePartition,
    /// Below-diagonal row structure per supernode (sorted, factor order).
    pub rows: Vec<Vec<usize>>,
    /// Supernodal elimination tree (parent supernode or [`NONE`]).
    pub sn_parent: Vec<usize>,
    /// Row-block decomposition per supernode (what RLB iterates over).
    pub blocks: Vec<Vec<RowBlock>>,
    /// Factor nonzeros (lower triangle incl. diagonal, with explicit
    /// zeros from amalgamation).
    pub nnz: u64,
    /// Factorization flops (POTRF + TRSM + SYRK per supernode).
    pub flops: f64,
    /// Phase statistics.
    pub stats: SymbolicStats,
}

impl SymbolicFactor {
    /// Number of supernodes.
    pub fn nsup(&self) -> usize {
        self.sn.nsup()
    }

    /// Column count of supernode `s`.
    pub fn sn_ncols(&self, s: usize) -> usize {
        self.sn.ncols(s)
    }

    /// Below-diagonal row count of supernode `s`.
    pub fn sn_nrows_below(&self, s: usize) -> usize {
        self.rows[s].len()
    }

    /// Length (dense array row dimension) of supernode `s`: columns plus
    /// below-diagonal rows.
    pub fn sn_len(&self, s: usize) -> usize {
        self.sn_ncols(s) + self.rows[s].len()
    }

    /// The paper's "supernode size": number of columns × length. This is
    /// the quantity compared against the CPU/GPU offload threshold
    /// (600 000 for RL, 750 000 for RLB in the paper's runs).
    pub fn sn_size(&self, s: usize) -> usize {
        self.sn_ncols(s) * self.sn_len(s)
    }

    /// Dense storage (in `f64` entries) of supernode `s`'s array.
    pub fn sn_storage(&self, s: usize) -> usize {
        self.sn_size(s)
    }

    /// Size (entries) of the dense update matrix RL computes for `s`:
    /// a `r x r` lower triangle stored as a full square array.
    pub fn update_matrix_entries(&self, s: usize) -> usize {
        let r = self.rows[s].len();
        r * r
    }

    /// Largest update matrix over all supernodes (drives RL's temporary
    /// storage, and its GPU memory footprint).
    pub fn max_update_matrix_entries(&self) -> usize {
        (0..self.nsup())
            .map(|s| self.update_matrix_entries(s))
            .max()
            .unwrap_or(0)
    }

    /// Total dense storage of all supernode arrays.
    pub fn total_storage_entries(&self) -> u64 {
        (0..self.nsup()).map(|s| self.sn_storage(s) as u64).sum()
    }

    /// Heap bytes held by the symbolic structure itself: the composed
    /// permutation, the supernode partition and tree, the per-supernode
    /// row lists and row-block decompositions. Counts element storage
    /// (plus the per-`Vec` headers of the jagged lists), not allocator
    /// slack — the estimate a cache accounting resident handles needs.
    pub fn memory_bytes(&self) -> u64 {
        let usz = std::mem::size_of::<usize>() as u64;
        let vec_hdr = 3 * usz;
        let mut bytes = 2 * self.n as u64 * usz; // perm: old_of + new_of
        bytes += (self.sn.sn_start.len() + self.sn.col_to_sn.len()) as u64 * usz;
        bytes += self.sn_parent.len() as u64 * usz;
        for rows in &self.rows {
            bytes += vec_hdr + rows.len() as u64 * usz;
        }
        let block = std::mem::size_of::<RowBlock>() as u64;
        for blocks in &self.blocks {
            bytes += vec_hdr + blocks.len() as u64 * block;
        }
        bytes
    }

    /// Internal consistency check (debug/test helper). Verifies partition
    /// validity, row ordering, topological rows, and block coverage.
    pub fn validate(&self) -> Result<(), String> {
        if self.sn.n() != self.n {
            return Err("partition does not cover n columns".into());
        }
        for s in 0..self.nsup() {
            let last = self.sn.end_col(s) - 1;
            let rows = &self.rows[s];
            for w in rows.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("rows of supernode {s} not sorted"));
                }
            }
            if let Some(&first) = rows.first() {
                if first <= last {
                    return Err(format!("supernode {s} has row above its last column"));
                }
                let p = self.sn.col_to_sn[first];
                if self.sn_parent[s] != p {
                    return Err(format!("supernode {s} parent mismatch"));
                }
            } else if self.sn_parent[s] != NONE {
                return Err(format!("rootless supernode {s} has a parent"));
            }
            let covered: usize = self.blocks[s].iter().map(|b| b.len).sum();
            if covered != rows.len() {
                return Err(format!("blocks of supernode {s} do not cover its rows"));
            }
        }
        Ok(())
    }
}

/// Flops of factoring one supernode with `c` columns and `r` rows below:
/// dense POTRF on the `c x c` triangle, TRSM on the `r x c` panel, and the
/// SYRK forming its `r x r` update.
pub fn supernode_flops(c: usize, r: usize) -> f64 {
    let (c, r) = (c as f64, r as f64);
    let potrf = c * c * c / 3.0 + c * c / 2.0 + c / 6.0;
    let trsm = r * c * c;
    let syrk = c * r * (r + 1.0);
    potrf + trsm + syrk
}

/// Runs the full symbolic pipeline on a (fill-ordered) matrix.
pub fn analyze(a: &SymCsc, opts: &SymbolicOptions) -> SymbolicFactor {
    analyze_par(a, opts, 1)
}

/// [`analyze`] with the count/relind stages split into `threads`
/// chunks on [`rlchol_dense::pool`]. The result is **bit-identical** to
/// the serial pipeline at every thread count — parallelism only moves
/// independent per-row walks and per-supernode decompositions between
/// lanes (see [`col_counts_par`]); `threads <= 1` *is* the serial path.
pub fn analyze_par(a: &SymCsc, opts: &SymbolicOptions, threads: usize) -> SymbolicFactor {
    analyze_instrumented(a, opts, threads).0
}

/// [`analyze_par`] that also reports per-stage wall times.
pub fn analyze_instrumented(
    a: &SymCsc,
    opts: &SymbolicOptions,
    threads: usize,
) -> (SymbolicFactor, AnalyzeStages) {
    let n = a.n();
    let mut stages = AnalyzeStages::default();
    // Phase 1: postorder so supernodes come out contiguous. The
    // postordered matrix's etree is the *relabelled* original tree
    // (Liu: equivalent — topological — reorderings preserve the
    // elimination tree), so the second `from_matrix` traversal the
    // pipeline used to run is fused into a single relabel pass.
    let t = Instant::now();
    let t0 = EliminationTree::from_matrix(a);
    let post = t0.postorder();
    let t1 = EliminationTree {
        parent: t0.relabel(&post),
    };
    let p1 = Permutation::from_old_of(post).expect("postorder is a bijection");
    let a1 = a.permute(&p1);
    stages.etree = t.elapsed();

    // Phase 2: counts and supernodes on the postordered matrix.
    let t = Instant::now();
    let counts = col_counts_par(&a1, &t1, threads);
    stages.colcount = t.elapsed();
    let t = Instant::now();
    let sn0 = find_supernodes(&t1, &counts, opts.fundamental);
    let rows0 = supernode_rows(&a1, &sn0);
    let nsup_before_merge = sn0.nsup();

    // Phase 3: amalgamation. Note that even a cap of 0.0 performs *free*
    // merges (e.g. a child whose rows are exactly its parent's columns,
    // made adjacent by the accompanying topological reordering), so
    // `merge: false` skips the phase entirely.
    let (p2, sn1, rows1, merges, merge_extra_fill) = if opts.merge {
        let m = merge_supernodes(&sn0, &rows0, opts.merge_growth_cap);
        (m.perm, m.sn, m.rows, m.merges, m.extra_fill)
    } else {
        (Permutation::identity(n), sn0, rows0, 0, 0)
    };

    // Phase 4: partition refinement within supernodes.
    let (p3, sn2, rows2, blocks_before_pr, blocks_after_pr) = if opts.partition_refine {
        let r = refine_partition(&sn1, &rows1);
        (r.perm, sn1, r.rows, r.blocks_before, r.blocks_after)
    } else {
        let b = crate::blocks::total_blocks(&rows1, &sn1);
        (Permutation::identity(n), sn1, rows1, b, b)
    };

    // Compose: input → postorder → merge-reorder → PR.
    let perm = p3.compose(&p2).compose(&p1);
    stages.merge = t.elapsed();

    // Phase 5: per-supernode structure — the supernodal tree, the
    // row-block decompositions RLB iterates over, and the size totals.
    // Each supernode's decomposition is independent, so `threads > 1`
    // fills contiguous chunks of the `blocks` table on the pool (every
    // slot computed by the same `row_blocks` call as the serial loop).
    let t = Instant::now();
    let sn_parent = supernodal_etree(&sn2, &rows2);
    let nsup = sn2.nsup();
    let mut blocks: Vec<Vec<RowBlock>> = Vec::with_capacity(nsup);
    if threads > 1 && nsup >= 2 * threads {
        blocks.resize_with(nsup, Vec::new);
        let chunk = nsup.div_ceil(threads);
        let sn_ref = &sn2;
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = blocks
            .chunks_mut(chunk)
            .zip(rows2.chunks(chunk))
            .map(|(bs, rs)| {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    for (b, r) in bs.iter_mut().zip(rs) {
                        *b = row_blocks(r, sn_ref);
                    }
                });
                task
            })
            .collect();
        rlchol_dense::pool::global().run(tasks);
    } else {
        blocks.extend(rows2.iter().map(|r| row_blocks(r, &sn2)));
    }
    let mut nnz = 0u64;
    let mut flops = 0.0f64;
    for s in 0..nsup {
        let c = sn2.ncols(s);
        let r = rows2[s].len();
        nnz += (c * (c + 1) / 2 + c * r) as u64;
        flops += supernode_flops(c, r);
    }
    stages.relind = t.elapsed();

    let factor = SymbolicFactor {
        n,
        perm,
        sn: sn2,
        rows: rows2,
        sn_parent,
        blocks,
        nnz,
        flops,
        stats: SymbolicStats {
            nsup_before_merge,
            merges,
            merge_extra_fill,
            blocks_before_pr,
            blocks_after_pr,
        },
    };
    (factor, stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supernodes::paper_fig1_edges;
    use rlchol_sparse::TripletMatrix;

    fn sym_from_edges(n: usize, edges: &[(usize, usize)]) -> SymCsc {
        let mut t = TripletMatrix::new(n, n);
        for j in 0..n {
            t.push(j, j, 4.0);
        }
        for &(i, j) in edges {
            t.push(i.max(j), i.min(j), -1.0);
        }
        SymCsc::from_lower_triplets(&t).unwrap()
    }

    fn opts_plain() -> SymbolicOptions {
        SymbolicOptions {
            fundamental: false,
            merge: false,
            merge_growth_cap: 0.0,
            partition_refine: false,
        }
    }

    #[test]
    fn fig1_analyze_no_merge_matches_paper() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        let f = analyze(&a, &opts_plain());
        f.validate().unwrap();
        assert_eq!(f.nsup(), 6);
        // Supernode widths multiset {2,2,3,2,3,3}.
        let mut widths: Vec<usize> = (0..f.nsup()).map(|s| f.sn_ncols(s)).collect();
        widths.sort_unstable();
        assert_eq!(widths, vec![2, 2, 2, 3, 3, 3]);
        // Factor entries: per supernode triangles + rectangles.
        assert!(f.nnz > 0);
        assert!(f.flops > 0.0);
    }

    #[test]
    fn analyze_with_all_phases_remains_valid() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        let f = analyze(&a, &SymbolicOptions::default());
        f.validate().unwrap();
        assert!(f.nsup() <= 6);
        assert!(f.stats.blocks_after_pr <= f.stats.blocks_before_pr);
    }

    /// Random connected SPD-shaped pattern for the parallel sweeps.
    fn random_sym(n: usize, seed: u64) -> SymCsc {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for i in 1..n {
            edges.push((i, rng.random_range(0..i)));
            for _ in 0..2 {
                let a = rng.random_range(0..n);
                let b = rng.random_range(0..n);
                if a != b {
                    edges.push((a.max(b), a.min(b)));
                }
            }
        }
        sym_from_edges(n, &edges)
    }

    #[test]
    fn analyze_par_is_bit_identical_to_serial() {
        for (n, seed) in [(15usize, 1u64), (60, 2), (150, 3)] {
            let a = if seed == 1 {
                sym_from_edges(15, &paper_fig1_edges())
            } else {
                random_sym(n, seed)
            };
            for opts in [opts_plain(), SymbolicOptions::default()] {
                let serial = analyze(&a, &opts);
                for threads in [2usize, 4, 8] {
                    let par = analyze_par(&a, &opts, threads);
                    assert_eq!(par, serial, "n={n} threads={threads} opts={opts:?}");
                }
            }
        }
    }

    #[test]
    fn postorder_relabel_matches_refactoring_the_permuted_matrix() {
        // The fused etree pass rests on this identity: the permuted
        // matrix's tree IS the relabelled original tree.
        for seed in [4u64, 5, 6] {
            let a = random_sym(80, seed);
            let t0 = EliminationTree::from_matrix(&a);
            let post = t0.postorder();
            let relabelled = t0.relabel(&post);
            let p1 = Permutation::from_old_of(post).unwrap();
            let a1 = a.permute(&p1);
            assert_eq!(
                relabelled,
                EliminationTree::from_matrix(&a1).parent,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn instrumented_stages_cover_the_pipeline() {
        let a = random_sym(120, 9);
        let (f, stages) = analyze_instrumented(&a, &SymbolicOptions::default(), 2);
        f.validate().unwrap();
        // Every stage ran (durations are measured, possibly tiny).
        let total = stages.etree + stages.colcount + stages.merge + stages.relind;
        assert!(total > Duration::ZERO);
    }

    #[test]
    fn permutation_round_trips_matrix_values() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        let f = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&f.perm);
        for i in 0..15 {
            for j in 0..15 {
                assert_eq!(
                    ap.get(f.perm.new_of(i), f.perm.new_of(j)),
                    a.get(i, j),
                    "entry ({i},{j}) lost under composed permutation"
                );
            }
        }
    }

    #[test]
    fn merging_only_grows_storage_within_cap() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        let plain = analyze(&a, &opts_plain());
        let merged = analyze(
            &a,
            &SymbolicOptions {
                merge: true,
                merge_growth_cap: 0.25,
                ..opts_plain()
            },
        );
        assert!(merged.nnz >= plain.nnz);
        assert!((merged.nnz as f64) <= (plain.nnz as f64) * 1.25 + 1.0);
        assert!(merged.nsup() <= plain.nsup());
    }

    #[test]
    fn update_matrix_sizing() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        let f = analyze(&a, &opts_plain());
        // Largest below-diagonal row count is 3 → update matrix 3x3 = 9.
        assert_eq!(f.max_update_matrix_entries(), 9);
        assert!(f.total_storage_entries() > 0);
    }

    #[test]
    fn supernode_size_is_cols_times_length() {
        let a = sym_from_edges(15, &paper_fig1_edges());
        let f = analyze(&a, &opts_plain());
        for s in 0..f.nsup() {
            assert_eq!(f.sn_size(s), f.sn_ncols(s) * f.sn_len(s));
        }
    }

    #[test]
    fn flops_formula_small_cases() {
        // c=1, r=0: a single sqrt bucket.
        assert!((supernode_flops(1, 0) - 1.0).abs() < 1e-12);
        // Larger supernodes dominate cubically.
        assert!(supernode_flops(100, 0) > supernode_flops(10, 0) * 100.0);
    }
}
