//! # rlchol-symbolic — symbolic analysis for supernodal sparse Cholesky
//!
//! Everything the numeric factorization needs to know about the *structure*
//! of the Cholesky factor `L` of a symmetrically permuted SPD matrix:
//!
//! * [`etree`] — the elimination tree (Liu) and postorderings, and
//!   [`etree::LowerRows`], the rows of `P A Pᵀ` read off `A`'s adjacency graph
//!   through `P`: the analysis never builds a permuted matrix;
//! * [`colcount`] — exact column counts of `L` via row-subtree traversal;
//! * [`supernodes`] — fundamental and maximal supernodes (Liu–Ng–Peyton)
//!   and the one builder of below-diagonal row structures, which reads
//!   the adjacency graph through a vertex map;
//! * [`merge`] — relaxed supernode amalgamation (Ashcraft–Grimes) with the
//!   paper's 25 % storage-growth cap and min-fill pair selection, run on
//!   per-supernode widths, row counts and parents taken from the column
//!   counts and elimination tree; rows are built once, for the merged
//!   partition;
//! * [`pr`] — partition-refinement reordering of columns *within*
//!   supernodes (Jacquelin–Ng–Peyton), which shrinks the number of
//!   row blocks RLB issues BLAS calls for;
//! * [`relind`] — relative indices `relind(J, J′)` (Schreiber) used to
//!   scatter updates from a supernode into its ancestors;
//! * [`blocks`] — the maximal dense row-block structure RLB iterates over;
//! * [`factor`] — the [`SymbolicFactor`](factor::SymbolicFactor) driver
//!   tying the phases together.
//!
//! The pipeline mirrors §IV-A of the paper: fundamental supernode
//! partition → supernode merging (stop at +25 % storage) → partition
//! refinement.

pub mod blocks;
pub mod colcount;
pub mod etree;
pub mod factor;
pub mod merge;
pub mod pr;
pub mod relind;
pub mod supernodes;

pub use etree::EliminationTree;
pub use factor::{
    analyze, analyze_instrumented, analyze_par, AnalyzeStages, SymbolicFactor, SymbolicOptions,
};
pub use supernodes::SupernodePartition;

/// Sentinel for "no parent" in tree arrays.
pub const NONE: usize = usize::MAX;
