//! # rlchol-matgen — synthetic SPD matrices and the paper's test suite
//!
//! The paper evaluates on 21 SuiteSparse matrices with `n ≥ 600 000`
//! (§IV-A). Those inputs are not redistributable here, so this crate
//! generates **structural analogues at ~1/40 linear scale** (the scaled
//! experiment constants are [`suite::SuiteConfig`]'s): parameterized
//! FE-style grids whose supernode-size distributions
//! drive the same experimental phenomena — how much factorization work
//! sits above/below the GPU-offload threshold, how large the biggest
//! update matrix is (device-memory pressure), and how many small
//! supernodes the bottom of the tree carries.
//!
//! * [`grid`] — 2-D/3-D grids with 5/7/9/27-point stencils, multiple
//!   degrees of freedom per node (vector problems like audikw/Flan), and
//!   anisotropic shapes (Long_Coup vs Cube_Coup);
//! * [`kkt`] — a PDE-constrained-optimization KKT pattern (the nlpkkt
//!   family) whose dual block doubles the separators — giving it the
//!   largest update matrix of the suite, which is what makes the paper's
//!   nlpkkt120 exceed RL's GPU memory;
//! * [`values`] — deterministic diagonally dominant SPD value assignment;
//! * [`suite`] — the named 21-matrix suite mapping each paper matrix to
//!   a generator configuration.

pub mod grid;
pub mod kkt;
pub mod suite;
pub mod values;

pub use grid::{grid2d, grid3d, perturbed_grid3d, Stencil};
pub use kkt::{kkt3d, kkt3d_aniso};
pub use suite::{paper_suite, SuiteEntry};
pub use values::spd_from_edges;

use rlchol_sparse::SymCsc;

/// Convenience: scalar 2-D 5-point Laplacian-like SPD matrix.
pub fn laplace2d(k: usize, seed: u64) -> SymCsc {
    grid2d(k, k, Stencil::Star5, 1, seed)
}

/// Convenience: scalar 3-D 7-point Laplacian-like SPD matrix.
pub fn laplace3d(k: usize, seed: u64) -> SymCsc {
    grid3d(k, k, k, Stencil::Star7, 1, seed)
}
