//! Supernodal triangular solves — the "use the factors to compute the
//! solution" half of the pipeline.
//!
//! [`serial`] holds the one forward and one backward sweep. Both take
//! any number `k` of column-major right-hand sides, read each panel
//! column once per sweep whatever `k`, and give column `j` of a
//! `k`-wide solve the bits of solving column `j` alone. The staged
//! handle ([`SymbolicCholesky`](crate::SymbolicCholesky)) runs them in
//! caller buffers over a reusable workspace.

pub mod serial;

pub use serial::{solve, solve_backward, solve_forward};

/// What the repository benchmark reads of the solve path. Solves run
/// one serial sweep, so it is always
/// `SolveInfo { threads: 1, level_set: false, async_dispatch: false }`;
/// it goes with ROADMAP item 0(d), which stops the benchmark reading it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveInfo {
    /// Always 1.
    pub threads: usize,
    /// Always `false`.
    pub level_set: bool,
    /// Always `false`.
    pub async_dispatch: bool,
}
