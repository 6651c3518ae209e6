//! Planned supernodal triangular solves — the "use the factors to
//! compute the solution" half of the pipeline, as a subsystem.
//!
//! Once factorization scales across threads and streams and the staged
//! API amortizes analysis over many factor/solve calls, the serial
//! forward/backward substitution is the last serial stage on the
//! repeated-solve hot path. This module splits the solve path into
//! three layers:
//!
//! * [`plan`] — the [`SolvePlan`]: level sets of supernodes derived
//!   from the elimination-tree dependency structure (the same structure
//!   the [frontier driver](crate::sched::driver) schedules the numeric
//!   factorization with), the per-supernode incoming *gather* segments
//!   that re-orient the forward sweep so parallel tasks write disjoint
//!   entries, and per-level equal-cost slice boundaries. Pattern-only:
//!   computed once in `CholeskySolver::analyze`, cached on the
//!   `SymbolicCholesky` handle.
//! * [`serial`] — the reference sweeps (single and blocked multi-RHS).
//!   Production path for small systems and single-lane configurations,
//!   and the bit-for-bit specification of every parallel path.
//! * [`levelset`] — the tree-parallel sweeps: each level's supernodes
//!   are dispatched onto [`rlchol_dense::pool`] through the
//!   allocation-free `run_for` parallel-for, with a barrier between
//!   levels. **Bit-identical to the serial sweeps at any thread count**
//!   (disjoint-target writes within a level; no reassociation), and
//!   zero-allocation after warm-up, like the rest of the staged solve
//!   path.
//!
//! Path selection lives in the staged layer
//! ([`SymbolicCholesky`](crate::SymbolicCholesky)): an explicit
//! `SolverOptions::solve_threads` wins, else the
//! **`RLCHOL_SOLVE_THREADS`** environment variable, else an automatic
//! heuristic (parallel only when the pool has lanes, the tree has level
//! width, and the system is big enough to beat the barrier overhead).
//! [`SolveInfo`] reports the decision alongside the plan shape.

pub mod levelset;
pub mod plan;
pub mod serial;

pub use levelset::{solve_backward_level_set, solve_forward_level_set};
pub use plan::SolvePlan;
pub use serial::{
    solve, solve_backward, solve_backward_multi, solve_forward, solve_forward_multi, solve_multi,
};

/// Systems below this dimension always take the serial path under
/// automatic selection: a level barrier costs roughly a condvar
/// round-trip, which a small triangular solve cannot amortize.
pub(crate) const AUTO_MIN_N: usize = 512;

/// How the planned solve path will run for one handle — the solve-side
/// analogue of [`FactorInfo`](crate::registry::FactorInfo). Produced by
/// `SymbolicCholesky::solve_info`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolveInfo {
    /// Level sets in the plan (the supernodal tree height).
    pub levels: usize,
    /// Supernodes in the widest level (1 on path-shaped trees: no
    /// parallelism to exploit).
    pub max_width: usize,
    /// Resolved lane count the sweeps will use.
    pub threads: usize,
    /// Whether solves take the level-set (tree-parallel) path; `false`
    /// means the serial sweeps.
    pub level_set: bool,
    /// Always `false`: the barriered level sets are the only parallel
    /// dispatcher. The field stays because the repository benchmark
    /// matches on it.
    pub async_dispatch: bool,
}

/// `RLCHOL_SOLVE_THREADS` if set to a positive integer.
pub(crate) fn env_solve_threads() -> Option<usize> {
    rlchol_dense::pool::env_positive("RLCHOL_SOLVE_THREADS")
}
