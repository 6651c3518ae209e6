//! # rlchol-core — right-looking supernodal sparse Cholesky
//!
//! The paper's contribution: serial right-looking supernodal Cholesky
//! factorization in two variants, each with CPU-only and GPU-accelerated
//! engines (the GPU being the simulated runtime of `rlchol-gpu`):
//!
//! * **RL** (§II-A) — after factoring the current supernode (DPOTRF +
//!   DTRSM), its entire update matrix is formed with **one DSYRK** into a
//!   preallocated workspace and scattered into ancestor supernodes using
//!   relative indices.
//! * **RLB** (§II-B) — the update is decomposed into per-row-block DSYRK
//!   and DGEMM calls that (on CPU) write **directly into factor storage**,
//!   needing no update workspace and only one generalized relative index
//!   per block.
//! * **GPU-RL** (§III) — the supernode is copied to the device, factored
//!   there, copied back asynchronously while the device runs the coarse
//!   DSYRK, and the update matrix is returned for (parallelizable) host
//!   assembly.
//! * **GPU-RLB v1/v2** (§III) — per-block updates on the device; v1
//!   batches all of a supernode's block updates into one device→host
//!   transfer, v2 returns each block as soon as it is computed (lower
//!   device memory footprint — the variant that can factor `nlpkkt120`).
//! * **Hybrid dispatch** (§III) — supernodes whose size (columns ×
//!   length) falls below a threshold stay on the CPU, because the
//!   transfer cost dwarfs their compute.
//!
//! Every engine is reached through [`engine_for`]`(`[`Method`]`)` — the
//! registry is the only public entry to a numeric factorization; the
//! per-engine functions are crate-private. [`simplicial`] is the
//! kernel-independent column-by-column oracle the engines are tested
//! against.
//!
//! * **One CPU tree executor** ([`sched::cpu`]) — every CPU method, RL
//!   or RLB, runs over the supernodal elimination tree at
//!   `SolverOptions::threads` lanes: independent subtrees factor
//!   concurrently, each target takes its updates in ascending source
//!   order (the same bits at any lane count), and large BLAS calls split
//!   across the persistent pool inside `rlchol-dense` (`RLCHOL_THREADS`
//!   lanes; see its crate docs).
//! * **Pipelined multi-stream GPU engines** ([`sched::gpu`]) — the same
//!   elimination-tree dependency machinery ([`sched::driver`]) drives
//!   out-of-order dispatch of ready supernodes onto `RLCHOL_STREAMS`
//!   simulated compute/copy stream pairs, with per-target ascending-source
//!   update order keeping the factor bit-identical to the single-stream
//!   engines under either retirement discipline.
//! * **Supernodal triangular solves** ([`solve`]) — one serial forward
//!   and one backward sweep for any number of right-hand sides: each
//!   panel is read once per sweep, and column `j` of a many-RHS solve
//!   has the bits of solving column `j` alone.
//! * **Lane-pooled concurrent factorization** ([`staged::lanes`]) — a
//!   [`SymbolicCholesky`](staged::SymbolicCholesky) handle is
//!   `Send + Sync` and owns `RLCHOL_FACTOR_LANES` independent engine
//!   workspaces, so many threads factor different value sets of one
//!   pattern concurrently (or
//!   [`batch_factor`](staged::SymbolicCholesky::batch_factor) fans a
//!   batch across the lanes), each result bit-identical to the serial
//!   path.
//!
//! The [`solver::CholeskySolver`] ties ordering, symbolic analysis,
//! numeric factorization and triangular solves into the end-to-end
//! pipeline a user would call.

pub mod assemble;
pub mod engine;
pub mod error;
#[cfg(test)]
mod fresh;
pub mod gpu_rl;
pub mod gpu_rlb;
pub mod json;
pub mod registry;
pub mod resilience;
pub mod rl;
pub mod rlb;
pub mod sched;
pub mod simplicial;
pub mod solve;
pub mod solver;
pub mod staged;
pub mod storage;

pub use engine::{GpuOptions, Method};
pub use error::{FactorError, SolveError};
pub use registry::{engine_for, EngineRun, EngineWorkspace, FactorInfo, NumericEngine};
pub use resilience::{
    CancelToken, Deadline, FallbackChain, RecoveryAction, RecoveryEvent, RetryPolicy, RunCtl,
};
pub use solve::SolveInfo;
pub use solver::{CholeskySolver, SolverOptions};
pub use staged::lanes::LaneStats;
pub use staged::{AnalyzeBreakdown, Factorization, SolveWorkspace, SymbolicCholesky};
pub use storage::FactorData;
