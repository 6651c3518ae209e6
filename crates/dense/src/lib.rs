//! # rlchol-dense — dense BLAS/LAPACK kernels
//!
//! Pure-Rust, column-major dense kernels covering exactly the operations
//! the right-looking supernodal Cholesky algorithms of the paper invoke:
//!
//! * [`potrf`] — dense Cholesky factorization of a lower-triangular block
//!   (LAPACK `DPOTRF`), used to factor the diagonal block of a supernode;
//! * [`trsm_rlt`] — triangular solve `X Lᵀ = B` (BLAS `DTRSM`,
//!   right/lower/transpose), used to factor the rectangular part;
//! * [`syrk_ln`] — symmetric rank-k update `C += α A Aᵀ` on the lower
//!   triangle (BLAS `DSYRK`), used to compute update matrices;
//! * [`gemm_nt`] / [`gemm_nn`] — general matrix products (BLAS `DGEMM`),
//!   used for the off-diagonal blocks of RLB updates;
//! * [`trsm_lln`] / [`trsm_llt`] and [`trsv_ln`] / [`trsv_lt`] — forward
//!   and backward substitution for the solve phase.
//!
//! All kernels operate on column-major slices with an explicit leading
//! dimension (`lda`), mirroring the BLAS calling convention so the
//! simulated-GPU runtime can expose an identical interface. [`DMat`] is a
//! small owned column-major matrix used by tests, examples and supernode
//! storage.
//!
//! The GEMM path packs operands into contiguous panels (reused
//! thread-local buffers — the hot loop allocates nothing) and runs a
//! register-blocked micro-kernel; POTRF/TRSM/SYRK are blocked on top of it
//! (right-looking, as in LAPACK).
//!
//! ## Vector units
//!
//! The crate is built for the target's baseline, but on x86-64 the
//! factorization kernels run on the widest vector unit the host has:
//! the blocked GEMM loop (packing plus macro/micro-kernel), the SYRK
//! diagonal block, the unblocked TRSM and the unblocked POTRF are each
//! compiled three times — for AVX-512F, AVX2 and the baseline — and one
//! copy is picked per call with `is_x86_feature_detected!`. Other
//! targets compile the baseline only. The triangular solves (`trsv_*`,
//! `trsm_lln`/`trsm_llt`) are not dispatched.
//!
//! **Every copy gives the same bits**, so a factor does not depend on the
//! host it was computed on:
//!
//! * the copies are one Rust body compiled for different units, and Rust
//!   never contracts `a * b + c` into an FMA — the product and the sum
//!   round separately in each;
//! * the blocking constants are shared, and `KC` in particular fixes
//!   where the GEMM's sum over `k` is split (each `KC` block is summed in
//!   order, then `alpha * acc` is added to `C`), so it is not tuned per
//!   unit;
//! * the GEMM dispatch sits inside the thread-local packing-buffer
//!   closure, around the loops themselves. A closure is a function of its
//!   own, so a `#[target_feature]` copy wrapped around it would still run
//!   baseline loops.
//!
//! A unit test compares every copy the host supports with the baseline
//! bit for bit, and the root package's `tests/factor_pins.rs` pins the
//! factor bits of every deterministic engine.
//!
//! ## Parallelism
//!
//! The [`par`] wrappers (`par_gemm_nn`, `par_gemm_nt`, `par_syrk_ln`,
//! `par_trsm_rlt`) stripe the output and run the stripes on the
//! persistent work-stealing [`pool`] shared by the whole process. The
//! pool is sized by the **`RLCHOL_THREADS`** environment variable when it
//! is set to a positive integer, and by
//! [`std::thread::available_parallelism`] otherwise; the submitting
//! thread participates in execution, so `RLCHOL_THREADS=8` means eight
//! runnable lanes in total. (Its device-side sibling is
//! `RLCHOL_STREAMS`, which sizes the pipelined GPU engines' simulated
//! stream pairs — see `rlchol-gpu`'s crate docs.)

pub mod flops;
pub mod gemm;
mod isa;
pub mod mat;
pub mod par;
pub mod pool;
pub mod potrf;
pub mod syrk;
pub mod trsm;

pub use flops::{flops_gemm, flops_potrf, flops_syrk, flops_trsm};
pub use gemm::{gemm_nn, gemm_nt};
pub use mat::DMat;
pub use par::{par_gemm_nn, par_gemm_nt, par_syrk_ln, par_trsm_rlt};
pub use potrf::{par_potrf, potrf, PotrfError};
pub use syrk::syrk_ln;
pub use trsm::{trsm_lln, trsm_llt, trsm_rlt, trsv_ln, trsv_lt};

/// Default cache-block size for the blocked POTRF/TRSM/SYRK algorithms.
pub const NB: usize = 64;
