//! # rlchol-perfmodel — calibrated machine models and BLAS traces
//!
//! The paper's experiments ran on a Perlmutter node (2× AMD EPYC 7763 with
//! multithreaded MKL, one NVIDIA A100-40GB with MAGMA over CUDA). Neither
//! that GPU nor 128 CPU cores exist in this reproduction environment, so
//! timing is produced by *calibrated cost models* evaluated over the
//! exact BLAS-call/transfer sequence the factorization engines execute:
//!
//! * [`CpuModel`] — roofline-style: a call costs
//!   `overhead + flops / min(compute_rate, bandwidth · intensity)`, where
//!   the compute rate and achievable bandwidth scale sub-linearly with the
//!   thread count (MKL-like). Small calls are bandwidth/overhead bound,
//!   big calls approach peak — reproducing why small supernodes are not
//!   worth offloading and why the best thread count varies per matrix.
//! * [`GpuModel`] — the same roofline with A100-class constants plus a
//!   per-kernel launch overhead, and a PCIe-4.0-like transfer model
//!   (`latency + bytes / bandwidth`) — reproducing why GPU-only variants
//!   lose on small matrices (§IV-B) and why transfer *bandwidth*, not
//!   latency, separates the two RLB variants.
//!
//! [`TraceOp`] records one operation; engines emit traces that can be
//! replayed under any model (e.g. the CPU thread sweep 8…128 used for the
//! paper's "best CPU" baseline) without re-running numerics.

pub mod cpu;
pub mod gpu;
pub mod presets;
pub mod trace;

pub use cpu::CpuModel;
pub use gpu::{GpuModel, TransferDir};
pub use presets::{perlmutter_cpu, perlmutter_gpu, MachineModel, PAPER_THREAD_SWEEP};
pub use trace::{replay_cpu, Trace, TraceOp};
