//! # rlchol-gpu — a simulated GPU runtime
//!
//! The paper offloads BLAS calls to an NVIDIA A100 through MAGMA/CUDA.
//! This crate is the substitution: a CUDA-like runtime that is **a clock
//! over shapes**. It keeps no values and does no arithmetic; every
//! operation checks its ranges against the buffers' lengths, takes its
//! fault-plan ordinal and advances a **simulated clock** according to the
//! calibrated [`GpuModel`](rlchol_perfmodel::GpuModel). The factor itself
//! is computed on the host, by the CPU tree executor of `rlchol-core`,
//! after the simulation has priced the run:
//!
//! * [`Gpu::alloc`] — device memory with a hard capacity; exceeding it
//!   returns [`GpuError::OutOfMemory`], which is exactly how `nlpkkt120`
//!   fails under RL in Table I. A buffer is a length: no host memory
//!   backs it;
//! * [`Stream`]s — in-order queues with their own completion cursor;
//!   enqueue is asynchronous with respect to the host clock, so a
//!   device-to-host copy can overlap host assembly work the way the
//!   paper's second transfer does in GPU-RL (§III);
//! * [`Event`]s — cross-stream and host synchronization points;
//! * transfers ([`Gpu::memcpy_h2d`], [`Gpu::memcpy_d2h`]) priced by
//!   their byte counts, and kernels ([`Gpu::potrf`], [`Gpu::trsm_panel`],
//!   [`Gpu::syrk`], [`Gpu::gemm_nt`]) priced by their shapes, one launch
//!   overhead per call (the term that punishes RLB's many small calls
//!   relative to RL's single coarse DSYRK).
//!
//! The host side participates through [`Gpu::host_compute`] (CPU work
//! advances the host clock) and [`Gpu::synchronize`] /
//! [`Gpu::sync_stream`]; total simulated runtime is [`Gpu::elapsed`].
//!
//! ## Multi-stream pipelining
//!
//! Streams are cheap cursors, so engines may create as many compute/copy
//! pairs as they like and pipeline independent work across them; the
//! pipelined factorization engines size their pair count from
//! `RLCHOL_STREAMS` (see [`default_streams`]), mirroring how
//! `RLCHOL_THREADS` sizes the host thread pool. [`GpuStats`] keeps a
//! [`StreamStats`] breakdown per stream (kernel/transfer time and
//! counts), from which per-stream utilization over [`Gpu::elapsed`]
//! falls out directly. Note the model has no PCIe-contention term:
//! transfers on distinct streams overlap freely, as kernels do.

pub mod device;
pub mod error;
pub mod faults;
pub mod stats;

pub use device::{default_streams, Buffer, Event, Gpu, StreamId};
pub use error::GpuError;
pub use faults::{DeviceError, FaultKind, FaultPlan, FaultSpec};
pub use stats::{GpuStats, StreamRole, StreamStats};
