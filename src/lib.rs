//! # rlchol — GPU-accelerated right-looking sparse Cholesky factorization
//!
//! A from-scratch Rust reproduction of *"GPU Accelerated Sparse Cholesky
//! Factorization"* (Karsavuran, Ng, Peyton — SC 2024, arXiv:2409.14009):
//! serial right-looking supernodal Cholesky in the paper's two variants
//! (**RL** with one coarse update matrix per supernode, **RLB** with
//! per-row-block updates), CPU-only and GPU-accelerated, on top of a
//! fully self-contained stack — sparse matrix types, fill-reducing
//! orderings, symbolic analysis with supernode amalgamation and partition
//! refinement, dense BLAS kernels, and a simulated GPU runtime with a
//! calibrated performance model (the [`gpu`] and [`perfmodel`] crate docs
//! describe the substitution that replaces the paper's A100).
//!
//! ## Quick start — the staged API
//!
//! The pipeline has two halves. **Analysis** (ordering + symbolic
//! factorization) depends only on the sparsity pattern; **numeric
//! factorization** depends on the values. [`CholeskySolver::analyze`]
//! runs the first half once and returns a [`SymbolicCholesky`] handle;
//! any matrix with the same pattern can then be factored
//! ([`SymbolicCholesky::factor_with`]) or re-factored **in place**
//! ([`SymbolicCholesky::refactor`] — no re-ordering, no re-analysis, no
//! factor reallocation), and solves run in caller buffers with zero
//! per-call heap allocation ([`SymbolicCholesky::solve_into`],
//! [`SymbolicCholesky::solve_many`],
//! [`SymbolicCholesky::solve_refined`]). Solves follow a
//! [`SolvePlan`](core::solve::SolvePlan) cached on the handle: level
//! sets of the elimination tree that let the forward/backward sweeps
//! run tree-parallel on wide trees — bit-identical to the serial sweeps
//! at any thread count (see `core::solve`):
//!
//! ```
//! use rlchol::{CholeskySolver, SolveWorkspace, SolverOptions};
//! use rlchol::matgen::{grid3d, Stencil};
//!
//! // Two SPD systems with the same pattern, different values — the
//! // shape of an interior-point or time-stepping serving loop.
//! let a0 = grid3d(6, 6, 4, Stencil::Star7, 1, 42);
//! let a1 = grid3d(6, 6, 4, Stencil::Star7, 1, 43);
//! let n = a0.n();
//!
//! // Analyze once ...
//! let handle = CholeskySolver::analyze(&a0, &SolverOptions::default());
//! // ... factor many (refactor reuses the factor storage) ...
//! let mut fact = handle.factor_with(&a0).unwrap();
//! handle.refactor(&mut fact, &a1).unwrap();
//! // ... solve many, allocation-free once the workspace is warm.
//! let mut ws = SolveWorkspace::warm(n, 1);
//! let b = vec![1.0; n];
//! let mut x = vec![0.0; n];
//! handle.solve_into(&fact, &b, &mut x, &mut ws).unwrap();
//!
//! // Check the residual of A1 x = b.
//! let mut ax = vec![0.0; n];
//! a1.matvec(&x, &mut ax);
//! let err = ax.iter().zip(&b).fold(0.0f64, |m, (&p, &q)| m.max((p - q).abs()));
//! assert!(err < 1e-8);
//! ```
//!
//! For one-off jobs, [`CholeskySolver::factor`] still runs both halves
//! in a single call and offers allocating `solve`/`solve_refined`
//! convenience methods.
//!
//! ## Sharing a handle across threads
//!
//! [`SymbolicCholesky`] is `Send + Sync` and every factorization entry
//! point takes `&self`, so one analyzed handle serves many threads at
//! once — the "analyze once, factor many, **concurrently**" shape of a
//! batch traffic server. Engine resources live in a pool of independent
//! *workspace lanes*: up to `factor_lanes` factorizations of different
//! value sets run truly in parallel (more callers briefly block for a
//! lane), and every result is **bit-identical to the serial path** for
//! every engine. Lanes are created lazily, so a handle used from one
//! thread pays for one lane. The lane count follows the usual
//! precedence: an explicit nonzero [`SolverOptions::factor_lanes`] wins,
//! else the **`RLCHOL_FACTOR_LANES`** environment variable, else the
//! pool default.
//!
//! ```
//! use std::sync::Arc;
//! use rlchol::{CholeskySolver, SolverOptions};
//! use rlchol::matgen::{grid3d, Stencil};
//!
//! let a0 = grid3d(5, 5, 4, Stencil::Star7, 1, 7);
//! let opts = SolverOptions { factor_lanes: 4, ..SolverOptions::default() };
//! let handle = Arc::new(CholeskySolver::analyze(&a0, &opts));
//!
//! // Threads factor distinct value sets of the same pattern concurrently.
//! let workers: Vec<_> = (0..4)
//!     .map(|t| {
//!         let handle = Arc::clone(&handle);
//!         std::thread::spawn(move || {
//!             let a = grid3d(5, 5, 4, Stencil::Star7, 1, 100 + t);
//!             handle.factor_with(&a).expect("SPD values")
//!         })
//!     })
//!     .collect();
//! for w in workers {
//!     w.join().unwrap();
//! }
//! assert!(handle.lane_stats().created <= 4);
//!
//! // Or hand a whole batch over and let it fan across the lanes.
//! let sets: Vec<_> = (0..8).map(|i| grid3d(5, 5, 4, Stencil::Star7, 1, 200 + i)).collect();
//! let refs: Vec<&rlchol::SymCsc> = sets.iter().collect();
//! let results = handle.batch_factor(&refs);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```
//!
//! ## Resilience — faults, fallbacks, retries, deadlines
//!
//! Device work can fail. The (simulated) GPU runtime surfaces failed
//! transfers, kernel faults, device OOM, and stream stalls as typed
//! [`DeviceError`]s, and the staged handle carries a degradation policy
//! that turns them into recoveries instead of lost factorizations:
//!
//! * [`SolverOptions::fallback`] — a [`FallbackChain`] of engines to
//!   re-run a failed factorization on, in order
//!   ([`FallbackChain::recommended`] ends every GPU engine's chain on a
//!   CPU engine with no device failure modes; `"rl-gpu>rl-cpu"` parses
//!   via `FromStr`).
//! * [`SolverOptions::retry`] — a [`RetryPolicy`] granting *transient*
//!   faults bounded retries on the same engine before the chain moves
//!   on.
//! * [`SolverOptions::deadline`] — a [`Deadline`] on wall-clock and/or
//!   simulated seconds, checked inside the executors so a stalled
//!   stream aborts with [`FactorError::DeadlineExceeded`] instead of
//!   hanging; [`SymbolicCholesky::cancel_token`] cancels in-flight and
//!   queued work from any thread ([`FactorError::Cancelled`]).
//!
//! Every recovery is recorded in [`FactorInfo::recovery`] as a
//! [`RecoveryEvent`], a workspace lane struck by a device fault or a
//! panic is **quarantined** (rebuilt on next checkout, counted in
//! [`LaneStats::quarantined`]), and the contract holds under any fault
//! schedule: a factorization returns a factor bit-identical to what the
//! serving engine produces on a clean run, or a typed error — never a
//! panic, a hang, or a silently wrong result.
//!
//! Faults are injected deterministically with a [`FaultPlan`]
//! ([`SolverOptions::faults`], or the **`RLCHOL_FAULTS`** environment
//! variable) using the grammar `transfer@N`, `kernel@N`, `oom@N`,
//! `stall@N=SECS`, `seed@SEED[#COUNT[/HORIZON]]`, comma-separated; a
//! `:t` suffix marks a fault transient (it fires once). Lane-checkout
//! waits are bounded by **`RLCHOL_LANE_WAIT_MS`** (typed
//! [`FactorError::LanesExhausted`] on expiry). The CLI mirrors all of
//! this: `rlchol factor --faults kernel@3:t --fallback auto
//! --deadline-ms 5000` prints each recovery event and the quarantine
//! count.
//!
//! ```
//! use rlchol::{
//!     CholeskySolver, FallbackChain, FaultPlan, GpuOptions, Method, RecoveryAction,
//!     RetryPolicy, SolverOptions,
//! };
//! use rlchol::matgen::{grid3d, Stencil};
//!
//! let a = grid3d(5, 5, 4, Stencil::Star7, 1, 11);
//! let opts = SolverOptions {
//!     method: Method::RlGpu,
//!     gpu: GpuOptions::with_threshold(0), // offload everything
//!     // Deterministic injected fault: the 4th kernel launch fails, once.
//!     faults: Some(FaultPlan::parse("kernel@3:t").unwrap()),
//!     retry: RetryPolicy::retries(1),
//!     fallback: FallbackChain::recommended(Method::RlGpu),
//!     ..SolverOptions::default()
//! };
//! let handle = CholeskySolver::analyze(&a, &opts);
//! let fact = handle.factor_with(&a).unwrap();
//! // The transient fault was retried on the same engine, and the
//! // result is bit-identical to a clean run.
//! assert!(matches!(fact.info().recovery[0].action, RecoveryAction::Retried));
//! let clean = CholeskySolver::factor(&a, &SolverOptions { faults: None, ..opts.clone() }).unwrap();
//! assert_eq!(fact.data(), clean.factor_data());
//! ```
//!
//! ## Serving — solver-as-a-service
//!
//! The [`service`] crate wraps the staged API in a long-running,
//! request-serving front end: a [`service::Service`] owns a
//! **symbolic-handle cache** (pattern fingerprint →
//! `Arc<SymbolicCholesky>`, LRU-evicted against a byte budget measured
//! by [`SymbolicCholesky::memory_bytes`], single-flight miss
//! coalescing) and an **admission gate** that sheds excess load with a
//! typed [`service::ServiceError::Overloaded`] instead of queueing
//! unboundedly. Per-request deadlines thread into the same
//! [`Deadline`]/[`CancelToken`] machinery the engines already honor.
//!
//! ```
//! use rlchol::service::{Request, Service, ServiceConfig};
//! use rlchol::matgen::{grid3d, Stencil};
//!
//! let service = Service::new(ServiceConfig::default());
//! let a = grid3d(4, 4, 3, Stencil::Star7, 1, 7);
//! let b = vec![1.0; a.n()];
//! let first = service.submit(Request::solve(a.clone(), b.clone())).unwrap();
//! let warm = service.submit(Request::solve(a, b)).unwrap();
//! assert_eq!(warm.metrics.cache, rlchol::service::CacheOutcome::Hit);
//! # let _ = first;
//! ```
//!
//! Out of process, the same service speaks a framed length-prefixed
//! protocol over localhost TCP (`rlchol-serve` daemon or `rlchol serve
//! 127.0.0.1:7211`; [`service::Client`] is the blocking client, with
//! optional connect/read timeouts via `service::ClientOptions`). The
//! server is **evented** (`poll(2)`, so Unix only): one
//! readiness-polled event loop multiplexes every connection over a
//! fixed worker pool, assembling frames incrementally and shedding
//! stalled clients on a per-connection deadline; each frame is one
//! write and both ends set `TCP_NODELAY`, so a round trip costs the
//! work plus a few hundred microseconds. Knobs follow the usual precedence,
//! resolved once at service/server construction: explicit
//! [`service::ServiceConfig`] (or `service::ServeOptions`) field, else
//! env, else default —
//!
//! * **`RLCHOL_CACHE_BYTES`** — handle-cache budget, default 256 MiB;
//! * **`RLCHOL_QUEUE_DEPTH`** — admission limit, default 2 × factor
//!   lanes (which themselves resolve via `RLCHOL_FACTOR_LANES` as
//!   above);
//! * **`RLCHOL_NET_WORKERS`** — evented worker-pool width, default 4;
//! * **`RLCHOL_CONN_TIMEOUT_MS`** — per-connection idle/read deadline,
//!   default 30 000 ms;
//! * **`RLCHOL_BATCH_WINDOW_US`** — cross-request coalescing window:
//!   factor/solve requests on the same pattern fingerprint arriving
//!   within the window fan out through one `batch_factor_ctl` call
//!   (bitwise-identical results, per-request `batch_size` /
//!   `coalesce_wait` metrics); default 0 = off.
//!
//! ## Engines
//!
//! Numeric factorization dispatches through the
//! [`NumericEngine`](core::registry::NumericEngine) registry, keyed by
//! [`Method`] — serial CPU (RL, RLB), task-parallel CPU, and
//! (simulated) GPU engines including the pipelined multi-stream
//! variants; `engine_for(method).factor(sym, a, &mut ws)` is the only
//! public way to run one. [`Method::ALL`] enumerates every
//! registered engine; `Method` round-trips through `FromStr` via its
//! CLI name (`"rlb-gpu".parse()`) or paper label (`"RLB_G".parse()`).
//! Every engine reports a uniform
//! [`FactorInfo`](core::registry::FactorInfo): wall time, simulated
//! seconds, supernodes offloaded, stream pairs used, per-stream device
//! counters, and the CPU trace.
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`sparse`] | CSC/CSR/COO, symmetric storage, permutations, Matrix Market I/O |
//! | [`ordering`] | nested dissection, minimum degree, RCM |
//! | [`symbolic`] | etree, column counts, supernodes, merging, partition refinement |
//! | [`dense`] | GEMM/SYRK/TRSM/POTRF kernels |
//! | [`gpu`] | the simulated GPU runtime (streams, events, device memory) |
//! | [`perfmodel`] | calibrated CPU/GPU cost models and traces |
//! | [`matgen`] | SPD generators and the paper's 21-matrix synthetic suite |
//! | [`core`] | engines + registry, staged solver, hybrid dispatch, solves |
//! | [`service`] | request serving: handle cache, admission control, wire protocol |
//! | [`report`] | performance profiles, tables, plots |
//!
//! ## Threads, streams and solve lanes
//!
//! The task-parallel engines ([`Method::RlCpuPar`], [`Method::RlbCpuPar`])
//! and the striped dense kernels share one persistent work-stealing pool;
//! the pipelined GPU engines ([`Method::RlGpuPipe`], [`Method::RlbGpuPipe`])
//! dispatch ready supernodes onto the least-loaded of their simulated
//! compute/copy stream pairs (retirement discipline via
//! `RLCHOL_RETIRE={inorder,ooo}`); the level-set triangular solves
//! dispatch each level of the solve plan onto the same pool. Sizing
//! follows one precedence rule, resolved when
//! [`CholeskySolver::analyze`] builds the handle:
//!
//! 1. An explicit nonzero [`SolverOptions::threads`] /
//!    [`SolverOptions::solve_threads`] / [`SolverOptions::factor_lanes`] /
//!    [`SolverOptions::analyze_threads`] /
//!    [`GpuOptions::streams`](core::engine::GpuOptions::streams), or an
//!    explicit [`GpuOptions::retire`](core::engine::GpuOptions::retire) /
//!    [`GpuOptions::lookahead`](core::engine::GpuOptions::lookahead),
//!    wins.
//! 2. A zero (`None` for retire) defers to the
//!    **`RLCHOL_THREADS`** / **`RLCHOL_SOLVE_THREADS`** /
//!    **`RLCHOL_FACTOR_LANES`** / **`RLCHOL_ANALYZE_THREADS`** /
//!    **`RLCHOL_STREAMS`** / **`RLCHOL_RETIRE`** environment variable
//!    (positive integer; `inorder`/`ooo` for retire). The lookahead
//!    window has no variable: `None` is adaptive.
//! 3. Unset environment falls back to
//!    [`std::thread::available_parallelism`] (threads, solve lanes,
//!    factor lanes, analyze lanes — solves and analyses additionally
//!    stay serial below a small-system cutoff) / the runtime default of
//!    2 (stream pairs) / in-order retirement with an adaptive lookahead
//!    window (lookahead 0).
//!
//! One lane / one pair degenerates to the serial / single-stream
//! schedule, bit-exactly — and the level-set solves, lane-pooled
//! factorizations and thread-parallel symbolic analyses are
//! bit-identical to serial at *any* lane count, so the settings are
//! purely about speed.

pub use rlchol_core as core;
pub use rlchol_dense as dense;
pub use rlchol_gpu as gpu;
pub use rlchol_matgen as matgen;
pub use rlchol_ordering as ordering;
pub use rlchol_perfmodel as perfmodel;
pub use rlchol_report as report;
pub use rlchol_service as service;
pub use rlchol_sparse as sparse;
pub use rlchol_symbolic as symbolic;

pub use rlchol_core::engine::{GpuOptions, Method};
pub use rlchol_core::{
    CancelToken, CholeskySolver, Deadline, FactorData, FactorError, FactorInfo, Factorization,
    FallbackChain, LaneStats, RecoveryAction, RecoveryEvent, RetryPolicy, SolveError,
    SolveWorkspace, SolverOptions, SymbolicCholesky,
};
pub use rlchol_gpu::{DeviceError, FaultKind, FaultPlan, FaultSpec};
pub use rlchol_ordering::OrderingMethod;
pub use rlchol_sparse::{SymCsc, TripletMatrix};
pub use rlchol_symbolic::{SymbolicFactor, SymbolicOptions};
