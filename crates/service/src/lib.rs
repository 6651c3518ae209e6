//! # rlchol-service — solver-as-a-service front end
//!
//! Long-running request-serving layer over the staged solver API of
//! `rlchol-core`: many clients submit factor/solve work for matrices
//! that mostly share a handful of sparsity patterns, and the service
//! amortizes the expensive symbolic analysis across all of them.
//!
//! Three pieces:
//!
//! * [`HandleCache`] — pattern fingerprint → `Arc<SymbolicCholesky>`
//!   with LRU eviction against a byte budget and single-flight miss
//!   coalescing ([`cache`]).
//! * [`Service`] — in-process submission API with admission control
//!   (bounded in-flight gate, typed [`ServiceError::Overloaded`]
//!   sheds), per-request deadlines threaded into the engine's
//!   `Deadline`/`CancelToken` machinery, and per-request metrics
//!   ([`service`]).
//! * [`protocol`] — a framed length-prefixed protocol over
//!   `std::net::TcpListener` plus a blocking [`Client`];
//!   `rlchol-serve` is the binary, `rlchol serve` the CLI alias.
//! * [`evented`] — the readiness-polled server front end behind
//!   [`serve`] (`poll(2)`, so Unix only): non-blocking accept with
//!   transient-error backoff, a fixed worker pool
//!   (`RLCHOL_NET_WORKERS`), incremental frame assembly, and
//!   per-connection idle deadlines (`RLCHOL_CONN_TIMEOUT_MS`).
//!
//! Requests whose pattern fingerprints collide within
//! `RLCHOL_BATCH_WINDOW_US` can additionally coalesce into one batched
//! numeric factorization — see the "Cross-request batching" notes in
//! [`service`].
//!
//! ## Quick start (in-process)
//!
//! ```
//! use rlchol_matgen::{grid3d, Stencil};
//! use rlchol_service::{Request, Service, ServiceConfig};
//!
//! let service = Service::new(ServiceConfig::default());
//! let a = grid3d(3, 3, 3, Stencil::Star7, 1, 7);
//! let b = vec![1.0; a.n()];
//!
//! // First request analyzes (cache miss)…
//! let r1 = service.submit(Request::solve(a.clone(), b.clone())).unwrap();
//! // …repeat traffic on the same pattern hits the cache.
//! let r2 = service.submit(Request::solve(a, b)).unwrap();
//! assert_eq!(service.cache().stats().hits, 1);
//! # let _ = (r1, r2);
//! ```
//!
//! ## Quick start (over TCP)
//!
//! ```no_run
//! use std::sync::Arc;
//! use rlchol_service::{protocol, Service, ServiceConfig};
//!
//! let service = Arc::new(Service::new(ServiceConfig::default()));
//! let (addr, server) = protocol::spawn_server("127.0.0.1:0", service).unwrap();
//! let mut client = protocol::Client::connect(addr).unwrap();
//! // … client.analyze / factor / solve / batch / stats / shutdown …
//! # let _ = server;
//! ```

#[cfg(not(unix))]
compile_error!(
    "rlchol-service serves through poll(2) (crates/service/src/evented.rs is its only \
     server loop) and so builds on Unix targets only"
);

pub mod cache;
pub mod error;
pub mod evented;
pub mod fingerprint;
pub mod protocol;
pub mod service;

pub use cache::{CacheOutcome, CacheStats, HandleCache};
pub use error::ServiceError;
pub use evented::{serve_evented, NetStats, ServeOptions};
pub use fingerprint::PatternFingerprint;
pub use protocol::{serve, spawn_server, spawn_server_with, Client, ClientOptions, WireResponse};
pub use service::{
    stats_json, Request, RequestMetrics, RequestOp, Response, ResponsePayload, Service,
    ServiceConfig, ServiceStats, DEFAULT_CACHE_BYTES,
};

/// Binds `addr` and serves requests until a client sends `shutdown`.
/// The convenience entry point shared by `rlchol-serve` and the CLI's
/// `serve` subcommand.
pub fn run_server(addr: &str, cfg: ServiceConfig) -> std::io::Result<()> {
    let service = std::sync::Arc::new(Service::new(cfg));
    let listener = std::net::TcpListener::bind(addr)?;
    eprintln!(
        "rlchol-serve listening on {} (queue depth {}, cache budget {} MiB)",
        listener.local_addr()?,
        service.queue_depth(),
        service.cache().budget_bytes() >> 20,
    );
    protocol::serve(listener, service)
}
