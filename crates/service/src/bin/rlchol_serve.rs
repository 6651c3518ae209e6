//! `rlchol-serve` — the standalone solver-as-a-service daemon.
//!
//! ```text
//! rlchol-serve [addr]          default 127.0.0.1:7211
//! ```
//!
//! Environment (see `rlchol_service::service` docs for precedence):
//! `RLCHOL_CACHE_BYTES`, `RLCHOL_QUEUE_DEPTH`, `RLCHOL_FACTOR_LANES`,
//! plus every engine knob (`RLCHOL_THREADS`, `RLCHOL_STREAMS`, …).
//! The evented front end adds `RLCHOL_NET_WORKERS` (fixed worker pool,
//! default 4), `RLCHOL_CONN_TIMEOUT_MS` (per-connection idle/read
//! deadline, default 30 000) and `RLCHOL_BATCH_WINDOW_US`
//! (cross-request factor coalescing window, default 0 = off). Stop it
//! by sending the protocol's `shutdown` op (e.g. via
//! `rlchol_service::Client::shutdown`).

fn main() {
    let addr = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7211".to_string());
    if let Err(e) = rlchol_service::run_server(&addr, Default::default()) {
        eprintln!("rlchol-serve: {e}");
        std::process::exit(1);
    }
}
