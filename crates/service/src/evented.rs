//! Evented TCP front end: one readiness-polled event loop multiplexing
//! every connection over a **fixed worker pool**.
//!
//! # Architecture
//!
//! ```text
//!            ┌─────────────── poller thread ────────────────┐
//!  accept ──▶│ nonblocking listener + connection registry   │
//!            │ poll(2) over {waker, listener, idle conns}   │
//!            └──┬─────────────────────────────────▲─────────┘
//!               │ ready conns (jobs)              │ completions + wake
//!            ┌──▼──────────────────────────────────┴────────┐
//!            │ RLCHOL_NET_WORKERS worker threads:           │
//!            │ drain socket → assemble frames → decode →    │
//!            │ Service::submit → queue + flush responses    │
//!            └──────────────────────────────────────────────┘
//! ```
//!
//! * The **poller** (the [`serve_evented`] caller's thread) owns the
//!   listener and a slab of connections. It never reads or writes a
//!   socket; it only waits for readiness — via the [`polling`] shim's
//!   `poll(2)` — and moves ready connections to the worker queue. A
//!   [`polling::Waker`] interrupts the wait when a worker finishes.
//! * **Workers** are the only threads that touch connection sockets and
//!   the only threads that run requests. A connection in flight is out
//!   of the poll set, so one socket is never driven by two threads.
//! * **Per-connection buffers** assemble frames incrementally: a client
//!   may deliver a request in arbitrarily small pieces (or several
//!   pipelined requests in one burst) and the worker consumes exactly
//!   the complete frames, leaving the tail buffered. The socket is read
//!   straight into the buffer's tail, which grows by what has arrived
//!   (at most `READ_STEP` ahead), never by what a header announces;
//!   responses are framed straight into the write buffer.
//! * **Deadlines**: a connection that produces no bytes (and accepts no
//!   pending response bytes) for `conn_timeout` is closed by the
//!   poller and counted in [`NetStats::timed_out`]. A slow-loris client
//!   that trickles a partial frame and stalls therefore costs one
//!   registry slot for the timeout, not a handler thread forever.
//! * **Accept errors never kill the server**: transient failures
//!   (`ECONNABORTED`, `EMFILE`, …) are counted, logged, and retried
//!   with exponential backoff (1 ms doubling to 100 ms, reset on the
//!   next success).
//!
//! # Knobs (explicit [`ServeOptions`] field > env > default)
//!
//! | knob | env | default |
//! |------|-----|---------|
//! | worker threads | `RLCHOL_NET_WORKERS` | 4 |
//! | idle/read deadline | `RLCHOL_CONN_TIMEOUT_MS` | 30 000 ms |
//!
//! Cross-request batching is a [`Service`](crate::Service)-level knob
//! (`RLCHOL_BATCH_WINDOW_US`, see [`crate::service`]); the evented loop
//! simply delivers concurrent requests to enough workers for the
//! coalescing window to see them together.

use crate::protocol::{
    decode_request, encode_response, error_json, frame_body_len, handle_request, put_frame,
};
use crate::service::Service;
use crate::ServiceError;
use polling::{PollFd, Waker, POLLIN, POLLOUT};
use rlchol_dense::pool::env_positive;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default worker-pool width when neither config nor env specify one.
pub const DEFAULT_NET_WORKERS: usize = 4;
/// Default per-connection idle/read deadline.
pub const DEFAULT_CONN_TIMEOUT_MS: u64 = 30_000;

/// Ceiling of the accept-error backoff.
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(100);
/// Upper bound on one poll wait — the loop re-checks shutdown and
/// deadlines at least this often.
const POLL_CAP: Duration = Duration::from_millis(100);
/// Read window while the next frame's header has not arrived yet: a
/// small request comes in whole with it.
const FIRST_READ: usize = 16 * 1024;
/// Most that one read extends a connection's buffer by, however much
/// the frame header says is still to come.
const READ_STEP: usize = 256 * 1024;

/// Evented-server construction knobs. `0` means "resolve from the
/// environment, then the default" (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Fixed worker-pool width (`0` → `RLCHOL_NET_WORKERS` → 4).
    pub workers: usize,
    /// Per-connection idle/read deadline in milliseconds
    /// (`0` → `RLCHOL_CONN_TIMEOUT_MS` → 30 000).
    pub conn_timeout_ms: u64,
    /// Test hook: accept-*attempt* ordinals (0-based) that fail with an
    /// injected transient error instead of accepting — exercises the
    /// backoff/retry path deterministically.
    pub accept_faults: Vec<u64>,
    /// Server-side counters, shared with the caller for observability
    /// and tests; allocated internally when `None`.
    pub stats: Option<Arc<NetStats>>,
}

impl ServeOptions {
    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            env_positive("RLCHOL_NET_WORKERS").unwrap_or(DEFAULT_NET_WORKERS)
        }
    }

    fn resolved_conn_timeout(&self) -> Duration {
        let ms = if self.conn_timeout_ms > 0 {
            self.conn_timeout_ms
        } else {
            env_positive("RLCHOL_CONN_TIMEOUT_MS").map_or(DEFAULT_CONN_TIMEOUT_MS, |v| v as u64)
        };
        Duration::from_millis(ms)
    }
}

/// Event-loop counters — all monotonic, readable while the server runs.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Transient accept failures survived (injected or real).
    pub accept_errors: AtomicU64,
    /// Connections closed by the idle/read deadline.
    pub timed_out: AtomicU64,
    /// Connections fully closed (any reason, including timeouts).
    pub closed: AtomicU64,
    /// Complete request frames processed.
    pub frames: AtomicU64,
}

impl NetStats {
    fn bump(field: &AtomicU64) -> u64 {
        field.fetch_add(1, Ordering::Relaxed) + 1
    }
}

// ---------------------------------------------------------------------
// Connection state
// ---------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet consumed as complete frames.
    rdbuf: Vec<u8>,
    /// Encoded responses not yet accepted by the socket.
    wrbuf: Vec<u8>,
    wr_pos: usize,
    /// Last byte-level progress in either direction — the deadline
    /// clock.
    last_activity: Instant,
    /// Peer closed its write half; serve buffered requests, flush, then
    /// close.
    eof: bool,
    /// A framing violation was answered; close once the answer drains.
    close_after_flush: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            rdbuf: Vec::new(),
            wrbuf: Vec::new(),
            wr_pos: 0,
            last_activity: Instant::now(),
            eof: false,
            close_after_flush: false,
        }
    }

    fn has_pending_write(&self) -> bool {
        self.wr_pos < self.wrbuf.len()
    }
}

enum Slot {
    Empty,
    Idle(Conn),
    InWorker,
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

struct Job {
    slot: usize,
    conn: Conn,
}

struct Shared {
    service: Arc<Service>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    done: AtomicBool,
    /// `(slot, Some(conn))` to re-register, `(slot, None)` when the
    /// worker closed the connection.
    completions: Mutex<Vec<(usize, Option<Conn>)>>,
    waker: Waker,
    stats: Arc<NetStats>,
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.done.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.queue_cv.wait(q).unwrap();
            }
        };
        let mut conn = job.conn;
        let keep = drive_conn(&mut conn, &shared.service, &shared.stats);
        shared
            .completions
            .lock()
            .unwrap()
            .push((job.slot, keep.then_some(conn)));
        shared.waker.wake();
    }
}

/// Flushes as much of the write buffer as the socket accepts right now.
/// `Err` means the connection is dead.
fn flush(conn: &mut Conn) -> io::Result<()> {
    while conn.has_pending_write() {
        match conn.stream.write(&conn.wrbuf[conn.wr_pos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                conn.wr_pos += n;
                conn.last_activity = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    conn.wrbuf.clear();
    conn.wr_pos = 0;
    Ok(())
}

fn queue_response(conn: &mut Conn, json: &str, payload: &[f64]) {
    if let Err(e) = put_frame(&mut conn.wrbuf, |b| encode_response(b, json, payload)) {
        put_frame(&mut conn.wrbuf, |b| {
            encode_response(b, &error_json(&e), &[])
        })
        .expect("an error report fits a frame");
    }
}

/// Answers a framing violation once; the connection closes when the
/// answer has drained.
fn poison(conn: &mut Conn, e: &ServiceError) {
    queue_response(conn, &error_json(e), &[]);
    conn.close_after_flush = true;
}

/// Total length, header included, of the frame at the head of `buf`:
/// `None` until its header is in, `Err` when the header announces a
/// body over the cap.
fn frame_total(buf: &[u8]) -> Result<Option<usize>, ServiceError> {
    let header = buf.first_chunk::<4>();
    header.map(|h| Ok(4 + frame_body_len(*h)?)).transpose()
}

/// Reads what the socket holds into the tail of `conn.rdbuf`, stopping
/// at the end of the frame in progress: a complete frame is served
/// before more is read, so the buffer never holds more than one frame
/// and a read window. `Err` means the connection is dead.
fn fill(conn: &mut Conn) -> io::Result<()> {
    loop {
        let len = conn.rdbuf.len();
        let want = match frame_total(&conn.rdbuf) {
            Ok(None) => FIRST_READ,
            Ok(Some(total)) if total > len => (total - len).min(READ_STEP),
            // Serve (or refuse) what is buffered first.
            _ => return Ok(()),
        };
        conn.rdbuf.resize(len + want, 0);
        let read = conn.stream.read(&mut conn.rdbuf[len..]);
        conn.rdbuf.truncate(len + read.as_ref().map_or(0, |&n| n));
        match read {
            Ok(0) => {
                conn.eof = true;
                return Ok(());
            }
            Ok(_) => conn.last_activity = Instant::now(),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// One worker pass over a ready connection: flush, read, serve every
/// complete frame, flush again. Returns `false` when the connection is
/// finished (dead, EOF served out, or poisoned by a framing violation
/// with its answer drained).
fn drive_conn(conn: &mut Conn, service: &Service, stats: &NetStats) -> bool {
    if flush(conn).is_err() {
        return false;
    }
    if !conn.eof && !conn.close_after_flush && fill(conn).is_err() {
        return false;
    }
    let mut consumed = 0;
    while !conn.close_after_flush {
        let rest = &conn.rdbuf[consumed..];
        match frame_total(rest) {
            Err(e) => poison(conn, &e),
            Ok(Some(total)) if total <= rest.len() => {
                NetStats::bump(&stats.frames);
                match decode_request(&rest[4..total]) {
                    Ok(wire) => {
                        let (json, payload) = handle_request(service, wire);
                        queue_response(conn, &json, &payload);
                    }
                    Err(e) => poison(conn, &e),
                }
                consumed += total;
            }
            Ok(_) => break,
        }
    }
    conn.rdbuf.drain(..consumed);
    if flush(conn).is_err() {
        return false;
    }
    let drained = !conn.has_pending_write();
    if (conn.eof || conn.close_after_flush) && drained {
        return false;
    }
    true
}

// ---------------------------------------------------------------------
// Poller side
// ---------------------------------------------------------------------

fn alloc_slot(slots: &mut Vec<Slot>) -> usize {
    for (i, s) in slots.iter().enumerate() {
        if matches!(s, Slot::Empty) {
            return i;
        }
    }
    slots.push(Slot::Empty);
    slots.len() - 1
}

/// Runs the evented accept/dispatch loop until [`Service::shutdown`].
/// The calling thread becomes the poller; `workers` request threads are
/// spawned and joined internally.
pub fn serve_evented(
    listener: TcpListener,
    service: Arc<Service>,
    opts: ServeOptions,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let workers = opts.resolved_workers();
    let conn_timeout = opts.resolved_conn_timeout();
    let stats = opts
        .stats
        .clone()
        .unwrap_or_else(|| Arc::new(NetStats::default()));
    let shared = Arc::new(Shared {
        service: Arc::clone(&service),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        done: AtomicBool::new(false),
        completions: Mutex::new(Vec::new()),
        waker: Waker::new()?,
        stats: Arc::clone(&stats),
    });
    let worker_handles: Vec<_> = (0..workers)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("rlchol-net-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn net worker")
        })
        .collect();

    let mut slots: Vec<Slot> = Vec::new();
    let mut in_worker = 0usize;
    let mut accept_attempts = 0u64;
    let mut accept_backoff = Duration::ZERO;
    let mut backoff_until: Option<Instant> = None;
    let mut fds: Vec<PollFd> = Vec::new();
    let mut fd_slots: Vec<usize> = Vec::new();

    loop {
        if shared.service.is_shutdown() && in_worker == 0 {
            break;
        }
        let now = Instant::now();
        if backoff_until.is_some_and(|t| now >= t) {
            backoff_until = None;
        }

        // Build this iteration's poll set: waker, listener (unless
        // backing off or shutting down), every idle connection.
        fds.clear();
        fd_slots.clear();
        fds.push(PollFd::new(shared.waker.read_fd(), POLLIN));
        let accepting = !shared.service.is_shutdown() && backoff_until.is_none();
        if accepting {
            fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        }
        let conn_base = fds.len();
        let mut timeout = POLL_CAP;
        for (i, s) in slots.iter().enumerate() {
            if let Slot::Idle(c) = s {
                let mut events = 0i16;
                if !c.eof && !c.close_after_flush {
                    events |= POLLIN;
                }
                if c.has_pending_write() {
                    events |= POLLOUT;
                }
                fd_slots.push(i);
                fds.push(PollFd::new(c.stream.as_raw_fd(), events));
                let deadline = c.last_activity + conn_timeout;
                timeout = timeout.min(deadline.saturating_duration_since(now));
            }
        }
        if let Some(t) = backoff_until {
            timeout = timeout.min(t.saturating_duration_since(now));
        }
        polling::poll(&mut fds, Some(timeout))?;

        if fds[0].readable() {
            shared.waker.drain();
        }

        // Re-register (or retire) connections the workers finished.
        for (slot, conn) in shared.completions.lock().unwrap().drain(..) {
            in_worker -= 1;
            match conn {
                Some(c) => slots[slot] = Slot::Idle(c),
                None => {
                    slots[slot] = Slot::Empty;
                    NetStats::bump(&stats.closed);
                }
            }
        }

        // Accept every pending connection. A failed accept is always
        // transient from the server's point of view: count it, back
        // off, keep serving — one bad handshake (or a file-descriptor
        // ceiling) must not tear down every healthy connection.
        if accepting && fds[1].readable() {
            loop {
                let injected = opts.accept_faults.contains(&accept_attempts);
                accept_attempts += 1;
                let result = if injected {
                    Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "injected transient accept failure",
                    ))
                } else {
                    listener.accept()
                };
                match result {
                    Ok((stream, _peer)) => {
                        accept_backoff = Duration::ZERO;
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let _ = stream.set_nodelay(true);
                        NetStats::bump(&stats.accepted);
                        let slot = alloc_slot(&mut slots);
                        slots[slot] = Slot::Idle(Conn::new(stream));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => {
                        let n = NetStats::bump(&stats.accept_errors);
                        if n == 1 || n.is_power_of_two() {
                            eprintln!("rlchol-serve: transient accept error #{n}: {e}");
                        }
                        accept_backoff = if accept_backoff.is_zero() {
                            Duration::from_millis(1)
                        } else {
                            (accept_backoff * 2).min(ACCEPT_BACKOFF_MAX)
                        };
                        backoff_until = Some(Instant::now() + accept_backoff);
                        break;
                    }
                }
            }
        }

        // Hand every ready connection to the workers.
        let mut dispatched = false;
        for (k, &slot) in fd_slots.iter().enumerate() {
            if fds[conn_base + k].ready() {
                if let Slot::Idle(conn) = std::mem::replace(&mut slots[slot], Slot::InWorker) {
                    shared.queue.lock().unwrap().push_back(Job { slot, conn });
                    in_worker += 1;
                    dispatched = true;
                } else {
                    unreachable!("only idle slots are polled");
                }
            }
        }
        if dispatched {
            shared.queue_cv.notify_all();
        }

        // Idle/read deadlines: a connection with no byte-level progress
        // for the timeout is dropped — slow-loris costs a slot, not a
        // thread.
        let now = Instant::now();
        for s in slots.iter_mut() {
            if let Slot::Idle(c) = s {
                if now.duration_since(c.last_activity) >= conn_timeout {
                    NetStats::bump(&stats.timed_out);
                    NetStats::bump(&stats.closed);
                    *s = Slot::Empty;
                }
            }
        }
    }

    // Shutdown: best-effort flush of any response bytes still queued on
    // idle connections (the shutdown ack itself was flushed by the
    // worker that served it), then stop the pool.
    for s in slots.iter_mut() {
        if let Slot::Idle(c) = s {
            let _ = flush(c);
        }
    }
    shared.done.store(true, Ordering::SeqCst);
    shared.queue_cv.notify_all();
    for h in worker_handles {
        let _ = h.join();
    }
    Ok(())
}
