//! Framed wire protocol over `std::net::TcpStream` — no external
//! crates. [`serve`] runs the evented front end ([`crate::evented`]):
//! a readiness-polled accept loop and a fixed worker pool multiplexing
//! every connection, with per-connection deadlines.
//!
//! # Framing
//!
//! Every message is a little-endian `u32` body length followed by the
//! body. Request bodies:
//!
//! ```text
//! u8  op          1=analyze 2=factor 3=solve 4=batch 5=stats 6=shutdown
//! --- stats/shutdown bodies end here ---
//! u8  method      index into Method::ALL, 0xFF = service default (*)
//! u32 deadline_ms 0 = none (service default applies)
//! u64 n, u64 nnz
//! (n+1) × u64     column pointers
//! nnz × u64       row indices
//! nnz × f64       values
//! solve: n × f64  right-hand side
//! batch: u32 k, then k × (nnz × f64) value sets
//! ```
//!
//! (*) The method byte is positional: it renumbers whenever
//! `Method::ALL` changes (deleting `LL_C` / `MF_C` moved `RL_G` from 6
//! to 4). Both ends build from this tree and nothing persists the byte,
//! so no numbering is kept stable; the reply's `"method"` names the
//! engine that ran, and an index past the end is answered with a typed
//! `Protocol("method index … out of range")`.
//!
//! Response bodies: `u32 json_len`, the JSON report (UTF-8), `u64
//! payload_len`, then `payload_len × f64` (the solution vector for
//! `solve`, empty otherwise). The JSON always carries `"ok"`; failures
//! add `"kind"` (the [`ServiceError::kind`] tag) and `"error"`.
//!
//! Framing violations (oversized frames, truncated bodies, inconsistent
//! counts) poison the stream and close the connection; *semantic*
//! errors (bad matrix, overload, deadline) are answered in-band and the
//! connection keeps serving. Every count a frame announces (`n + 1`,
//! `nnz`, `k`) is checked against the bytes left in that frame before
//! anything is allocated for it.
//!
//! # Latency
//!
//! A frame goes out in **one write**, header and body from one buffer
//! (`put_frame`), and both ends set `TCP_NODELAY`. A request/response
//! protocol has nothing to gain from Nagle's algorithm — the sender has
//! nothing more to say until the peer answers — and much to lose: a
//! header written ahead of its body leaves the body waiting for the
//! header's ACK, which the peer delays by 40 ms because it in turn is
//! waiting for a whole request before it has anything to send back.

use crate::error::ServiceError;
use crate::evented::{serve_evented, ServeOptions};
use crate::service::{stats_json, Request, RequestOp, Response, ResponsePayload, Service};
use rlchol_core::json::{array, escape, JsonObj};
use rlchol_core::Method;
use rlchol_sparse::SymCsc;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard ceiling on one frame body — rejects absurd lengths before any
/// allocation happens.
pub const MAX_FRAME_BYTES: u32 = 1 << 30;

const OP_ANALYZE: u8 = 1;
const OP_FACTOR: u8 = 2;
const OP_SOLVE: u8 = 3;
const OP_BATCH: u8 = 4;
const OP_STATS: u8 = 5;
const OP_SHUTDOWN: u8 = 6;

// ---------------------------------------------------------------------
// Byte-level helpers
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], ServiceError> {
        let end = self.pos.checked_add(len).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let s = &self.buf[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(ServiceError::Protocol(format!(
                "truncated frame: wanted {len} bytes at offset {}, body has {}",
                self.pos,
                self.buf.len()
            ))),
        }
    }

    /// A count the peer announced, accepted only if that many items of
    /// `item_bytes` each are still in the frame — so nothing sized by
    /// the count is ever allocated on the peer's word alone.
    fn count(&self, announced: u64, item_bytes: usize, what: &str) -> Result<usize, ServiceError> {
        let left = self.buf.len() - self.pos;
        usize::try_from(announced)
            .ok()
            .filter(|c| c.checked_mul(item_bytes).is_some_and(|b| b <= left))
            .ok_or_else(|| {
                ServiceError::Protocol(format!(
                    "truncated frame: {announced} {what} of {item_bytes} bytes each \
                     announced at offset {}, {left} bytes left",
                    self.pos
                ))
            })
    }

    fn u8(&mut self) -> Result<u8, ServiceError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ServiceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ServiceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// `announced` little-endian 8-byte words, each through `from_le`.
    fn words<T>(
        &mut self,
        announced: u64,
        what: &str,
        from_le: impl Fn([u8; 8]) -> T,
    ) -> Result<Vec<T>, ServiceError> {
        let bytes = self.take(8 * self.count(announced, 8, what)?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| from_le(c.try_into().unwrap()))
            .collect())
    }

    fn usize_vec(&mut self, announced: u64, what: &str) -> Result<Vec<usize>, ServiceError> {
        self.words(announced, what, |w| u64::from_le_bytes(w) as usize)
    }

    fn f64_vec(&mut self, announced: u64, what: &str) -> Result<Vec<f64>, ServiceError> {
        self.words(announced, what, f64::from_le_bytes)
    }
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `vs` as little-endian 8-byte words. Sized once and filled
/// through fixed-width chunks, which compiles to a straight copy.
fn put_words<T: Copy>(buf: &mut Vec<u8>, vs: &[T], to_le: impl Fn(T) -> [u8; 8]) {
    let start = buf.len();
    buf.resize(start + vs.len() * 8, 0);
    for (dst, &v) in buf[start..].chunks_exact_mut(8).zip(vs) {
        dst.copy_from_slice(&to_le(v));
    }
}

fn put_usizes(buf: &mut Vec<u8>, vs: &[usize]) {
    put_words(buf, vs, |v| (v as u64).to_le_bytes());
}

fn put_f64s(buf: &mut Vec<u8>, vs: &[f64]) {
    put_words(buf, vs, f64::to_le_bytes);
}

fn frame_too_big(len: usize) -> ServiceError {
    ServiceError::Protocol(format!(
        "frame of {len} bytes exceeds cap {MAX_FRAME_BYTES}"
    ))
}

/// Appends one frame to `out` — the framing of both directions. The four
/// header bytes are reserved in `out` itself, `body` encodes in place
/// behind them and the length is patched in afterwards: no intermediate
/// buffer, and the caller hands header and body to the socket together.
/// A body over [`MAX_FRAME_BYTES`] is taken back out of `out` and
/// reported.
pub(crate) fn put_frame(
    out: &mut Vec<u8>,
    body: impl FnOnce(&mut Vec<u8>),
) -> Result<(), ServiceError> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    body(out);
    let len = out.len() - start - 4;
    match u32::try_from(len) {
        Ok(len32) if len32 <= MAX_FRAME_BYTES => {
            out[start..start + 4].copy_from_slice(&len32.to_le_bytes());
            Ok(())
        }
        _ => {
            out.truncate(start);
            Err(frame_too_big(len))
        }
    }
}

/// Body length a 4-byte frame header announces, or the typed error for
/// one over [`MAX_FRAME_BYTES`].
pub(crate) fn frame_body_len(header: [u8; 4]) -> Result<usize, ServiceError> {
    let len = u32::from_le_bytes(header);
    if len > MAX_FRAME_BYTES {
        return Err(frame_too_big(len as usize));
    }
    Ok(len as usize)
}

// ---------------------------------------------------------------------
// Request decode (server) / encode (client)
// ---------------------------------------------------------------------

pub(crate) enum WireRequest {
    Op(Request),
    Stats,
    Shutdown,
}

pub(crate) fn decode_request(body: &[u8]) -> Result<WireRequest, ServiceError> {
    let mut c = Cursor::new(body);
    let op = c.u8()?;
    match op {
        OP_STATS => return Ok(WireRequest::Stats),
        OP_SHUTDOWN => return Ok(WireRequest::Shutdown),
        OP_ANALYZE | OP_FACTOR | OP_SOLVE | OP_BATCH => {}
        other => {
            return Err(ServiceError::Protocol(format!("unknown op byte {other}")));
        }
    }
    let method_idx = c.u8()?;
    let method = match method_idx {
        0xFF => None,
        i if (i as usize) < Method::ALL.len() => Some(Method::ALL[i as usize]),
        i => {
            return Err(ServiceError::Protocol(format!(
                "method index {i} out of range (engines: {})",
                Method::ALL.len()
            )));
        }
    };
    let deadline_ms = c.u32()?;
    let (n, nnz) = (c.u64()?, c.u64()?);
    // Saturated, `n + 1` is still more than any frame holds.
    let colptr = c.usize_vec(n.saturating_add(1), "column pointers")?;
    let rowind = c.usize_vec(nnz, "row indices")?;
    let values = c.f64_vec(nnz, "values")?;
    let matrix = SymCsc::from_parts(colptr.len() - 1, colptr, rowind, values)
        .map_err(|e| ServiceError::Protocol(format!("invalid matrix: {e}")))?;
    let op = match op {
        OP_ANALYZE => RequestOp::Analyze,
        OP_FACTOR => RequestOp::Factor,
        OP_SOLVE => RequestOp::Solve(c.f64_vec(n, "right-hand side values")?),
        OP_BATCH => {
            // Sets of an empty pattern take no bytes, so their count is
            // held to the frame as if each took one.
            let set_bytes = (8 * matrix.nnz_lower()).max(1);
            let k = c.u32()? as u64;
            let k = c.count(k, set_bytes, "value sets")?;
            RequestOp::Batch(
                (0..k)
                    .map(|_| c.f64_vec(nnz, "values"))
                    .collect::<Result<_, _>>()?,
            )
        }
        _ => unreachable!(),
    };
    if c.pos != body.len() {
        return Err(ServiceError::Protocol(format!(
            "{} trailing bytes after request body",
            body.len() - c.pos
        )));
    }
    Ok(WireRequest::Op(Request {
        matrix,
        op,
        method,
        deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms as u64)),
    }))
}

fn encode_request(
    body: &mut Vec<u8>,
    op: u8,
    matrix: &SymCsc,
    method: Option<Method>,
    deadline_ms: u32,
    rhs: &[f64],
    sets: &[Vec<f64>],
) {
    body.push(op);
    let method_idx = method
        .map(|m| Method::ALL.iter().position(|x| *x == m).unwrap() as u8)
        .unwrap_or(0xFF);
    body.push(method_idx);
    put_u32(body, deadline_ms);
    put_u64(body, matrix.n() as u64);
    put_u64(body, matrix.nnz_lower() as u64);
    put_usizes(body, matrix.colptr());
    put_usizes(body, matrix.rowind());
    put_f64s(body, matrix.values());
    if op == OP_SOLVE {
        put_f64s(body, rhs);
    }
    if op == OP_BATCH {
        put_u32(body, sets.len() as u32);
        for set in sets {
            put_f64s(body, set);
        }
    }
}

// ---------------------------------------------------------------------
// Response encode (server) / decode (client)
// ---------------------------------------------------------------------

fn response_json(op_name: &str, resp: Response) -> (String, Vec<f64>) {
    let m = &resp.metrics;
    let cache = match m.cache {
        crate::cache::CacheOutcome::Hit => "hit",
        crate::cache::CacheOutcome::Miss => "miss",
        crate::cache::CacheOutcome::CoalescedMiss => "coalesced",
    };
    let obj = JsonObj::new()
        .bool("ok", true)
        .str("op", op_name)
        .str("method", m.method.label())
        .str("cache", cache)
        .f64("queue_wait_ms", m.queue_wait.as_secs_f64() * 1e3)
        .f64("analyze_ms", m.analyze_wall.as_secs_f64() * 1e3)
        .f64("factor_ms", m.factor_wall.as_secs_f64() * 1e3)
        .f64("solve_ms", m.solve_wall.as_secs_f64() * 1e3)
        .u64("recovery_events", m.recovery_events as u64)
        .u64("batch_size", m.batch_size as u64)
        .f64("coalesce_wait_ms", m.coalesce_wait.as_secs_f64() * 1e3);
    match resp.payload {
        ResponsePayload::Analyzed {
            n,
            factor_nnz,
            supernodes,
            memory_bytes,
        } => (
            obj.u64("n", n as u64)
                .u64("factor_nnz", factor_nnz)
                .u64("supernodes", supernodes as u64)
                .u64("memory_bytes", memory_bytes)
                .finish(),
            Vec::new(),
        ),
        ResponsePayload::Factored {
            factor_nnz,
            info_json,
        } => (
            obj.u64("factor_nnz", factor_nnz)
                .raw("info", &info_json)
                .finish(),
            Vec::new(),
        ),
        ResponsePayload::Solved { x, info_json } => (
            obj.u64("solution_len", x.len() as u64)
                .raw("info", &info_json)
                .finish(),
            x,
        ),
        ResponsePayload::Batched { outcomes } => {
            let oks = array(
                outcomes
                    .iter()
                    .map(|r| if r.is_ok() { "true" } else { "false" }.to_string()),
            );
            let errs = array(outcomes.iter().filter_map(|r| {
                r.as_ref()
                    .err()
                    .map(|e| format!("\"{}\"", escape(&e.to_string())))
            }));
            (
                obj.raw("batch", &oks).raw("batch_errors", &errs).finish(),
                Vec::new(),
            )
        }
    }
}

pub(crate) fn error_json(e: &ServiceError) -> String {
    JsonObj::new()
        .bool("ok", false)
        .str("kind", e.kind())
        .str("error", &e.to_string())
        .finish()
}

pub(crate) fn encode_response(body: &mut Vec<u8>, json: &str, payload: &[f64]) {
    put_u32(body, json.len() as u32);
    body.extend_from_slice(json.as_bytes());
    put_u64(body, payload.len() as u64);
    put_f64s(body, payload);
}

/// One decoded response frame.
#[derive(Debug, Clone)]
pub struct WireResponse {
    /// The JSON report.
    pub json: String,
    /// The numeric payload (solution vector for `solve`).
    pub payload: Vec<f64>,
}

impl WireResponse {
    fn decode(body: &[u8]) -> Result<Self, ServiceError> {
        let mut c = Cursor::new(body);
        let json_len = c.u32()? as usize;
        let json = String::from_utf8(c.take(json_len)?.to_vec())
            .map_err(|_| ServiceError::Protocol("response JSON is not UTF-8".into()))?;
        let payload_len = c.u64()?;
        let payload = c.f64_vec(payload_len, "payload values")?;
        Ok(WireResponse { json, payload })
    }

    /// Whether the request succeeded.
    pub fn ok(&self) -> bool {
        self.bool_field("ok").unwrap_or(false)
    }

    /// Scans the top-level JSON for `"key":"string"`.
    pub fn str_field(&self, key: &str) -> Option<String> {
        let rest = self.raw_field(key)?;
        let rest = rest.strip_prefix('"')?;
        let mut out = String::new();
        let mut chars = rest.chars();
        while let Some(ch) = chars.next() {
            match ch {
                '"' => return Some(out),
                '\\' => match chars.next()? {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    other => out.push(other),
                },
                other => out.push(other),
            }
        }
        None
    }

    /// Scans the top-level JSON for a numeric field.
    pub fn num_field(&self, key: &str) -> Option<f64> {
        let rest = self.raw_field(key)?;
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// Scans the top-level JSON for a boolean field.
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        let rest = self.raw_field(key)?;
        if rest.starts_with("true") {
            Some(true)
        } else if rest.starts_with("false") {
            Some(false)
        } else {
            None
        }
    }

    fn raw_field(&self, key: &str) -> Option<&str> {
        // Top-level keys in our schema are unique across nesting levels
        // for everything callers scan for, so a plain search suffices.
        let needle = format!("\"{key}\":");
        let at = self.json.find(&needle)?;
        Some(&self.json[at + needle.len()..])
    }
}

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

pub(crate) fn handle_request(service: &Service, wire: WireRequest) -> (String, Vec<f64>) {
    let ack = |op: &str| JsonObj::new().bool("ok", true).str("op", op);
    match wire {
        WireRequest::Stats => {
            let stats = stats_json(&service.stats());
            (ack("stats").raw("stats", &stats).finish(), Vec::new())
        }
        WireRequest::Shutdown => {
            service.shutdown();
            (ack("shutdown").finish(), Vec::new())
        }
        WireRequest::Op(req) => {
            let op_name = match req.op {
                RequestOp::Analyze => "analyze",
                RequestOp::Factor => "factor",
                RequestOp::Solve(_) => "solve",
                RequestOp::Batch(_) => "batch",
            };
            match service.submit(req) {
                Ok(resp) => response_json(op_name, resp),
                Err(e) => (error_json(&e), Vec::new()),
            }
        }
    }
}

/// Serves `listener` until [`Service::shutdown`]: the evented front end
/// ([`serve_evented`]) with default [`ServeOptions`] — non-blocking
/// accept, a fixed worker pool (`RLCHOL_NET_WORKERS`), per-connection
/// idle deadlines (`RLCHOL_CONN_TIMEOUT_MS`).
pub fn serve(listener: TcpListener, service: Arc<Service>) -> io::Result<()> {
    serve_evented(listener, service, ServeOptions::default())
}

/// Binds `addr` (e.g. `127.0.0.1:0`) and runs [`serve`] on a new
/// thread; returns the bound address and the server's join handle.
pub fn spawn_server(
    addr: &str,
    service: Arc<Service>,
) -> io::Result<(SocketAddr, JoinHandle<io::Result<()>>)> {
    spawn_server_with(addr, service, ServeOptions::default())
}

/// Like [`spawn_server`], with explicit [`ServeOptions`] (worker count,
/// connection timeout, fault injection, shared
/// [`crate::evented::NetStats`]).
pub fn spawn_server_with(
    addr: &str,
    service: Arc<Service>,
    opts: ServeOptions,
) -> io::Result<(SocketAddr, JoinHandle<io::Result<()>>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let handle = std::thread::spawn(move || serve_evented(listener, service, opts));
    Ok((local, handle))
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// Connection knobs for [`Client::connect_with`].
#[derive(Debug, Clone, Default)]
pub struct ClientOptions {
    /// Abort [`Client::connect_with`] if the TCP handshake takes longer
    /// than this. `None` blocks indefinitely (OS default).
    pub connect_timeout: Option<Duration>,
    /// Fail any read (response wait) that stalls longer than this with
    /// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`] instead
    /// of hanging on a wedged server. `None` blocks indefinitely.
    pub read_timeout: Option<Duration>,
}

/// Blocking client for the framed protocol. One request in flight per
/// client; clone connections for concurrency.
pub struct Client {
    stream: TcpStream,
    /// The outgoing frame and the incoming one, kept between requests.
    wrbuf: Vec<u8>,
    rdbuf: Vec<u8>,
}

impl Client {
    /// Connects to a running server with no timeouts (blocking reads).
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with(addr, ClientOptions::default())
    }

    /// Connects with explicit connect/read timeouts.
    pub fn connect_with(addr: SocketAddr, opts: ClientOptions) -> io::Result<Self> {
        let stream = match opts.connect_timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(opts.read_timeout)?;
        Ok(Client {
            stream,
            wrbuf: Vec::new(),
            rdbuf: Vec::new(),
        })
    }

    /// Changes the read timeout on the live connection.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends the frame `body` encodes with one write, then reads the
    /// reply frame.
    fn roundtrip(&mut self, body: impl FnOnce(&mut Vec<u8>)) -> io::Result<WireResponse> {
        let invalid = |e: ServiceError| io::Error::new(io::ErrorKind::InvalidData, e.to_string());
        self.wrbuf.clear();
        put_frame(&mut self.wrbuf, body).map_err(invalid)?;
        self.stream.write_all(&self.wrbuf)?;

        let mut header = [0u8; 4];
        self.stream.read_exact(&mut header).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
            } else {
                e
            }
        })?;
        let len = frame_body_len(header).map_err(invalid)?;
        self.rdbuf.resize(len, 0);
        self.stream.read_exact(&mut self.rdbuf)?;
        WireResponse::decode(&self.rdbuf).map_err(invalid)
    }

    fn request(
        &mut self,
        op: u8,
        matrix: &SymCsc,
        method: Option<Method>,
        deadline_ms: u32,
        rhs: &[f64],
        sets: &[Vec<f64>],
    ) -> io::Result<WireResponse> {
        self.roundtrip(|body| encode_request(body, op, matrix, method, deadline_ms, rhs, sets))
    }

    /// Symbolic analysis of `matrix` (warms the server cache).
    pub fn analyze(&mut self, matrix: &SymCsc) -> io::Result<WireResponse> {
        self.request(OP_ANALYZE, matrix, None, 0, &[], &[])
    }

    /// Numeric factorization.
    pub fn factor(
        &mut self,
        matrix: &SymCsc,
        method: Option<Method>,
        deadline_ms: u32,
    ) -> io::Result<WireResponse> {
        self.request(OP_FACTOR, matrix, method, deadline_ms, &[], &[])
    }

    /// Factor + solve; the solution arrives in
    /// [`WireResponse::payload`].
    pub fn solve(
        &mut self,
        matrix: &SymCsc,
        rhs: &[f64],
        method: Option<Method>,
        deadline_ms: u32,
    ) -> io::Result<WireResponse> {
        self.request(OP_SOLVE, matrix, method, deadline_ms, rhs, &[])
    }

    /// Batched refactorization of `value_sets` over one pattern.
    pub fn batch(
        &mut self,
        matrix: &SymCsc,
        value_sets: &[Vec<f64>],
        method: Option<Method>,
        deadline_ms: u32,
    ) -> io::Result<WireResponse> {
        self.request(OP_BATCH, matrix, method, deadline_ms, &[], value_sets)
    }

    /// Server counters as JSON.
    pub fn stats(&mut self) -> io::Result<WireResponse> {
        self.roundtrip(|body| body.push(OP_STATS))
    }

    /// Asks the server to stop accepting work.
    pub fn shutdown(&mut self) -> io::Result<WireResponse> {
        self.roundtrip(|body| body.push(OP_SHUTDOWN))
    }
}
