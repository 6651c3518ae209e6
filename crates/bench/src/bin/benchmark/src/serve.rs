//! `serve_zipf`: the TCP service under a skewed traffic mix.
//!
//! The server runs in this process (`spawn_server_with` on an ephemeral
//! localhost port) and is driven through the shipped blocking `Client`,
//! unmodified: no socket option is set here that a user would not get.
//! Eight patterns `grid3d(k,k,k)`, k = 6…20, are ranked smallest-first
//! under Zipf(1.1); each has four value sets; half the requests are
//! `factor`, half `solve`.
//!
//! * **cold** — first contact per pattern on the fresh service (set-up).
//! * **closed** — two connections, each sends its next request when the
//!   reply arrives: callers that wait for replies.
//! * **open** — arrivals on a seeded exponential schedule at
//!   [`OPEN_RATE`] requests/s, each timed from its *intended* send time
//!   and served by whichever connection is free: independent users.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rlchol_matgen::{grid3d, Stencil};
use rlchol_service::{
    spawn_server_with, Client, NetStats, PatternFingerprint, Request, ServeOptions, Service,
    ServiceConfig, WireResponse,
};
use rlchol_sparse::SymCsc;

use crate::check::{check_residual, inf_norm};
use crate::json::Json;
use crate::metrics::Report;
use crate::spans::Tracer;
use crate::stats::{exponential_schedule, median, percentile_sorted, Rng, Summary, Zipf};
use crate::RunCfg;

const GRID_SIZES: [usize; 8] = [6, 8, 10, 12, 14, 16, 18, 20];
const VALUE_SETS: usize = 4;
const ZIPF_S: f64 = 1.1;
/// At most `nproc` (2 on the reference container) client connections.
const CONNECTIONS: usize = 2;
/// Open-loop arrival rate, requests/s: about 0.36 of the closed-loop
/// capacity measured when the benchmark was defined (66 requests/s). See
/// the README's re-basing rule before changing it.
pub const OPEN_RATE: f64 = 24.0;
/// Every this-many-th `solve` reply has its residual checked client-side.
const CHECK_EVERY: usize = 16;
/// The open phase's median latency is also taken over this many
/// consecutive parts of the schedule, to show how steady it was.
const OPEN_PARTS: usize = 6;
const SETUP_REPS: usize = 3;

struct Pattern {
    sets: Vec<SymCsc>,
    norms: Vec<f64>,
    rhs: Vec<f64>,
}

struct Inputs {
    patterns: Vec<Pattern>,
    zipf: Zipf,
}

fn make_inputs(seed: u64) -> Inputs {
    let mut rng = Rng::fork(seed, 0x5e47e);
    let patterns = GRID_SIZES
        .iter()
        .map(|&k| {
            let sets: Vec<SymCsc> = (0..VALUE_SETS)
                .map(|_| grid3d(k, k, k, Stencil::Star7, 1, rng.next_u64()))
                .collect();
            Pattern {
                norms: sets.iter().map(inf_norm).collect(),
                rhs: rng.rhs(k * k * k),
                sets,
            }
        })
        .collect();
    Inputs {
        patterns,
        zipf: Zipf::new(GRID_SIZES.len(), ZIPF_S),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Req {
    pattern: usize,
    set: usize,
    solve: bool,
}

impl Req {
    fn draw(inputs: &Inputs, rng: &mut Rng) -> Req {
        Req {
            pattern: inputs.zipf.sample(rng),
            set: rng.below(VALUE_SETS),
            solve: rng.unit() < 0.5,
        }
    }

    /// Bytes the client puts on the wire for this request — computed from
    /// the frame layout (length prefix, header, pattern, values, and the
    /// right-hand side of a solve), not observed on the socket.
    fn wire_bytes(&self, inputs: &Inputs) -> f64 {
        let a = &inputs.patterns[self.pattern].sets[self.set];
        let words = (a.n() + 1) + 2 * a.nnz_lower() + if self.solve { a.n() } else { 0 };
        (4 + 1 + 1 + 4 + 8 + 8 + 8 * words) as f64
    }
}

/// One completed request as the client saw it.
struct Rec {
    solve: bool,
    rtt_s: f64,
    /// Server-reported parts, ms: queue wait, analyze, factor, solve,
    /// coalesce wait.
    server_ms: [f64; 5],
    hit: bool,
    bytes: f64,
}

impl Rec {
    fn wire_overhead_ms(&self) -> f64 {
        self.rtt_s * 1e3 - self.server_ms.iter().sum::<f64>()
    }
}

/// One client connection with everything it records.
struct Conn<'a> {
    client: Client,
    inputs: &'a Inputs,
    tracer: Tracer,
    recs: Vec<Rec>,
    attempted: u64,
    failures: Vec<String>,
    solves: usize,
}

/// What every phase of one run shares.
struct Ctx<'a> {
    server: &'a Server,
    inputs: &'a Inputs,
    cfg: &'a RunCfg,
    /// Time origin of every span of the run.
    origin: Instant,
}

impl<'a> Ctx<'a> {
    fn connect(&self, traced: bool) -> Conn<'a> {
        Conn {
            client: Client::connect(self.server.addr).expect("connect to the local server"),
            inputs: self.inputs,
            tracer: Tracer::new(traced, self.origin),
            recs: Vec::new(),
            attempted: 0,
            failures: Vec::new(),
            solves: 0,
        }
    }
}

impl Conn<'_> {
    /// Sends one request and waits for its reply; `true` when it
    /// completed and left a [`Rec`]. A refused, failed or residual-failing
    /// request is a failure.
    fn request(&mut self, req: Req, id: u64, span: &'static str) -> bool {
        let p = &self.inputs.patterns[req.pattern];
        let a = &p.sets[req.set];
        let client = &mut self.client;
        let (reply, rtt) = self.tracer.time(span, None, id, || {
            if req.solve {
                client.solve(a, &p.rhs, None, 0)
            } else {
                client.factor(a, None, 0)
            }
        });
        self.attempted += 1;
        let reply: WireResponse = match reply {
            Ok(r) if r.ok() => r,
            Ok(r) => {
                let kind = r.str_field("kind").unwrap_or_default();
                let error = r.str_field("error").unwrap_or_default();
                self.failures.push(format!("request {id}: {kind}: {error}"));
                return false;
            }
            Err(e) => {
                self.failures.push(format!("request {id}: {e}"));
                return false;
            }
        };
        if req.solve {
            self.solves += 1;
            if self.solves % CHECK_EVERY == 1 {
                let checked =
                    check_residual("solve reply", a, p.norms[req.set], &reply.payload, &p.rhs);
                if let Err(msg) = checked {
                    self.failures.push(format!("request {id}: {msg}"));
                    return false;
                }
            }
        }
        let ms = |key| reply.num_field(key).unwrap_or(0.0);
        self.recs.push(Rec {
            solve: req.solve,
            rtt_s: rtt.as_secs_f64(),
            server_ms: [
                ms("queue_wait_ms"),
                ms("analyze_ms"),
                ms("factor_ms"),
                ms("solve_ms"),
                ms("coalesce_wait_ms"),
            ],
            hit: reply.str_field("cache").as_deref() == Some("hit"),
            bytes: req.wire_bytes(self.inputs),
        });
        true
    }

    /// Moves what this connection recorded into the run's report and
    /// tracer, returning the completed requests.
    fn finish(self, rep: &mut Report, tr: &mut Tracer) -> Vec<Rec> {
        rep.attempted += self.attempted;
        for msg in self.failures {
            rep.fail(msg);
        }
        tr.absorb(self.tracer);
        self.recs
    }
}

/// One open-loop request: how late it was sent and how long it took, both
/// from the moment it was due, and whether it completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenSample {
    pub index: usize,
    pub late_s: f64,
    pub latency_s: f64,
    pub ok: bool,
}

/// Runs an open loop: request `i` is due `schedule[i]` seconds after the
/// start and is taken by whichever connection is free. A connection that
/// is still busy when a request falls due sends it late — and the
/// request's latency, counted from the due time, includes that wait.
/// `call` returns whether the request completed.
pub fn open_loop<C: FnMut(usize) -> bool + Send>(
    schedule: &[f64],
    conns: Vec<C>,
) -> Vec<OpenSample> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let mut out: Vec<OpenSample> = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .into_iter()
            .map(|mut call| {
                let next = &next;
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        // Relaxed: the counter hands out indices and
                        // publishes nothing else.
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&offset) = schedule.get(index) else {
                            return mine;
                        };
                        let due = start + Duration::from_secs_f64(offset);
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let ok = call(index);
                        mine.push(OpenSample {
                            index,
                            late_s: sent.saturating_duration_since(due).as_secs_f64(),
                            latency_s: due.elapsed().as_secs_f64(),
                            ok,
                        });
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("open-loop worker panicked"))
            .collect()
    });
    out.sort_by_key(|s| s.index);
    out
}

/// A running server with the handles needed to stop it.
struct Server {
    service: Arc<Service>,
    net: Arc<NetStats>,
    addr: std::net::SocketAddr,
    thread: std::thread::JoinHandle<std::io::Result<()>>,
}

impl Server {
    fn start() -> std::io::Result<Server> {
        let service = Arc::new(Service::new(ServiceConfig::default()));
        let net = Arc::new(NetStats::default());
        let opts = ServeOptions {
            stats: Some(net.clone()),
            ..ServeOptions::default()
        };
        let (addr, thread) = spawn_server_with("127.0.0.1:0", service.clone(), opts)?;
        Ok(Server {
            service,
            net,
            addr,
            thread,
        })
    }

    /// Asks the server to stop and waits until its thread has ended.
    fn stop(self) -> Result<(), String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown request: {e}"))?;
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server ended with {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }
}

/// Cold phase: the first request for each pattern analyzes (a miss), the
/// second finds the handle cached (a hit). Returns `(miss_ms, hit_ms)`.
fn cold_phase(conn: &mut Conn) -> (Vec<f64>, Vec<f64>) {
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    for pattern in 0..GRID_SIZES.len() {
        for (nth, span) in ["service.cold_miss", "service.cold_hit"]
            .into_iter()
            .enumerate()
        {
            let req = Req {
                pattern,
                set: nth,
                solve: false,
            };
            if !conn.request(req, pattern as u64, span) {
                continue;
            }
            let rec = conn.recs.last().expect("a completed request left a record");
            if rec.hit != (nth == 1) {
                conn.failures.push(format!(
                    "cold phase, pattern {pattern}: request {nth} expected cache {}, got {}",
                    if nth == 1 { "hit" } else { "miss" },
                    if rec.hit { "hit" } else { "miss" }
                ));
            }
            if nth == 0 { &mut miss } else { &mut hit }.push(rec.rtt_s * 1e3);
        }
    }
    (miss, hit)
}

/// Creates, for every pattern, the workspace lanes that concurrent
/// requests will use, so no measured request pays for one and the peak
/// memory does not depend on which requests the seed happens to overlap.
/// Lanes are created lazily when factorizations of one pattern overlap;
/// this overlaps them on purpose until each handle has as many lanes as
/// there are connections.
fn warm_lanes(service: &Service, inputs: &Inputs, rep: &mut Report) {
    for p in &inputs.patterns {
        let key = PatternFingerprint::of_request(&p.sets[0], service.options());
        if !service.cache().contains(&key) {
            continue; // the cold phase failed and said so
        }
        let (handle, _) = service
            .cache()
            .get_or_analyze(key, || unreachable!("the key is cached"));
        let want = CONNECTIONS.min(handle.factor_lanes());
        for _ in 0..16 {
            if handle.lane_stats().created >= want {
                break;
            }
            let barrier = std::sync::Barrier::new(CONNECTIONS);
            let failures: Vec<String> = std::thread::scope(|s| {
                let workers: Vec<_> = (0..CONNECTIONS)
                    .map(|c| {
                        let request = Request::factor(p.sets[c % VALUE_SETS].clone());
                        let barrier = &barrier;
                        s.spawn(move || {
                            barrier.wait();
                            service.submit(request).err().map(|e| e.to_string())
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .filter_map(|w| w.join().expect("lane warm-up thread panicked"))
                    .collect()
            });
            for msg in failures {
                rep.fail(format!("lane warm-up: {msg}"));
            }
        }
    }
}

/// Closed loop: every connection sends its next request on reply, for
/// `seconds`. Returns the completed requests and the wall they took.
fn closed_phase(ctx: &Ctx, seconds: f64, rep: &mut Report, tr: &mut Tracer) -> (Vec<Rec>, f64) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let conns: Vec<Conn> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut conn = ctx.connect(ctx.cfg.traced);
                    let mut rng = Rng::fork(ctx.cfg.seed, 0xc105ed + c as u64);
                    let mut id = c as u64 * 1_000_000;
                    while Instant::now() < deadline {
                        let req = Req::draw(ctx.inputs, &mut rng);
                        conn.request(req, id, "service.roundtrip");
                        id += 1;
                    }
                    conn
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop client panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let recs = conns.into_iter().flat_map(|c| c.finish(rep, tr)).collect();
    (recs, wall)
}

/// Open loop over `seconds`. Returns the completed requests and one
/// sample per scheduled request.
fn open_phase(
    ctx: &Ctx,
    traced: bool,
    seconds: f64,
    rep: &mut Report,
    tr: &mut Tracer,
) -> (Vec<Rec>, Vec<OpenSample>) {
    let mut rng = Rng::fork(ctx.cfg.seed, 0x09e4);
    let schedule = exponential_schedule(&mut rng, OPEN_RATE, seconds);
    let reqs: Vec<Req> = schedule
        .iter()
        .map(|_| Req::draw(ctx.inputs, &mut rng))
        .collect();
    let mut conns: Vec<Conn> = (0..CONNECTIONS).map(|_| ctx.connect(traced)).collect();
    let reqs = &reqs;
    let samples = open_loop(
        &schedule,
        conns
            .iter_mut()
            .map(|conn| move |i: usize| conn.request(reqs[i], i as u64, "service.roundtrip"))
            .collect(),
    );
    let recs = conns.into_iter().flat_map(|c| c.finish(rep, tr)).collect();
    (recs, samples)
}

/// Latencies of the requests that completed. A fast refusal is not a
/// fast reply: a failed request counts in `failed`, which fails the run,
/// and stays out of the percentiles.
fn latencies_ms(samples: &[OpenSample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok)
        .map(|s| s.latency_s * 1e3)
        .collect()
}

/// Median of each of [`OPEN_PARTS`] consecutive parts of `lat`, which is
/// in schedule order.
fn part_medians(lat: &[f64]) -> Vec<f64> {
    lat.chunks(lat.len().div_ceil(OPEN_PARTS).max(1))
        .map(median)
        .collect()
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Report {
    let mut rep = Report::new("serve_zipf", cfg.traced);
    let origin = Instant::now();

    // Set-up: inputs from the seed, a fresh server, one connection, and
    // the cold phase. Untraced runs repeat it on a fresh server each time
    // so that `setup_s` is a median; the last server stays up.
    let mut setups = Vec::new();
    let mut live: Option<(Server, Inputs, Vec<f64>, Vec<f64>)> = None;
    for _ in 0..if cfg.traced { 1 } else { SETUP_REPS } {
        if let Some((server, ..)) = live.take() {
            if let Err(e) = server.stop() {
                rep.fail(e);
            }
        }
        let t0 = Instant::now();
        let inputs = make_inputs(cfg.seed);
        let server = Server::start().expect("bind an ephemeral localhost port");
        let (miss, hit) = {
            let ctx = Ctx {
                server: &server,
                inputs: &inputs,
                cfg,
                origin,
            };
            let mut conn = ctx.connect(cfg.traced);
            let cold = cold_phase(&mut conn);
            conn.finish(&mut rep, tr);
            cold
        };
        warm_lanes(&server.service, &inputs, &mut rep);
        setups.push(t0.elapsed().as_secs_f64());
        live = Some((server, inputs, miss, hit));
    }
    let (server, inputs, miss, hit) = live.expect("at least one set-up");
    let ctx = Ctx {
        server: &server,
        inputs: &inputs,
        cfg,
        origin,
    };
    rep.set_median("setup_s", &setups);
    rep.set_median("service.miss_ms", &miss);
    rep.set_median("service.hit_ms", &hit);
    rep.knobs.insert(
        "queue_depth",
        Json::Num(server.service.queue_depth() as f64),
    );
    rep.knobs.insert(
        "cache_budget_bytes",
        Json::Num(server.service.cache().budget_bytes() as f64),
    );
    rep.knobs.insert("open_rate_per_s", Json::Num(OPEN_RATE));

    // A traced run first takes an untraced open slice: the ratio of the
    // two medians is the tracing overhead.
    let (closed_s, open_s) = if cfg.traced {
        (cfg.seconds * 0.2, cfg.seconds * 0.2)
    } else {
        (cfg.seconds * 0.4, cfg.seconds * 0.6)
    };
    let mut untraced_p50 = None;
    if cfg.traced {
        let mut off = Tracer::new(false, origin);
        let (_, samples) = open_phase(&ctx, false, open_s, &mut rep, &mut off);
        untraced_p50 = Some(median(&latencies_ms(&samples)));
    }

    let (closed, closed_wall) = closed_phase(&ctx, closed_s, &mut rep, tr);
    let rps = closed.len() as f64 / closed_wall;
    rep.set("serve_rps", rps);
    rep.set("ops_per_s", rps);

    let (open, samples) = open_phase(&ctx, cfg.traced, open_s, &mut rep, tr);
    let lat = latencies_ms(&samples);
    if !lat.is_empty() {
        let s = Summary::of(&lat);
        let parts = part_medians(&lat);
        rep.set_with_parts("serve_p50_ms", s.median, &parts);
        rep.set("serve_p95_ms", s.p95);
        rep.set_with_parts("op_ms", s.median, &parts);
        if let Some(base) = untraced_p50 {
            rep.set("trace_overhead_frac", s.median / base);
        }
        let mut late: Vec<f64> = samples.iter().map(|s| s.late_s * 1e3).collect();
        late.sort_by(f64::total_cmp);
        rep.set("service.gen_late_p95_ms", percentile_sorted(&late, 95.0));
    }

    if cfg.traced {
        layer_metrics(&server, &inputs, cfg, &open, tr, &mut rep);
    }
    let stats = server.service.stats();
    rep.set(
        "service.shed",
        (stats.shed_overload + stats.shed_deadline) as f64,
    );
    rep.set("service.failed", stats.failed as f64);
    if let Err(e) = server.stop() {
        rep.fail(e);
    }
    rep
}

/// Where a request's time goes, from the numbers each reply carries and
/// from the service's own counters.
fn layer_metrics(
    server: &Server,
    inputs: &Inputs,
    cfg: &RunCfg,
    open: &[Rec],
    tr: &mut Tracer,
    rep: &mut Report,
) {
    let col = |f: &dyn Fn(&Rec) -> Option<f64>| open.iter().filter_map(f).collect::<Vec<f64>>();
    rep.set_median("service.queue_wait_ms", &col(&|r| Some(r.server_ms[0])));
    rep.set_median("service.factor_ms", &col(&|r| Some(r.server_ms[2])));
    rep.set_median(
        "service.solve_ms",
        &col(&|r| r.solve.then_some(r.server_ms[3])),
    );
    let mut wire = col(&|r| Some(r.wire_overhead_ms()));
    if !wire.is_empty() {
        wire.sort_by(f64::total_cmp);
        rep.set_median("service.wire_overhead_ms", &wire);
        rep.set(
            "service.wire_overhead_p95_ms",
            percentile_sorted(&wire, 95.0),
        );
        rep.set(
            "service.request_bytes",
            open.iter().map(|r| r.bytes).sum::<f64>() / open.len() as f64,
        );
    }

    // Counters first: the probes below touch the cache themselves.
    let stats = server.service.stats();
    let lookups = stats.cache.hits + stats.cache.misses + stats.cache.coalesced;
    rep.set(
        "service.cache_hit_ratio",
        stats.cache.hits as f64 / lookups.max(1) as f64,
    );
    rep.set(
        "service.net_frames",
        server.net.frames.load(Ordering::Relaxed) as f64,
    );

    // The same seeded mix, submitted in process: what the service costs
    // without the wire.
    let mut rng = Rng::fork(cfg.seed, 0x1a9c);
    let mut submit_ms = Vec::new();
    for id in 0..200u64 {
        let req = Req::draw(inputs, &mut rng);
        let p = &inputs.patterns[req.pattern];
        let a = p.sets[req.set].clone();
        let request = if req.solve {
            Request::solve(a, p.rhs.clone())
        } else {
            Request::factor(a)
        };
        let (res, d) = tr.time("service.submit", None, id, || {
            server.service.submit(request)
        });
        rep.op(res
            .map(|_| ())
            .map_err(|e| format!("in-process submit: {e}")));
        submit_ms.push(d.as_secs_f64() * 1e3);
    }
    rep.set_median("service.submit_p50_ms", &submit_ms);

    let largest = &inputs.patterns[GRID_SIZES.len() - 1].sets[0];
    let fingerprints: Vec<f64> = (0..20)
        .map(|i| {
            let (_, d) = tr.time("service.fingerprint", None, i, || {
                PatternFingerprint::of_request(largest, server.service.options())
            });
            d.as_secs_f64()
        })
        .collect();
    rep.set_median("service.fingerprint_s", &fingerprints);

    let (mut created, mut contended) = (0, 0);
    for p in &inputs.patterns {
        let key = PatternFingerprint::of_request(&p.sets[0], server.service.options());
        if server.service.cache().contains(&key) {
            let (handle, _) = server
                .service
                .cache()
                .get_or_analyze(key, || unreachable!("the key is cached"));
            let lanes = handle.lane_stats();
            created += lanes.created;
            contended += lanes.contended;
        }
    }
    rep.set("service.lanes_created", created as f64);
    rep.set("service.lanes_contended", contended as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_counts_from_the_intended_time() {
        // One connection; request 0 stalls for 60 ms while request 1
        // falls due after 5 ms. Request 1 is fast by itself, but it was
        // due during the stall: its latency must include the wait.
        let schedule = [0.0, 0.005];
        let stall = Duration::from_millis(60);
        let samples = open_loop(
            &schedule,
            vec![|i: usize| {
                if i == 0 {
                    std::thread::sleep(stall);
                }
                true
            }],
        );
        assert_eq!(samples.len(), 2);
        assert!(samples[0].latency_s >= 0.060);
        assert!(samples[0].late_s < 0.020, "{:?}", samples[0]);
        assert!(samples[1].late_s >= 0.050, "{:?}", samples[1]);
        assert!(samples[1].latency_s >= 0.050, "{:?}", samples[1]);
    }

    #[test]
    fn a_second_connection_takes_the_request_a_stalled_one_cannot() {
        let schedule = [0.0, 0.005];
        let make = || {
            |i: usize| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                true
            }
        };
        let samples = open_loop(&schedule, vec![make(), make()]);
        assert!(samples[1].latency_s < 0.040, "{:?}", samples[1]);
    }

    #[test]
    fn a_failed_request_has_no_latency() {
        let samples = open_loop(&[0.0, 0.001, 0.002], vec![|i: usize| i != 1]);
        assert_eq!(
            samples.iter().map(|s| s.ok).collect::<Vec<_>>(),
            [true, false, true]
        );
        assert_eq!(latencies_ms(&samples).len(), 2);
    }

    #[test]
    fn part_medians_cover_the_schedule_in_order() {
        let lat: Vec<f64> = (0..20).map(f64::from).collect();
        // 20 samples in 6 parts: five of 4, the last of what is left.
        assert_eq!(part_medians(&lat), [1.5, 5.5, 9.5, 13.5, 17.5]);
        assert_eq!(part_medians(&[7.0]), [7.0]);
    }

    #[test]
    fn request_mix_is_seed_stable_and_half_solves() {
        let inputs = Inputs {
            patterns: Vec::new(),
            zipf: Zipf::new(GRID_SIZES.len(), ZIPF_S),
        };
        let draw = |seed| {
            let mut rng = Rng::fork(seed, 7);
            (0..1000)
                .map(|_| Req::draw(&inputs, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let solves = draw(3).iter().filter(|r| r.solve).count();
        assert!((400..600).contains(&solves), "{solves}");
    }
}
