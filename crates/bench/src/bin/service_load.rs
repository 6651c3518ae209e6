//! Solver-as-a-service load generator: mixed open-loop Zipf traffic
//! against one `Service`, latency percentiles split by cache hit/miss,
//! a warm-vs-cold comparison, an overload scenario, and a TCP smoke.
//!
//! Five phases, all with fixed seeds:
//!
//! * **mixed** — `threads` clients submit Zipf-distributed traffic over
//!   8 grid patterns (60% factor / 30% solve / 10% batch); reports
//!   throughput and p50/p95/p99 split by cache outcome.
//! * **warm_vs_miss** — repeated factor requests for one pattern: cold
//!   misses on fresh services (pay the analysis) vs warm hits on one
//!   service. Asserts warm-hit p50 ≥ 2× faster than miss p50 — the
//!   cache earning its keep.
//! * **overload** — queue depth 2 under 8 unpaced threads: every
//!   request must complete or shed typed (`Overloaded`); no panics, no
//!   hangs, no unbounded queue.
//! * **tcp** — in-process server on localhost, 2 protocol clients × 20
//!   mixed requests; asserts zero protocol errors and nonzero cache
//!   hits, then a clean shutdown.
//! * **many_conns** — 64 concurrent connections against the
//!   evented front end with a 2-thread fixed worker pool; asserts
//!   every request on every connection is served and reports
//!   per-request latency percentiles over the multiplexed loop.
//!
//! Writes `BENCH_service.json`. Usage: `service_load [reqs_per_thread]
//! [out.json]` (default 40; CI uses a smaller count).

use rlchol_core::solver::SolverOptions;
use rlchol_matgen::{grid3d, Stencil};
use rlchol_service::{protocol, CacheOutcome, Request, Service, ServiceConfig, ServiceError};
use rlchol_sparse::SymCsc;
use std::sync::Arc;
use std::time::Instant;

const PATTERNS: [(usize, usize, usize); 8] = [
    (4, 4, 3),
    (5, 4, 3),
    (5, 5, 4),
    (6, 5, 4),
    (6, 6, 4),
    (7, 6, 5),
    (7, 7, 5),
    (8, 7, 5),
];
const ZIPF_S: f64 = 1.1;

fn pattern_matrix(rank: usize, seed: u64) -> SymCsc {
    let (x, y, z) = PATTERNS[rank % PATTERNS.len()];
    grid3d(x, y, z, Stencil::Star7, 1, seed)
}

/// SplitMix64 — deterministic, seedable, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s) sampler over `n` ranks via the cumulative weight table.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / ((rank + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for w in &mut cdf {
            *w /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf.iter().position(|&c| u <= c).unwrap_or(0)
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct LatencySplit {
    hit: Vec<f64>,
    miss: Vec<f64>,
}

fn pcts_json(label: &str, mut lat: Vec<f64>) -> String {
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    format!(
        "{{\"class\": \"{label}\", \"count\": {}, \"p50_ms\": {:.4}, \
         \"p95_ms\": {:.4}, \"p99_ms\": {:.4}}}",
        lat.len(),
        percentile(&lat, 50.0) * 1e3,
        percentile(&lat, 95.0) * 1e3,
        percentile(&lat, 99.0) * 1e3,
    )
}

fn rhs_for(a: &SymCsc) -> Vec<f64> {
    let ones = vec![1.0; a.n()];
    let mut b = vec![0.0; a.n()];
    a.matvec(&ones, &mut b);
    b
}

fn service_config(queue_depth: usize, lanes: usize) -> ServiceConfig {
    ServiceConfig {
        options: SolverOptions {
            factor_lanes: lanes,
            ..SolverOptions::default()
        },
        queue_depth,
        cache_bytes: 1 << 30,
        default_deadline: None,
        batch_window_us: 0,
    }
}

/// Phase A: mixed Zipf traffic. Returns (throughput req/s, split, json).
fn phase_mixed(reqs_per_thread: usize, threads: usize) -> (f64, String) {
    let service = Arc::new(Service::new(service_config(4 * threads, 4)));
    let t0 = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut rng = Rng(0xA11C_E000 + t as u64);
                let zipf = Zipf::new(PATTERNS.len(), ZIPF_S);
                let mut split = LatencySplit {
                    hit: Vec::new(),
                    miss: Vec::new(),
                };
                for i in 0..reqs_per_thread {
                    let rank = zipf.sample(&mut rng);
                    let seed = 10_000 + (t * reqs_per_thread + i) as u64;
                    let a = pattern_matrix(rank, seed);
                    let roll = rng.f64();
                    let req = if roll < 0.6 {
                        Request::factor(a)
                    } else if roll < 0.9 {
                        let b = rhs_for(&a);
                        Request::solve(a, b)
                    } else {
                        let sets = vec![
                            pattern_matrix(rank, seed + 1).values().to_vec(),
                            pattern_matrix(rank, seed + 2).values().to_vec(),
                        ];
                        Request::batch(a, sets)
                    };
                    let t_req = Instant::now();
                    let resp = service.submit(req).expect("mixed traffic stays admitted");
                    let lat = t_req.elapsed().as_secs_f64();
                    match resp.metrics.cache {
                        CacheOutcome::Hit => split.hit.push(lat),
                        _ => split.miss.push(lat),
                    }
                }
                split
            })
        })
        .collect();
    let mut hit = Vec::new();
    let mut miss = Vec::new();
    for w in workers {
        let s = w.join().expect("no load thread panicked");
        hit.extend(s.hit);
        miss.extend(s.miss);
    }
    let wall = t0.elapsed().as_secs_f64();
    let total = (threads * reqs_per_thread) as f64;
    let throughput = total / wall;
    let stats = service.stats();
    assert_eq!(stats.completed, total as u64, "every request completed");
    assert!(stats.cache.hits > 0, "Zipf repeats must hit the cache");
    println!(
        "mixed: {total} reqs on {threads} threads in {wall:.2} s -> {throughput:.1} req/s \
         ({} hits, {} misses+coalesced)",
        hit.len(),
        miss.len()
    );
    let json = format!(
        "{{\"threads\": {threads}, \"requests\": {total}, \"wall_s\": {wall:.4}, \
         \"throughput_rps\": {throughput:.2}, \"latency\": [{}, {}], \"cache\": {{\
         \"hits\": {}, \"misses\": {}, \"coalesced\": {}}}}}",
        pcts_json("hit", hit),
        pcts_json("miss", miss),
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.coalesced,
    );
    (throughput, json)
}

/// Phase B: warm hits vs cold misses on one repeated pattern.
fn phase_warm_vs_miss() -> String {
    let dims = (10, 10, 6);
    let cold_samples = 5;
    let warm_samples = 32;
    let mk = |seed: u64| grid3d(dims.0, dims.1, dims.2, Stencil::Star7, 1, seed);

    // Cold: a fresh service per sample pays ordering + analysis.
    let mut cold = Vec::new();
    for i in 0..cold_samples {
        let service = Service::new(service_config(4, 1));
        let t0 = Instant::now();
        let resp = service
            .submit(Request::factor(mk(500 + i)))
            .expect("SPD factor");
        cold.push(t0.elapsed().as_secs_f64());
        assert_eq!(resp.metrics.cache, CacheOutcome::Miss);
    }

    // Warm: one service, the pattern analyzed once up front.
    let service = Service::new(service_config(4, 1));
    service.submit(Request::analyze(mk(0))).expect("warmup");
    let mut warm = Vec::new();
    for i in 0..warm_samples {
        let t0 = Instant::now();
        let resp = service
            .submit(Request::factor(mk(600 + i)))
            .expect("SPD factor");
        warm.push(t0.elapsed().as_secs_f64());
        assert_eq!(resp.metrics.cache, CacheOutcome::Hit);
    }

    let mut c = cold.clone();
    let mut w = warm.clone();
    c.sort_by(|a, b| a.partial_cmp(b).unwrap());
    w.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let miss_p50 = percentile(&c, 50.0);
    let hit_p50 = percentile(&w, 50.0);
    let speedup = miss_p50 / hit_p50;
    println!(
        "warm_vs_miss: grid3d{dims:?} miss p50 {:.2} ms, warm-hit p50 {:.2} ms -> {speedup:.1}x",
        miss_p50 * 1e3,
        hit_p50 * 1e3
    );
    assert!(
        speedup >= 2.0,
        "warm hits must be >= 2x faster than misses (got {speedup:.2}x): \
         the handle cache is not amortizing analysis"
    );
    format!(
        "{{\"pattern\": \"grid3d{dims:?}\", \"miss_p50_ms\": {:.4}, \
         \"hit_p50_ms\": {:.4}, \"speedup\": {speedup:.2}}}",
        miss_p50 * 1e3,
        hit_p50 * 1e3
    )
}

/// Phase C: 8 unpaced threads against queue depth 2.
fn phase_overload() -> String {
    let threads = 8;
    let per_thread = 24;
    let service = Arc::new(Service::new(service_config(2, 2)));
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let service = Arc::clone(&service);
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut shed = 0u64;
                for i in 0..per_thread {
                    let a = pattern_matrix(4, 20_000 + (t * per_thread + i) as u64);
                    match service.submit(Request::factor(a)) {
                        Ok(_) => ok += 1,
                        Err(ServiceError::Overloaded { .. }) => shed += 1,
                        Err(e) => panic!("overload run saw a non-shed error: {e}"),
                    }
                }
                (ok, shed)
            })
        })
        .collect();
    let (mut ok, mut shed) = (0u64, 0u64);
    for w in workers {
        let (o, s) = w.join().expect("no overload thread hung or panicked");
        ok += o;
        shed += s;
    }
    let total = (threads * per_thread) as u64;
    assert_eq!(ok + shed, total, "every request completed or shed typed");
    assert!(shed > 0, "8 threads against depth 2 must shed");
    assert_eq!(service.stats().in_flight, 0, "gate fully drained");
    println!("overload: {total} reqs, {ok} completed, {shed} typed sheds, 0 hangs");
    format!(
        "{{\"threads\": {threads}, \"queue_depth\": 2, \"requests\": {total}, \
         \"completed\": {ok}, \"shed_overload\": {shed}}}"
    )
}

/// Phase D: protocol smoke over localhost TCP.
fn phase_tcp() -> String {
    let service = Arc::new(Service::new(service_config(8, 2)));
    let (addr, server) =
        protocol::spawn_server("127.0.0.1:0", Arc::clone(&service)).expect("bind localhost");
    let clients = 2;
    let per_client = 20;
    let workers: Vec<_> = (0..clients)
        .map(|c| {
            std::thread::spawn(move || {
                let mut client = protocol::Client::connect(addr).expect("connect");
                let mut rng = Rng(0xBEEF + c as u64);
                let mut protocol_errors = 0u64;
                for i in 0..per_client {
                    let rank = (rng.next() % 3) as usize;
                    let a = pattern_matrix(rank, 30_000 + (c * per_client + i) as u64);
                    let resp = match i % 3 {
                        0 => client.analyze(&a),
                        1 => client.factor(&a, None, 0),
                        _ => {
                            let b = rhs_for(&a);
                            client.solve(&a, &b, None, 0)
                        }
                    };
                    match resp {
                        Ok(r) if r.ok() => {}
                        Ok(r) => {
                            panic!("in-band error on clean traffic: {}", r.json)
                        }
                        Err(_) => protocol_errors += 1,
                    }
                }
                protocol_errors
            })
        })
        .collect();
    let mut protocol_errors = 0;
    for w in workers {
        protocol_errors += w.join().expect("client thread finished");
    }
    let hits = service.cache().stats().hits;
    assert_eq!(protocol_errors, 0, "zero protocol errors on the smoke run");
    assert!(hits > 0, "TCP traffic must produce cache hits");
    let mut shut = protocol::Client::connect(addr).expect("connect for shutdown");
    shut.shutdown().expect("shutdown ack");
    drop(shut);
    server.join().expect("server joined").expect("clean exit");
    let total = clients * per_client;
    println!("tcp: {total} requests, 0 protocol errors, {hits} cache hits, clean shutdown");
    format!(
        "{{\"clients\": {clients}, \"requests\": {total}, \
         \"protocol_errors\": 0, \"cache_hits\": {hits}}}"
    )
}

/// Phase E: 64 concurrent connections multiplexed over a 2-thread
/// evented worker pool — the thread-per-connection design this replaced
/// would have needed 64 handler threads.
fn phase_many_conns() -> String {
    use rlchol_service::{ClientOptions, NetStats, ServeOptions};
    use std::time::Duration;

    let conns = 64;
    let per_conn = 3;
    let net_workers = 2;
    let service = Arc::new(Service::new(service_config(16, 2)));
    let stats = Arc::new(NetStats::default());
    let opts = ServeOptions {
        workers: net_workers,
        stats: Some(Arc::clone(&stats)),
        ..ServeOptions::default()
    };
    let (addr, server) = protocol::spawn_server_with("127.0.0.1:0", Arc::clone(&service), opts)
        .expect("bind localhost");

    let t0 = Instant::now();
    let barrier = Arc::new(std::sync::Barrier::new(conns));
    let workers: Vec<_> = (0..conns)
        .map(|c| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut client = protocol::Client::connect_with(
                    addr,
                    ClientOptions {
                        connect_timeout: Some(Duration::from_secs(30)),
                        read_timeout: Some(Duration::from_secs(120)),
                    },
                )
                .expect("connect");
                let mut lat = Vec::new();
                for i in 0..per_conn {
                    let a = pattern_matrix(c % 4, 40_000 + (c * per_conn + i) as u64);
                    let t_req = Instant::now();
                    let resp = match i % 3 {
                        0 => client.analyze(&a),
                        1 => client.factor(&a, None, 0),
                        _ => {
                            let b = rhs_for(&a);
                            client.solve(&a, &b, None, 0)
                        }
                    }
                    .expect("many-conns roundtrip");
                    assert!(resp.ok(), "request failed in-band: {}", resp.json);
                    lat.push(t_req.elapsed().as_secs_f64());
                }
                lat
            })
        })
        .collect();
    let mut lat = Vec::new();
    for w in workers {
        lat.extend(w.join().expect("no connection thread hung or panicked"));
    }
    let wall = t0.elapsed().as_secs_f64();
    let total = conns * per_conn;
    let accepted = stats.accepted.load(std::sync::atomic::Ordering::Relaxed);
    let frames = stats.frames.load(std::sync::atomic::Ordering::Relaxed);
    assert!(accepted >= conns as u64, "all {conns} connections accepted");
    assert!(frames >= total as u64, "all {total} frames served");

    let mut shut = protocol::Client::connect(addr).expect("connect for shutdown");
    shut.shutdown().expect("shutdown ack");
    drop(shut);
    server.join().expect("server joined").expect("clean exit");
    println!(
        "many_conns: {conns} connections x {per_conn} reqs over {net_workers} net workers \
         in {wall:.2} s ({accepted} accepted, {frames} frames)"
    );
    format!(
        "{{\"connections\": {conns}, \"net_workers\": {net_workers}, \"requests\": {total}, \
         \"wall_s\": {wall:.4}, \"accepted\": {accepted}, \"frames\": {frames}, \
         \"latency\": {}}}",
        pcts_json("all", lat)
    )
}

fn main() {
    let mut args = std::env::args().skip(1);
    let reqs_per_thread: usize = args
        .next()
        .map(|v| v.parse().expect("requests per thread must be an integer"))
        .unwrap_or(40);
    let out_path = args
        .next()
        .unwrap_or_else(|| "BENCH_service.json".to_string());
    let threads = 4;

    let t0 = Instant::now();
    let (throughput, mixed) = phase_mixed(reqs_per_thread, threads);
    let warm = phase_warm_vs_miss();
    let overload = phase_overload();
    let tcp = phase_tcp();
    let many_conns = phase_many_conns();

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"service_load\",\n",
            "  \"reqs_per_thread\": {},\n",
            "  \"zipf_s\": {},\n",
            "  \"throughput_rps\": {:.2},\n",
            "  \"mixed\": {},\n",
            "  \"warm_vs_miss\": {},\n",
            "  \"overload\": {},\n",
            "  \"tcp\": {},\n",
            "  \"many_conns\": {}\n",
            "}}\n"
        ),
        reqs_per_thread, ZIPF_S, throughput, mixed, warm, overload, tcp, many_conns
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!(
        "wrote {out_path} (5 phases, {:.1} s total)",
        t0.elapsed().as_secs_f64()
    );
}
