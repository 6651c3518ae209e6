//! Evented front-end integration tests: partial-frame (slow-loris)
//! clients time out without wedging the pool, a burst of short-lived
//! connections all get served by a small fixed worker pool, injected
//! transient accept errors are survived, and solves coalesced by the
//! cross-request batching window stay bitwise-identical to the direct
//! staged-API path.

use rlchol_core::solver::SolverOptions;
use rlchol_core::{CholeskySolver, SolveWorkspace};
use rlchol_matgen::{grid3d, Stencil};
use rlchol_service::{
    protocol, Client, ClientOptions, NetStats, Request, ResponsePayload, ServeOptions, Service,
    ServiceConfig,
};
use rlchol_sparse::SymCsc;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

fn matrix(seed: u64) -> SymCsc {
    grid3d(5, 4, 3, Stencil::Star7, 1, seed)
}

fn rhs_for(a: &SymCsc) -> Vec<f64> {
    let ones = vec![1.0; a.n()];
    let mut b = vec![0.0; a.n()];
    a.matvec(&ones, &mut b);
    b
}

fn spawn_evented(
    opts: ServeOptions,
) -> (
    SocketAddr,
    Arc<Service>,
    Arc<NetStats>,
    JoinHandle<std::io::Result<()>>,
) {
    let stats = Arc::new(NetStats::default());
    let opts = ServeOptions {
        stats: Some(Arc::clone(&stats)),
        ..opts
    };
    let service = Arc::new(Service::new(ServiceConfig {
        queue_depth: 16,
        ..ServiceConfig::default()
    }));
    let (addr, server) = protocol::spawn_server_with("127.0.0.1:0", Arc::clone(&service), opts)
        .expect("bind localhost");
    (addr, service, stats, server)
}

fn client(addr: SocketAddr) -> Client {
    Client::connect_with(
        addr,
        ClientOptions {
            connect_timeout: Some(Duration::from_secs(10)),
            read_timeout: Some(Duration::from_secs(30)),
        },
    )
    .expect("connect")
}

/// A client that trickles a partial frame and then stalls forever must
/// be closed by the idle deadline — costing a registry slot for the
/// timeout, not a worker — while well-behaved clients keep being
/// served the whole time.
#[test]
fn slow_loris_is_timed_out_without_wedging_the_pool() {
    let (addr, _service, stats, server) = spawn_evented(ServeOptions {
        workers: 2,
        conn_timeout_ms: 200,
        ..ServeOptions::default()
    });

    // Claim a 64-byte body, deliver 3 bytes, stall.
    let mut loris = TcpStream::connect(addr).expect("loris connect");
    loris.write_all(&64u32.to_le_bytes()).unwrap();
    loris.write_all(&[2, 0xFF, 0]).unwrap();
    loris.flush().unwrap();

    // While the loris stalls, a healthy client keeps getting answers.
    let mut good = client(addr);
    let a = matrix(1);
    let deadline = Instant::now() + Duration::from_secs(10);
    while stats.timed_out.load(Ordering::Relaxed) == 0 {
        assert!(Instant::now() < deadline, "loris never timed out");
        let resp = good.analyze(&a).expect("healthy client roundtrip");
        assert!(resp.ok());
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(stats.timed_out.load(Ordering::Relaxed) >= 1);

    // The pool is not wedged: fresh connections still work.
    let mut after = client(addr);
    assert!(after.factor(&a, None, 0).expect("post-loris factor").ok());
    after.shutdown().expect("shutdown");
    server.join().unwrap().unwrap();
    drop(loris);
}

/// 64 short-lived connections against a 2-thread worker pool: every
/// request is served, nothing is dropped, and the pool stays fixed (the
/// server never spawns per-connection threads).
#[test]
fn burst_of_connections_is_served_by_a_small_fixed_pool() {
    const CONNS: usize = 64;
    let (addr, _service, stats, server) = spawn_evented(ServeOptions {
        workers: 2,
        ..ServeOptions::default()
    });

    let barrier = Arc::new(Barrier::new(CONNS));
    let clients: Vec<_> = (0..CONNS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut c = client(addr);
                // Two patterns so the cache sees hits and misses.
                let a = matrix(1 + (i % 2) as u64);
                let resp = c.analyze(&a).expect("burst roundtrip");
                assert!(resp.ok(), "request {i} failed: {}", resp.json);
            })
        })
        .collect();
    for c in clients {
        c.join().expect("burst client panicked");
    }

    assert!(stats.accepted.load(Ordering::Relaxed) >= CONNS as u64);
    assert!(stats.frames.load(Ordering::Relaxed) >= CONNS as u64);

    let mut c = client(addr);
    c.shutdown().expect("shutdown");
    server.join().unwrap().unwrap();
}

/// Injected transient accept failures (the `ECONNABORTED`/`EMFILE`
/// family) are counted and retried with backoff; the pending connection
/// is accepted once the fault ordinals pass, and the server keeps
/// running.
#[test]
fn transient_accept_errors_are_survived() {
    let (addr, _service, stats, server) = spawn_evented(ServeOptions {
        workers: 1,
        accept_faults: vec![0, 1, 2],
        ..ServeOptions::default()
    });

    // The TCP handshake completes in the kernel backlog immediately;
    // the server's accept(2) of it fails three times first.
    let mut c = client(addr);
    let resp = c.analyze(&matrix(7)).expect("roundtrip after faults");
    assert!(resp.ok());

    assert_eq!(stats.accept_errors.load(Ordering::Relaxed), 3);
    assert!(stats.accepted.load(Ordering::Relaxed) >= 1);

    c.shutdown().expect("shutdown");
    server.join().unwrap().unwrap();
}

/// A request delivered one byte at a time (with pauses) is assembled
/// incrementally and answered like any other — partial delivery is a
/// normal TCP condition, not an error.
#[test]
fn partial_frame_delivery_is_assembled_incrementally() {
    let (addr, _service, _stats, server) = spawn_evented(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });

    // A stats request: header 1u32, body [OP_STATS].
    let wire = [1u8, 0, 0, 0, 5];
    let mut raw = TcpStream::connect(addr).expect("connect");
    for b in wire {
        raw.write_all(&[b]).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(Duration::from_millis(10));
    }
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).expect("response header");
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut body).expect("response body");
    let json = String::from_utf8_lossy(&body);
    assert!(json.contains("\"ok\":true"), "bad stats response: {json}");

    let mut c = client(addr);
    c.shutdown().expect("shutdown");
    server.join().unwrap().unwrap();
}

/// Solves that arrive inside the coalescing window fan out through one
/// `batch_factor_ctl` call — and the answers are **bitwise identical**
/// to the direct staged-API path, so coalescing is invisible to
/// clients beyond the metrics.
#[test]
fn coalesced_solves_are_bitwise_identical_to_the_direct_path() {
    const MEMBERS: usize = 6;
    let opts = SolverOptions::default();

    // Direct-path oracle: one handle, factor + solve per value set.
    let handle = CholeskySolver::analyze(&matrix(100), &opts);
    let mut ws = SolveWorkspace::new();
    let oracle: Vec<Vec<f64>> = (0..MEMBERS)
        .map(|i| {
            let a = matrix(100 + i as u64);
            let fact = handle.factor_with(&a).expect("SPD oracle factor");
            let b = rhs_for(&a);
            let mut x = vec![0.0; a.n()];
            handle.solve_into(&fact, &b, &mut x, &mut ws).unwrap();
            handle.recycle(fact);
            x
        })
        .collect();

    let service = Arc::new(Service::new(ServiceConfig {
        options: opts,
        queue_depth: 2 * MEMBERS,
        batch_window_us: 50_000,
        ..ServiceConfig::default()
    }));
    let barrier = Arc::new(Barrier::new(MEMBERS));
    let workers: Vec<_> = (0..MEMBERS)
        .map(|i| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let a = matrix(100 + i as u64);
                let b = rhs_for(&a);
                barrier.wait();
                let resp = service.submit(Request::solve(a, b)).expect("solve");
                (i, resp)
            })
        })
        .collect();

    let mut max_batch = 0;
    for w in workers {
        let (i, resp) = w.join().expect("member panicked");
        match &resp.payload {
            ResponsePayload::Solved { x, .. } => {
                assert_eq!(
                    x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    oracle[i].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "coalesced solve {i} differs from the direct path"
                );
            }
            other => panic!("expected Solved, got {other:?}"),
        }
        assert!(resp.metrics.batch_size >= 1);
        max_batch = max_batch.max(resp.metrics.batch_size);
    }

    // Barrier + 50 ms window: at least one fan-out must have coalesced.
    assert!(
        max_batch >= 2,
        "no request coalesced (max batch {max_batch})"
    );
    let stats = service.stats();
    assert!(stats.coalesced_batches >= 1);
    assert!(stats.coalesced_requests >= 2);
}

/// Writes `pieces` raw, pausing between them, and returns the JSON
/// report of each reply frame until the server closes the connection or
/// `replies` have arrived.
fn raw_exchange(addr: SocketAddr, pieces: &[&[u8]], replies: usize) -> Vec<String> {
    let mut raw = TcpStream::connect(addr).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    for (i, piece) in pieces.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(Duration::from_millis(20));
        }
        raw.write_all(piece).unwrap();
    }
    let mut out = Vec::new();
    while out.len() < replies {
        let mut len = [0u8; 4];
        if raw.read_exact(&mut len).is_err() {
            break; // closed
        }
        let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
        raw.read_exact(&mut body).expect("reply body");
        let json_len = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
        out.push(String::from_utf8(body[4..4 + json_len].to_vec()).expect("UTF-8 report"));
    }
    out
}

fn frame(body: &[u8]) -> Vec<u8> {
    let mut f = (body.len() as u32).to_le_bytes().to_vec();
    f.extend_from_slice(body);
    f
}

/// A request body up to and including its counts: op, default method,
/// no deadline, `n`, `nnz`.
fn request_head(op: u8, n: u64, nnz: u64) -> Vec<u8> {
    let mut b = vec![op, 0xFF, 0, 0, 0, 0];
    b.extend_from_slice(&n.to_le_bytes());
    b.extend_from_slice(&nnz.to_le_bytes());
    b
}

fn words(b: &mut Vec<u8>, ws: &[u64]) {
    for w in ws {
        b.extend_from_slice(&w.to_le_bytes());
    }
}

/// A request costs what the work costs, not a delayed ACK: the frame
/// goes out in one write with `TCP_NODELAY` set. The stall this guards
/// against is a 40 ms floor under every round trip once the connection
/// has left its initial quick-ACK phase, so the medians leave a 4×
/// margin either way.
#[test]
fn round_trips_do_not_wait_out_a_delayed_ack() {
    const TRIPS: usize = 21;
    let limit = Duration::from_millis(10);
    let (addr, _service, _stats, server) = spawn_evented(ServeOptions::default());
    let mut c = client(addr);
    let a = matrix(3);
    let b = rhs_for(&a);
    assert!(8 * (a.n() + 1 + 2 * a.nnz_lower() + a.n()) < 64 * 1024);
    assert!(c.solve(&a, &b, None, 0).expect("warm-up").ok());

    let mut median_of = |trip: &mut dyn FnMut(&mut Client)| {
        let mut rtts: Vec<Duration> = (0..TRIPS)
            .map(|_| {
                let t = Instant::now();
                trip(&mut c);
                t.elapsed()
            })
            .collect();
        rtts.sort();
        rtts[TRIPS / 2]
    };
    let stats = median_of(&mut |c| assert!(c.stats().expect("stats").ok()));
    let solve = median_of(&mut |c| assert!(c.solve(&a, &b, None, 0).expect("solve").ok()));
    assert!(stats < limit, "median stats round trip {stats:?}");
    assert!(solve < limit, "median solve round trip {solve:?}");

    c.shutdown().expect("shutdown");
    server.join().unwrap().unwrap();
}

/// Counts a frame announces are held to the bytes the frame has before
/// anything is allocated or added: each hostile frame gets a typed
/// protocol error and a closed connection, and after more of them than
/// there are workers the server still serves.
#[test]
fn hostile_counts_get_a_typed_error_and_leave_the_pool_alive() {
    const WORKERS: usize = 2;
    let (addr, _service, _stats, server) = spawn_evented(ServeOptions {
        workers: WORKERS,
        ..ServeOptions::default()
    });

    // A valid 2×2 pattern to hang a hostile batch count on.
    let batch_of = |k: u32| {
        let mut b = request_head(4, 2, 3);
        words(&mut b, &[0, 2, 3]);
        words(&mut b, &[0, 1, 1]);
        words(&mut b, &[4f64.to_bits(), (-1f64).to_bits(), 4f64.to_bits()]);
        b.extend_from_slice(&k.to_le_bytes());
        b
    };
    // The empty pattern: its value sets take no bytes at all.
    let empty_batch = {
        let mut b = request_head(4, 0, 0);
        words(&mut b, &[0]);
        b.extend_from_slice(&u32::MAX.to_le_bytes());
        b
    };
    // Column pointers that pass a left-to-right monotonicity walk up to
    // a range far outside `rowind`.
    let wild_colptr = {
        let mut b = request_head(2, 2, 2);
        words(&mut b, &[0, 1 << 40, 2]);
        words(&mut b, &[0, 1]);
        words(&mut b, &[1f64.to_bits(); 2]);
        b
    };
    let hostile: Vec<(&str, Vec<u8>)> = vec![
        ("n = u64::MAX", request_head(2, u64::MAX, 1)),
        ("n + 1 over the frame", request_head(2, 1 << 40, 1)),
        ("nnz = u64::MAX", {
            let mut b = request_head(2, 1, u64::MAX);
            words(&mut b, &[0, 1]);
            b
        }),
        ("nnz over the frame", {
            let mut b = request_head(2, 1, 1 << 40);
            words(&mut b, &[0, 1]);
            b
        }),
        ("k = u32::MAX", batch_of(u32::MAX)),
        ("k over the frame", batch_of(2)),
        ("k = u32::MAX on the empty pattern", empty_batch),
        ("colptr past rowind", wild_colptr),
    ];
    assert!(hostile.len() > WORKERS);
    for (what, body) in &hostile {
        let replies = raw_exchange(addr, &[&frame(body)], 2);
        assert_eq!(replies.len(), 1, "{what}: one answer, then closed");
        assert!(
            replies[0].contains("\"kind\":\"protocol\""),
            "{what}: {}",
            replies[0]
        );
    }

    let mut good = client(addr);
    let a = matrix(1);
    let resp = good
        .solve(&a, &rhs_for(&a), None, 0)
        .expect("healthy solve");
    assert!(resp.ok(), "{}", resp.json);
    good.shutdown().expect("shutdown");
    server.join().unwrap().unwrap();
}

/// Requests written back to back — the last one split mid-header across
/// two writes — are each answered, in order.
#[test]
fn pipelined_frames_are_each_answered_in_order() {
    let (addr, _service, _stats, server) = spawn_evented(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    });
    // stats, a cold analyze, stats: the second stats sees the miss.
    let a = matrix(9);
    let mut analyze = request_head(1, a.n() as u64, a.nnz_lower() as u64);
    for ws in [a.colptr(), a.rowind()] {
        words(
            &mut analyze,
            &ws.iter().map(|&w| w as u64).collect::<Vec<_>>(),
        );
    }
    words(
        &mut analyze,
        &a.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    let burst = [frame(&[5]), frame(&analyze), frame(&[5])].concat();
    let split = burst.len() - 3;
    let replies = raw_exchange(addr, &[&burst[..split], &burst[split..]], 3);
    assert_eq!(replies.len(), 3, "{replies:?}");
    assert!(replies[0].contains("\"misses\":0"), "{}", replies[0]);
    assert!(replies[1].contains("\"op\":\"analyze\""), "{}", replies[1]);
    assert!(replies[2].contains("\"misses\":1"), "{}", replies[2]);

    let mut c = client(addr);
    c.shutdown().expect("shutdown");
    server.join().unwrap().unwrap();
}
