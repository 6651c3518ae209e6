//! Wire-protocol integration: round-trips over a real localhost socket,
//! bitwise agreement with the in-process path, malformed-frame
//! handling, deadline errors in-band, and clean shutdown.

use rlchol_core::solver::SolverOptions;
use rlchol_core::{CholeskySolver, Method, SolveWorkspace};
use rlchol_matgen::{grid3d, Stencil};
use rlchol_service::{protocol, Request, Service, ServiceConfig};
use rlchol_sparse::SymCsc;
use std::io::{Read, Write};
use std::sync::Arc;

fn spawn() -> (
    std::net::SocketAddr,
    Arc<Service>,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let service = Arc::new(Service::new(ServiceConfig {
        queue_depth: 8,
        ..ServiceConfig::default()
    }));
    let (addr, server) =
        protocol::spawn_server("127.0.0.1:0", Arc::clone(&service)).expect("bind localhost");
    (addr, service, server)
}

fn matrix(seed: u64) -> SymCsc {
    grid3d(5, 4, 3, Stencil::Star7, 1, seed)
}

#[test]
fn full_request_cycle_over_tcp() {
    let (addr, service, server) = spawn();
    let mut client = protocol::Client::connect(addr).unwrap();

    let a = matrix(42);
    let n = a.n();

    // analyze: miss, reports sizes.
    let resp = client.analyze(&a).unwrap();
    assert!(resp.ok(), "{}", resp.json);
    assert_eq!(resp.str_field("cache").as_deref(), Some("miss"));
    assert_eq!(resp.num_field("n"), Some(n as f64));
    assert!(resp.num_field("memory_bytes").unwrap() > 0.0);

    // factor: hit on the warmed pattern.
    let resp = client.factor(&a, None, 0).unwrap();
    assert!(resp.ok(), "{}", resp.json);
    assert_eq!(resp.str_field("cache").as_deref(), Some("hit"));
    assert!(resp.num_field("factor_nnz").unwrap() > 0.0);

    // solve: payload is bitwise identical to the in-process path.
    let ones = vec![1.0; n];
    let mut b = vec![0.0; n];
    a.matvec(&ones, &mut b);
    let resp = client.solve(&a, &b, None, 0).unwrap();
    assert!(resp.ok(), "{}", resp.json);
    assert_eq!(resp.payload.len(), n);
    let handle = CholeskySolver::analyze(&a, &SolverOptions::default());
    let fact = handle.factor_with(&a).unwrap();
    let mut want = vec![0.0; n];
    let mut ws = SolveWorkspace::new();
    handle.solve_into(&fact, &b, &mut want, &mut ws).unwrap();
    assert_eq!(resp.payload, want, "wire solve is bitwise the local solve");

    // batch: three SPD value sets, all succeed.
    let sets: Vec<Vec<f64>> = (0..3).map(|i| matrix(60 + i).values().to_vec()).collect();
    let resp = client.batch(&a, &sets, None, 0).unwrap();
    assert!(resp.ok(), "{}", resp.json);
    assert!(
        resp.json.contains("\"batch\":[true,true,true]"),
        "{}",
        resp.json
    );

    // stats reflect the traffic.
    let resp = client.stats().unwrap();
    assert!(resp.ok());
    assert_eq!(resp.num_field("submitted"), Some(4.0));
    assert_eq!(resp.num_field("completed"), Some(4.0));
    assert_eq!(resp.num_field("misses"), Some(1.0));

    // shutdown stops the server; the join completes (no hang).
    let resp = client.shutdown().unwrap();
    assert!(resp.ok());
    drop(client);
    server.join().unwrap().unwrap();
    assert!(service.is_shutdown());
}

#[test]
fn bad_value_sets_and_deadlines_fail_in_band() {
    let (addr, service, server) = spawn();
    let mut client = protocol::Client::connect(addr).unwrap();
    let a = matrix(1);

    // Wrong-length batch value set. In-process it is a typed
    // bad_request; on the wire the frame itself cannot express it
    // (set length is fixed at nnz), so it surfaces as a framing error.
    match service.submit(Request::batch(a.clone(), vec![vec![1.0; 3]])) {
        Err(e) => assert_eq!(e.kind(), "bad_request"),
        Ok(_) => panic!("short value set must be rejected"),
    }

    // A 1 ms deadline on a cold large pattern: the request must come
    // back as a typed deadline/factor shed, never hang. (Analysis of a
    // 20×20×12 grid takes well over a millisecond.)
    let big = grid3d(20, 20, 12, Stencil::Star7, 1, 5);
    let resp = client.factor(&big, None, 1).unwrap();
    assert!(!resp.ok(), "{}", resp.json);
    let kind = resp.str_field("kind").unwrap();
    assert!(
        kind == "deadline" || (kind == "factor" && resp.json.contains("deadline")),
        "expected a deadline-shaped error, got: {}",
        resp.json
    );

    // The connection still serves after in-band errors.
    let resp = client.analyze(&a).unwrap();
    assert!(resp.ok());

    client.shutdown().unwrap();
    drop(client);
    server.join().unwrap().unwrap();
}

#[test]
fn malformed_frames_get_a_protocol_error_then_close() {
    let (addr, _service, server) = spawn();

    // Unknown op byte: answered with kind=protocol, then closed.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(&1u32.to_le_bytes()).unwrap();
    raw.write_all(&[99u8]).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).unwrap();
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut body).unwrap();
    let json_len = u32::from_le_bytes(body[..4].try_into().unwrap()) as usize;
    let json = std::str::from_utf8(&body[4..4 + json_len]).unwrap();
    assert!(json.contains("\"kind\":\"protocol\""), "{json}");
    assert!(json.contains("unknown op byte 99"), "{json}");
    // The server closed its end after the framing violation.
    let n = raw.read(&mut len).unwrap();
    assert_eq!(n, 0, "connection closed after protocol error");

    // Truncated body (header promises more bytes than sent): the
    // decoder rejects it without hanging.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let a = matrix(1);
    // op=factor, default method, no deadline, then a dimension header
    // promising a matrix that never arrives.
    let mut body = vec![2u8, 0xFF];
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&(a.n() as u64).to_le_bytes());
    body.extend_from_slice(&(a.nnz_lower() as u64).to_le_bytes());
    raw.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&body).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).unwrap();
    let mut resp = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut resp).unwrap();
    let json_len = u32::from_le_bytes(resp[..4].try_into().unwrap()) as usize;
    let json = std::str::from_utf8(&resp[4..4 + json_len]).unwrap();
    assert!(json.contains("\"kind\":\"protocol\""), "{json}");
    assert!(json.contains("truncated frame"), "{json}");

    // A fresh, well-formed connection still works.
    let mut client = protocol::Client::connect(addr).unwrap();
    assert!(client.analyze(&a).unwrap().ok());
    client.shutdown().unwrap();
    drop(client);
    drop(raw);
    server.join().unwrap().unwrap();
}

#[test]
fn every_method_byte_round_trips_and_one_past_the_end_is_typed() {
    let (addr, _service, server) = spawn();
    let mut client = protocol::Client::connect(addr).unwrap();
    let a = matrix(7);

    // The method travels as its index into `Method::ALL`; the reply
    // names the engine that ran.
    for method in Method::ALL {
        let resp = client.factor(&a, Some(method), 0).unwrap();
        assert!(resp.ok(), "{}: {}", method.label(), resp.json);
        assert_eq!(resp.str_field("method").as_deref(), Some(method.label()));
    }

    // One past the end, in an otherwise well-formed factor frame.
    let mut body = vec![2u8, Method::ALL.len() as u8];
    body.extend_from_slice(&0u32.to_le_bytes());
    body.extend_from_slice(&(a.n() as u64).to_le_bytes());
    body.extend_from_slice(&(a.nnz_lower() as u64).to_le_bytes());
    for &v in a.colptr().iter().chain(a.rowind()) {
        body.extend_from_slice(&(v as u64).to_le_bytes());
    }
    for &v in a.values() {
        body.extend_from_slice(&v.to_le_bytes());
    }
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
    raw.write_all(&body).unwrap();
    let mut len = [0u8; 4];
    raw.read_exact(&mut len).unwrap();
    let mut resp = vec![0u8; u32::from_le_bytes(len) as usize];
    raw.read_exact(&mut resp).unwrap();
    let json_len = u32::from_le_bytes(resp[..4].try_into().unwrap()) as usize;
    let json = std::str::from_utf8(&resp[4..4 + json_len]).unwrap();
    assert!(json.contains("\"kind\":\"protocol\""), "{json}");
    let want = format!("method index {} out of range", Method::ALL.len());
    assert!(json.contains(&want), "{json}");

    // The pool is alive: the first connection keeps serving.
    assert!(client.factor(&a, None, 0).unwrap().ok());
    client.shutdown().unwrap();
    drop(client);
    drop(raw);
    server.join().unwrap().unwrap();
}

#[test]
fn in_process_and_wire_paths_share_one_service() {
    // The same Service instance serves in-process submits and TCP
    // clients; the cache is shared across both.
    let (addr, service, server) = spawn();
    let a = matrix(7);
    service
        .submit(Request::analyze(a.clone()))
        .expect("in-process analyze");
    let mut client = protocol::Client::connect(addr).unwrap();
    let resp = client.factor(&a, None, 0).unwrap();
    assert!(resp.ok());
    assert_eq!(
        resp.str_field("cache").as_deref(),
        Some("hit"),
        "wire request hits the handle the in-process request warmed"
    );
    client.shutdown().unwrap();
    drop(client);
    server.join().unwrap().unwrap();
}
