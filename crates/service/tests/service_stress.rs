//! Mixed-traffic concurrency stress: 8 threads hammer one `Service`
//! with analyze/factor/solve/batch requests over three patterns, and
//! every solution is checked **bitwise** against the serial staged-API
//! oracle (the same policy as tests/shared_handle.rs — planned solves
//! are bit-identical to serial at any lane/thread count). One thread
//! injects an indefinite value set mid-stream: that request alone fails
//! with the typed error, everything else is unaffected.

use rlchol_core::solver::SolverOptions;
use rlchol_core::{CholeskySolver, SolveWorkspace};
use rlchol_matgen::{grid3d, Stencil};
use rlchol_service::{Request, ResponsePayload, Service, ServiceConfig, ServiceError};
use rlchol_sparse::SymCsc;
use std::collections::HashMap;
use std::sync::Arc;

const THREADS: usize = 8;
const ITERS: usize = 12;
/// The (thread, iteration) that receives indefinite values.
const BAD_AT: (usize, usize) = (5, 6);

fn shapes() -> [(usize, usize, usize); 3] {
    [(4, 4, 3), (5, 4, 3), (5, 5, 4)]
}

fn matrix(pattern: usize, seed: u64) -> SymCsc {
    let (x, y, z) = shapes()[pattern % 3];
    grid3d(x, y, z, Stencil::Star7, 1, seed)
}

fn value_seed(thread: usize, iter: usize) -> u64 {
    3000 + (thread * ITERS + iter) as u64
}

fn options() -> SolverOptions {
    SolverOptions {
        factor_lanes: 4,
        ..SolverOptions::default()
    }
}

fn rhs_for(a: &SymCsc) -> Vec<f64> {
    let ones = vec![1.0; a.n()];
    let mut b = vec![0.0; a.n()];
    a.matvec(&ones, &mut b);
    b
}

#[test]
fn mixed_traffic_is_bitwise_identical_to_the_serial_oracle() {
    let opts = options();

    // Serial oracle: one handle per pattern, solved single-threaded.
    let mut oracle: HashMap<(usize, u64), Vec<f64>> = HashMap::new();
    for pattern in 0..3 {
        let a0 = matrix(pattern, 1);
        let handle = CholeskySolver::analyze(&a0, &opts);
        let mut ws = SolveWorkspace::new();
        for t in 0..THREADS {
            for i in 0..ITERS {
                let seed = value_seed(t, i);
                let a = matrix(pattern, seed);
                let fact = handle.factor_with(&a).expect("SPD oracle factor");
                let b = rhs_for(&a);
                let mut x = vec![0.0; a.n()];
                handle.solve_into(&fact, &b, &mut x, &mut ws).unwrap();
                handle.recycle(fact);
                oracle.insert((pattern, seed), x);
            }
        }
    }
    let oracle = Arc::new(oracle);

    let service = Arc::new(Service::new(ServiceConfig {
        options: opts,
        queue_depth: 2 * THREADS,
        cache_bytes: 1 << 30,
        default_deadline: None,
    }));

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let oracle = Arc::clone(&oracle);
            std::thread::spawn(move || {
                for i in 0..ITERS {
                    let pattern = (t + i) % 3;
                    let seed = value_seed(t, i);
                    let a = matrix(pattern, seed);
                    if (t, i) == BAD_AT {
                        // Indefinite values: typed failure, no fallout.
                        let mut bad = a.clone();
                        let mid = bad.n() / 2;
                        let dpos = bad.colptr()[mid];
                        bad.values_mut()[dpos] = -75.0;
                        match service.submit(Request::factor(bad)) {
                            Err(ServiceError::Factor(e)) => {
                                assert!(
                                    e.to_string().contains("positive definite"),
                                    "typed indefinite error, got: {e}"
                                );
                            }
                            other => panic!("bad values must fail typed: {other:?}"),
                        }
                        continue;
                    }
                    match i % 4 {
                        // Mostly solves (the bitwise observable), with
                        // analyze/factor/batch traffic mixed in.
                        0 => {
                            let resp = service
                                .submit(Request::analyze(a))
                                .expect("analyze succeeds");
                            match resp.payload {
                                ResponsePayload::Analyzed { n, .. } => {
                                    assert_eq!(n, matrix(pattern, 1).n())
                                }
                                other => panic!("wrong payload: {other:?}"),
                            }
                        }
                        1 => {
                            let sets = vec![
                                matrix(pattern, seed).values().to_vec(),
                                matrix(pattern, seed + 7000).values().to_vec(),
                            ];
                            let resp = service
                                .submit(Request::batch(a, sets))
                                .expect("batch succeeds");
                            match resp.payload {
                                ResponsePayload::Batched { outcomes } => {
                                    assert!(outcomes.iter().all(|r| r.is_ok()))
                                }
                                other => panic!("wrong payload: {other:?}"),
                            }
                        }
                        _ => {
                            let b = rhs_for(&a);
                            let resp = service
                                .submit(Request::solve(a, b))
                                .expect("solve succeeds");
                            match resp.payload {
                                ResponsePayload::Solved { x, .. } => {
                                    let want = &oracle[&(pattern, seed)];
                                    assert_eq!(
                                        &x, want,
                                        "thread {t} iter {i}: solution diverged \
                                         from the serial oracle (bitwise)"
                                    );
                                }
                                other => panic!("wrong payload: {other:?}"),
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("no worker panicked");
    }

    let stats = service.stats();
    assert_eq!(stats.submitted, (THREADS * ITERS) as u64);
    assert_eq!(stats.failed, 1, "exactly the injected indefinite request");
    assert_eq!(stats.completed, (THREADS * ITERS) as u64 - 1);
    assert_eq!(
        stats.shed_overload, 0,
        "queue depth covered the offered load"
    );
    assert_eq!(stats.in_flight, 0);
    let cache = stats.cache;
    assert_eq!(cache.misses, 3, "one analysis per pattern");
    assert_eq!(
        cache.hits + cache.coalesced,
        (THREADS * ITERS) as u64 - 3,
        "every other lookup reused a handle"
    );
    assert_eq!(cache.evictions, 0);
}
