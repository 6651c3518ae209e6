//! Single-flight coalescing and admission-control semantics, driven
//! through the public `Service` API.

use rlchol_core::solver::SolverOptions;
use rlchol_matgen::{grid3d, Stencil};
use rlchol_service::{Request, Service, ServiceConfig, ServiceError};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn config(queue_depth: usize, lanes: usize) -> ServiceConfig {
    ServiceConfig {
        options: SolverOptions {
            factor_lanes: lanes,
            ..SolverOptions::default()
        },
        queue_depth,
        cache_bytes: 1 << 30,
        default_deadline: None,
    }
}

#[test]
fn eight_concurrent_misses_run_one_analysis() {
    let service = Arc::new(Service::new(config(16, 4)));
    let barrier = Arc::new(Barrier::new(8));
    let workers: Vec<_> = (0..8)
        .map(|t| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Same pattern from every thread; distinct values.
                let a = grid3d(6, 6, 4, Stencil::Star7, 1, 100 + t);
                barrier.wait();
                service.submit(Request::factor(a))
            })
        })
        .collect();
    for w in workers {
        let resp = w.join().unwrap().expect("every coalesced request succeeds");
        let _ = resp;
    }
    let cache = service.cache().stats();
    assert_eq!(cache.misses, 1, "exactly one thread ran the analysis");
    assert_eq!(
        cache.coalesced + cache.hits,
        7,
        "the other seven coalesced onto the in-flight build or hit the \
         finished entry; got {cache:?}"
    );
    assert_eq!(service.stats().completed, 8);
    assert_eq!(service.stats().in_flight, 0, "gate fully released");
}

#[test]
fn overload_sheds_typed_and_never_hangs() {
    // One admission slot; a long batch occupies it while probes arrive.
    let service = Arc::new(Service::new(config(1, 1)));
    let holder = {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let pattern = grid3d(10, 10, 6, Stencil::Star7, 1, 1);
            let sets: Vec<Vec<f64>> = (0..48)
                .map(|i| {
                    grid3d(10, 10, 6, Stencil::Star7, 1, 50 + i)
                        .values()
                        .to_vec()
                })
                .collect();
            service.submit(Request::batch(pattern, sets))
        })
    };

    // Probe while the holder occupies the slot. Every probe must return
    // promptly — Ok only if the holder finished in between, otherwise a
    // typed Overloaded shed.
    let probe_matrix = grid3d(3, 3, 2, Stencil::Star7, 1, 9);
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut sheds = 0u64;
    while sheds == 0 {
        assert!(
            Instant::now() < deadline,
            "no shed observed within 30 s — admission gate not enforcing"
        );
        if service.stats().in_flight == 0 {
            if holder.is_finished() {
                break;
            }
            std::thread::yield_now();
            continue;
        }
        let t0 = Instant::now();
        match service.submit(Request::factor(probe_matrix.clone())) {
            Err(ServiceError::Overloaded { in_flight, limit }) => {
                assert_eq!(limit, 1);
                assert!(in_flight >= 1);
                sheds += 1;
            }
            Ok(_) => {} // holder drained between the stats read and the probe
            Err(e) => panic!("unexpected probe error: {e}"),
        }
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "probe must shed immediately, not queue"
        );
    }

    let held = holder.join().unwrap().expect("holder batch succeeds");
    let _ = held;
    assert!(sheds >= 1, "at least one typed Overloaded shed");
    assert_eq!(service.stats().shed_overload, sheds);
    assert_eq!(service.stats().in_flight, 0);

    // The gate frees capacity after sheds: a fresh request succeeds.
    service
        .submit(Request::factor(probe_matrix))
        .expect("capacity available after the holder finished");
}

#[test]
fn expired_deadline_sheds_before_work_and_counts() {
    let service = Service::new(config(4, 1));
    let a = grid3d(6, 6, 4, Stencil::Star7, 1, 3);
    // Zero budget is expired by the time admission completes.
    let req = Request {
        deadline: Some(Duration::ZERO),
        ..Request::factor(a.clone())
    };
    match service.submit(req) {
        Err(e @ ServiceError::DeadlineExceeded { .. }) => assert!(e.is_shed()),
        other => panic!("expected deadline shed, got {other:?}"),
    }
    assert_eq!(service.stats().shed_deadline, 1);
    // The same matrix without a deadline still factors fine.
    service
        .submit(Request::factor(a))
        .expect("no deadline, no shed");
}

#[test]
fn cache_miss_reports_the_analyze_stage_breakdown() {
    let service = Service::new(config(4, 1));
    let a = grid3d(6, 6, 4, Stencil::Star7, 1, 11);
    // The miss ran the analysis itself, so it carries the breakdown.
    let miss = service.submit(Request::analyze(a.clone())).unwrap();
    let stages = miss
        .metrics
        .analyze_stages
        .expect("cache miss must report analyze stages");
    assert!(stages.threads >= 1);
    assert!(
        stages.total() <= miss.metrics.analyze_wall,
        "stage sum {:?} cannot exceed the analyze wall {:?}",
        stages.total(),
        miss.metrics.analyze_wall
    );
    // A hit paid no analysis and claims none.
    let hit = service.submit(Request::analyze(a)).unwrap();
    assert!(hit.metrics.analyze_stages.is_none());
    assert_eq!(hit.metrics.analyze_wall, Duration::ZERO);
}

#[test]
fn shutdown_rejects_new_requests() {
    let service = Service::new(config(4, 1));
    let a = grid3d(3, 3, 2, Stencil::Star7, 1, 3);
    service.submit(Request::analyze(a.clone())).unwrap();
    service.shutdown();
    assert!(matches!(
        service.submit(Request::factor(a)),
        Err(ServiceError::ShuttingDown)
    ));
}
