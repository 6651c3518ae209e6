//! Concurrency stress for the lane-pooled shared handle: 8 OS threads ×
//! 16 iterations hammering one `Arc<SymbolicCholesky>` with distinct
//! value sets, every produced factor checked **bitwise** against the
//! serial one-shot path.
//!
//! * Every registered engine runs the full hammer at the 8-lane cap; the
//!   contended cap shapes (1 and 2 lanes under 8 threads — checkout
//!   blocking and hand-off) run on a CPU and a pipelined GPU engine.
//! * A non-positive-definite value set is injected mid-stream on one
//!   thread to prove error isolation: that call fails with the typed
//!   error, every other in-flight and subsequent factorization is
//!   unaffected.

use std::collections::HashMap;
use std::sync::Arc;

use rlchol::matgen::{grid3d, Stencil};
use rlchol::{CholeskySolver, FactorData, FactorError, GpuOptions, Method, SolverOptions, SymCsc};

const THREADS: usize = 8;
const ITERS: usize = 16;
/// The (thread, iteration) that receives indefinite values.
const BAD_AT: (usize, usize) = (3, 8);

/// Same pattern for every seed; values re-roll per seed.
fn matrix(seed: u64) -> SymCsc {
    grid3d(4, 4, 3, Stencil::Star7, 1, seed)
}

fn value_seed(thread: usize, iter: usize) -> u64 {
    2000 + (thread * ITERS + iter) as u64
}

fn opts_for(method: Method, lanes: usize) -> SolverOptions {
    let threshold = if method.is_gpu() { 200 } else { usize::MAX };
    SolverOptions {
        method,
        gpu: GpuOptions::with_threshold(threshold),
        factor_lanes: lanes,
        ..SolverOptions::default()
    }
}

/// Runs the hammer for one engine × lane cap; panics on any mismatch.
/// Returns the pool stats so callers can check timing-dependent
/// counters (contention) with a retry instead of a flaky one-shot.
fn hammer(method: Method, lanes: usize) -> rlchol::LaneStats {
    let opts = opts_for(method, lanes);
    let a0 = matrix(value_seed(0, 0));
    let handle = Arc::new(CholeskySolver::analyze(&a0, &opts));
    assert_eq!(handle.factor_lanes(), lanes);

    // Serial references, one per distinct value set.
    let mut reference: HashMap<u64, FactorData> = HashMap::new();
    for t in 0..THREADS {
        for i in 0..ITERS {
            let seed = value_seed(t, i);
            let fresh = CholeskySolver::factor(&matrix(seed), &opts)
                .unwrap_or_else(|e| panic!("{method:?}: serial reference {seed}: {e}"));
            reference.insert(seed, fresh.factor_data().clone());
        }
    }
    let reference = Arc::new(reference);

    // Indefinite values with the analyzed pattern (negated diagonal).
    let bad = {
        let mut m = matrix(9999);
        let mid = m.n() / 2;
        let dpos = m.colptr()[mid];
        m.values_mut()[dpos] = -75.0;
        m
    };
    let bad = Arc::new(bad);

    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            let handle = Arc::clone(&handle);
            let reference = Arc::clone(&reference);
            let bad = Arc::clone(&bad);
            std::thread::spawn(move || {
                for i in 0..ITERS {
                    if (t, i) == BAD_AT {
                        // Error isolation: this lane fails, nothing else.
                        match handle.factor_with(&bad) {
                            Err(FactorError::NotPositiveDefinite { .. })
                            | Err(FactorError::Gpu(_)) => {}
                            r => panic!(
                                "{method:?}: indefinite set must fail with a typed error, got {r:?}"
                            ),
                        }
                        continue;
                    }
                    let seed = value_seed(t, i);
                    let fact = handle
                        .factor_with(&matrix(seed))
                        .unwrap_or_else(|e| panic!("{method:?} t{t} i{i}: {e}"));
                    assert_eq!(
                        fact.data(),
                        &reference[&seed],
                        "{method:?} lanes={lanes} t{t} i{i}: concurrent factor differs from serial"
                    );
                    // Keep the recycle path in the race too.
                    handle.recycle(fact);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("stress worker panicked");
    }

    let stats = handle.lane_stats();
    assert!(
        stats.created <= lanes && stats.peak_in_use <= lanes,
        "{method:?}: pool exceeded its cap: {stats:?}"
    );
    assert_eq!(stats.in_use, 0, "{method:?}: leaked lane: {stats:?}");
    assert_eq!(
        stats.checkouts,
        (THREADS * ITERS) as u64,
        "{method:?}: every factor_with checks out exactly one lane"
    );
    stats
}

#[test]
fn eight_threads_on_one_handle_match_serial_for_every_engine() {
    for method in Method::ALL {
        hammer(method, THREADS);
    }
}

#[test]
fn contended_lane_caps_serialize_without_losing_results() {
    for lanes in [1, 2] {
        for method in [Method::RlCpu, Method::RlbGpuPipe] {
            let stats = hammer(method, lanes);
            if lanes == 1 && stats.contended == 0 {
                // 8 threads over 1 lane virtually always collide, but an
                // oversubscribed test machine can serialize the workers
                // so no checkout ever blocks. The correctness assertions
                // above already ran; re-hammer for the contention signal
                // instead of failing on scheduler timing. On a single
                // hardware thread the tiny factorizations can genuinely
                // never overlap a checkout, so only demand the signal
                // when real parallelism exists.
                let retried = (0..3)
                    .map(|_| hammer(method, lanes))
                    .any(|s| s.contended > 0);
                let single_core = std::thread::available_parallelism().is_ok_and(|p| p.get() == 1);
                assert!(
                    retried || single_core,
                    "{method:?}: 8 threads over 1 lane never contended in 4 runs"
                );
            }
        }
    }
}

#[test]
fn batch_factor_with_pool_reentrant_engine_does_not_deadlock() {
    // The pipelined GPU engine's factor splits its kernels on
    // rlchol_dense::pool from inside a factorization. A batch runs its
    // members on threads of its own, never as pool indices, so no pool
    // thread can pick up a sibling member while a lane is held further
    // down its stack, and a 1-lane batch takes its value sets one after
    // another. This test keeps the full engine × batch × lane-cap-1
    // shape in CI (including the RLCHOL_THREADS=4 legs) and checks the
    // results still match the serial path bitwise.
    let opts = SolverOptions {
        method: Method::RlbGpuPipe,
        gpu: GpuOptions::with_threshold(0),
        factor_lanes: 1,
        ..SolverOptions::default()
    };
    let a0 = matrix(1);
    let handle = CholeskySolver::analyze(&a0, &opts);
    let sets: Vec<SymCsc> = (60..66).map(matrix).collect();
    let refs: Vec<&SymCsc> = sets.iter().collect();
    let results = handle.batch_factor(&refs);
    for (slot, result) in results.iter().enumerate() {
        let fresh = CholeskySolver::factor(&sets[slot], &opts).expect("SPD input");
        assert_eq!(
            result.as_ref().expect("SPD batch").data(),
            fresh.factor_data(),
            "batch slot {slot} differs from serial"
        );
    }
}

#[test]
fn a_midstream_fault_quarantines_one_lane_without_poisoning_the_rest() {
    // Concurrency × fault injection: a transient device fault fires on
    // exactly one of 24 concurrent factorizations (the fired flag is
    // shared across the handle's lanes). That one call fails typed and
    // its lane is quarantined; every other call — including those that
    // land on the freshly rebuilt lane — must stay bit-identical to the
    // serial path.
    use rlchol::FaultPlan;

    const FT_THREADS: usize = 4;
    const FT_ITERS: usize = 6;
    let opts = SolverOptions {
        method: Method::RlGpu,
        gpu: GpuOptions {
            faults: Some(FaultPlan::parse("kernel@2:t").unwrap()),
            ..GpuOptions::with_threshold(0)
        },
        factor_lanes: 2,
        ..SolverOptions::default()
    };
    let clean = SolverOptions {
        gpu: GpuOptions::with_threshold(0),
        ..opts.clone()
    };
    let a0 = matrix(value_seed(0, 0));
    let handle = Arc::new(CholeskySolver::analyze(&a0, &opts));

    let mut reference: HashMap<u64, FactorData> = HashMap::new();
    for t in 0..FT_THREADS {
        for i in 0..FT_ITERS {
            let seed = value_seed(t, i);
            let fresh = CholeskySolver::factor(&matrix(seed), &clean).expect("SPD input");
            reference.insert(seed, fresh.factor_data().clone());
        }
    }
    let reference = Arc::new(reference);

    let faults = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let workers: Vec<_> = (0..FT_THREADS)
        .map(|t| {
            let handle = Arc::clone(&handle);
            let reference = Arc::clone(&reference);
            let faults = Arc::clone(&faults);
            std::thread::spawn(move || {
                for i in 0..FT_ITERS {
                    let seed = value_seed(t, i);
                    match handle.factor_with(&matrix(seed)) {
                        Ok(fact) => assert_eq!(
                            fact.data(),
                            &reference[&seed],
                            "t{t} i{i}: factor differs from serial after a sibling fault"
                        ),
                        Err(FactorError::DeviceFault(d)) => {
                            assert!(d.transient, "the planned fault is transient");
                            faults.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Err(e) => panic!("t{t} i{i}: unexpected error {e}"),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("fault-injected stress worker panicked");
    }

    // The transient spec fires exactly once across the whole handle.
    assert_eq!(faults.load(std::sync::atomic::Ordering::Relaxed), 1);
    let stats = handle.lane_stats();
    assert_eq!(
        stats.quarantined, 1,
        "the struck lane was quarantined: {stats:?}"
    );
    assert_eq!(stats.in_use, 0, "no lane leaked: {stats:?}");
    assert_eq!(stats.checkouts, (FT_THREADS * FT_ITERS) as u64);
}

#[test]
fn batch_factor_preserves_error_context_across_lanes() {
    let a0 = matrix(1);
    let opts = opts_for(Method::RlbCpu, 4);
    let handle = CholeskySolver::analyze(&a0, &opts);

    let sets: Vec<SymCsc> = (10..18).map(matrix).collect();
    let mut bad = matrix(50);
    let dpos = bad.colptr()[7];
    bad.values_mut()[dpos] = -30.0;

    let mut refs: Vec<&SymCsc> = sets.iter().collect();
    refs.insert(4, &bad);
    let results = handle.batch_factor(&refs);
    assert_eq!(results.len(), refs.len());

    for (slot, result) in results.iter().enumerate() {
        if slot == 4 {
            // The typed error crosses batch_factor intact: same variant,
            // same Display payload as the direct call.
            let direct = handle.factor_with(&bad).expect_err("indefinite");
            let batched = result.as_ref().expect_err("indefinite slot");
            assert_eq!(batched, &direct, "batch must not rewrap the error");
            assert_eq!(format!("{batched}"), format!("{direct}"));
            assert!(
                matches!(batched, FactorError::NotPositiveDefinite { .. }),
                "got {batched:?}"
            );
        } else {
            let a = refs[slot];
            let fresh = CholeskySolver::factor(a, &opts).expect("SPD input");
            assert_eq!(
                results[slot].as_ref().expect("SPD slot").data(),
                fresh.factor_data(),
                "batch slot {slot} differs from serial"
            );
        }
    }
}
