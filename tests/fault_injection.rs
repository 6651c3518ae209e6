//! Fault-injection sweep: the graceful-degradation acceptance suite.
//!
//! The contract under test — under **any** injected fault schedule, a
//! factorization either returns a factor bit-identical to the factor
//! the serving engine produces on a clean serial run, or a typed error;
//! never a panic, a hang, or a silently wrong result.
//!
//! Two sweeps plus targeted scenarios:
//!
//! * **Direct engine sweep** — every GPU engine, a fault at every
//!   reachable kernel / transfer / alloc ordinal (the clean run's device
//!   counters bound the ordinal space), no recovery configured: every
//!   strike must surface as a typed device error. Stream stalls (which
//!   never fail) must leave the factor bit-identical and only inflate
//!   the simulated clock.
//! * **Staged recovery sweep** — the same ordinal space through the
//!   staged handle with the recommended fallback chain and a retry
//!   budget: every point must recover (the chain ends on a CPU engine
//!   with no device failure modes), log its recovery, and produce a
//!   factor bit-identical to a clean one-shot run of whichever engine
//!   ended up serving it.
//!
//! Sweep size: debug builds use a small grid and sweep exhaustively;
//! release builds use the acceptance matrix (grid3d(12,12,12), nested
//! dissection) and cap each ordinal class unless `RLCHOL_FAULT_SWEEP=full`
//! (the CI fault leg) asks for the exhaustive run.

use std::time::Duration;

use rlchol::core::engine::RetireMode;
use rlchol::core::{engine_for, EngineWorkspace};
use rlchol::matgen::{grid3d, Stencil};
use rlchol::symbolic::analyze;
use rlchol::{
    CholeskySolver, Deadline, FactorData, FactorError, FallbackChain, FaultKind, FaultPlan,
    GpuOptions, Method, RecoveryAction, RetryPolicy, SolveError, SolveWorkspace, SolverOptions,
    SymCsc,
};

/// Debug builds sweep a small grid exhaustively; release builds sweep
/// the acceptance matrix.
fn sweep_matrix() -> SymCsc {
    if cfg!(debug_assertions) {
        grid3d(4, 4, 3, Stencil::Star7, 1, 7)
    } else {
        grid3d(12, 12, 12, Stencil::Star7, 1, 7)
    }
}

fn gpu_methods() -> Vec<Method> {
    Method::ALL.iter().copied().filter(|m| m.is_gpu()).collect()
}

/// Everything-on-GPU options so the ordinal space covers the whole
/// schedule, with `faults` installed and the retirement discipline
/// pinned when the sweep asks for one (`None` resolves from
/// `RLCHOL_RETIRE`, which the CI fault leg sets per matrix job).
fn gpu_opts(faults: Option<FaultPlan>, retire: Option<RetireMode>) -> GpuOptions {
    let mut gpu = GpuOptions::with_threshold(0);
    gpu.faults = faults;
    gpu.retire = retire;
    gpu
}

fn solver_opts(method: Method, faults: Option<FaultPlan>) -> SolverOptions {
    SolverOptions {
        method,
        gpu: gpu_opts(faults, None),
        // Explicit lane counts, so no `RLCHOL_*` variable reaches a
        // fallback factorization (its bits do not depend on them).
        threads: 1,
        factor_lanes: 1,
        ..SolverOptions::default()
    }
}

/// Ordinals to sweep for one fault class: exhaustive when small (or
/// when `RLCHOL_FAULT_SWEEP=full`), else evenly strided.
fn sweep_points(count: u64) -> Vec<u64> {
    let full =
        cfg!(debug_assertions) || std::env::var("RLCHOL_FAULT_SWEEP").is_ok_and(|v| v == "full");
    let cap = if full { u64::MAX } else { 200 };
    let stride = count.div_ceil(cap).max(1);
    (0..count).step_by(stride as usize).collect()
}

/// The engine that ends up serving a factorization, per its recovery
/// log: the last fallback target, or the primary when only retries (or
/// nothing) happened.
fn final_method(primary: Method, recovery: &[rlchol::RecoveryEvent]) -> Method {
    recovery
        .iter()
        .rev()
        .find_map(|e| match e.action {
            RecoveryAction::FellBack { to } => Some(to),
            _ => None,
        })
        .unwrap_or(primary)
}

#[test]
fn injected_faults_surface_as_typed_errors_for_every_gpu_engine() {
    let a = sweep_matrix();
    let sym = analyze(&a, &Default::default());
    let ap = a.permute(&sym.perm);

    for method in gpu_methods() {
        let engine = engine_for(method);
        // The pipelined engines sweep both retirement disciplines — the
        // out-of-order path reorders host effects and must uphold the
        // same contract at every ordinal. The other engines have no
        // retirement phase.
        let retires: &[Option<RetireMode>] =
            if matches!(method, Method::RlGpuPipe | Method::RlbGpuPipe) {
                &[Some(RetireMode::InOrder), Some(RetireMode::Ooo)]
            } else {
                &[None]
            };
        for &retire in retires {
            // Clean run: the reference factor and the ordinal space.
            let mut ws = EngineWorkspace::new(1, gpu_opts(None, retire));
            let clean = engine
                .factor(&sym, FactorData::load(&sym, &ap), &mut ws)
                .unwrap();
            let stats = clean.info.gpu.as_ref().unwrap();
            let (kernels, transfers, allocs) = (
                stats.kernel_launches,
                stats.h2d_count + stats.d2h_count,
                stats.alloc_count,
            );
            assert!(
                kernels > 0 && transfers > 0 && allocs > 0,
                "{method:?} {retire:?}: clean run must exercise the device"
            );
            let clean_sim = clean.info.sim_seconds.unwrap();

            // Failing faults: every strike is a typed device error, and
            // the factorization never panics.
            let classes: [(FaultKind, u64, fn(FaultPlan, u64) -> FaultPlan); 3] = [
                (FaultKind::KernelFault, kernels, |p, i| p.kernel_at(i)),
                (FaultKind::TransferFail, transfers, |p, i| p.transfer_at(i)),
                (FaultKind::DeviceOom, allocs, |p, i| p.oom_at(i)),
            ];
            for (kind, count, inject) in classes {
                for i in sweep_points(count) {
                    let plan = inject(FaultPlan::new(), i);
                    let mut ws = EngineWorkspace::new(1, gpu_opts(Some(plan), retire));
                    match engine.factor(&sym, FactorData::load(&sym, &ap), &mut ws) {
                        Err(err) => assert!(
                            err.is_device(),
                            "{method:?} {retire:?}: {kind:?}@{i} surfaced as a \
                             non-device error: {err:?}"
                        ),
                        Ok(run) => {
                            // The pipelined engines absorb device OOM by
                            // shedding stream pairs (and, once no pair
                            // fits, routing supernodes down the CPU
                            // path) — their pre-existing graceful path,
                            // not a missed strike. The factor must still
                            // be right: bitwise for the RL family (CPU
                            // and GPU paths round identically),
                            // numerically for RLB (the CPU/GPU split
                            // changes the update order).
                            assert!(
                                kind == FaultKind::DeviceOom
                                    && matches!(method, Method::RlGpuPipe | Method::RlbGpuPipe),
                                "{method:?} {retire:?}: {kind:?}@{i} must strike"
                            );
                            if method == Method::RlGpuPipe {
                                assert_eq!(
                                    run.factor, clean.factor,
                                    "{method:?} {retire:?}: absorbed oom@{i} changed the factor"
                                );
                            } else {
                                let d = run.factor.max_rel_diff(&clean.factor);
                                assert!(
                                    d < 1e-12,
                                    "{method:?} {retire:?}: absorbed oom@{i} factor off by {d:e}"
                                );
                            }
                        }
                    }
                }
            }

            // Stalls never fail: bit-identical factor, inflated sim
            // clock.
            for i in sweep_points(kernels + transfers) {
                let plan = FaultPlan::new().stall_at(i, 0.05);
                let mut ws = EngineWorkspace::new(1, gpu_opts(Some(plan), retire));
                let run = engine
                    .factor(&sym, FactorData::load(&sym, &ap), &mut ws)
                    .unwrap_or_else(|e| {
                        panic!("{method:?} {retire:?}: stall@{i} must not fail: {e}")
                    });
                assert_eq!(
                    run.factor, clean.factor,
                    "{method:?} {retire:?}: stall@{i} changed the factor"
                );
                assert!(
                    run.info.sim_seconds.unwrap() > clean_sim + 0.04,
                    "{method:?} {retire:?}: stall@{i} did not inflate the simulated clock"
                );
            }
        }
    }
}

#[test]
fn recommended_chain_recovers_every_fault_to_a_clean_engines_factor() {
    let a = sweep_matrix();
    // Clean one-shot references, built lazily per serving engine.
    let mut reference: std::collections::HashMap<Method, FactorData> =
        std::collections::HashMap::new();
    let mut reference_for = |m: Method, a: &SymCsc| -> FactorData {
        reference
            .entry(m)
            .or_insert_with(|| {
                CholeskySolver::factor(a, &solver_opts(m, None))
                    .expect("clean reference factorization")
                    .factor_data()
                    .clone()
            })
            .clone()
    };

    // The staged sweep re-analyzes per point (the fault plan is resolved
    // at handle construction), so stride harder than the direct sweep.
    let staged_cap = 24u64;

    for method in gpu_methods() {
        let probe = CholeskySolver::factor(&a, &solver_opts(method, None)).unwrap();
        let stats = probe.info().gpu.as_ref().unwrap();
        let classes: [(u64, fn(FaultPlan, u64) -> FaultPlan); 3] = [
            (stats.kernel_launches, |p, i| p.kernel_at(i)),
            (stats.h2d_count + stats.d2h_count, |p, i| p.transfer_at(i)),
            (stats.alloc_count, |p, i| p.oom_at(i)),
        ];
        for (count, inject) in classes {
            let stride = count.div_ceil(staged_cap).max(1);
            for i in (0..count).step_by(stride as usize) {
                let opts = SolverOptions {
                    fallback: FallbackChain::recommended(method),
                    retry: RetryPolicy::retries(1),
                    ..solver_opts(method, Some(inject(FaultPlan::new(), i)))
                };
                let handle = CholeskySolver::analyze(&a, &opts);
                let fact = handle.factor_with(&a).unwrap_or_else(|e| {
                    panic!("{method:?} fault @{i}: chain to CPU must recover, got {e}")
                });
                if fact.info().recovery.is_empty() {
                    // The pipelined engines absorb device OOM internally
                    // (shedding stream pairs, routing supernodes to the
                    // CPU path) — nothing for the chain to log. The
                    // factor must still match the primary's clean run:
                    // bitwise for RL, numerically for RLB (shedding
                    // changes the CPU/GPU split).
                    assert!(
                        matches!(method, Method::RlGpuPipe | Method::RlbGpuPipe),
                        "{method:?} fault @{i}: recovery must be logged"
                    );
                    let clean = reference_for(method, &a);
                    if method == Method::RlGpuPipe {
                        assert_eq!(
                            fact.data(),
                            &clean,
                            "{method:?} fault @{i}: absorbed oom changed the factor"
                        );
                    } else {
                        let d = fact.data().max_rel_diff(&clean);
                        assert!(
                            d < 1e-12,
                            "{method:?} fault @{i}: absorbed oom factor off by {d:e}"
                        );
                    }
                    continue;
                }
                let served_by = final_method(method, &fact.info().recovery);
                assert_ne!(
                    served_by, method,
                    "{method:?} fault @{i}: a persistent fault cannot be served by the primary"
                );
                assert_eq!(
                    fact.data(),
                    &reference_for(served_by, &a),
                    "{method:?} fault @{i}: recovered factor differs from a clean {served_by:?} run"
                );
            }
        }
    }
}

#[test]
fn transient_fault_retries_on_the_same_engine() {
    let a = sweep_matrix();
    let plan = FaultPlan::new().kernel_at(3).transient();
    let opts = SolverOptions {
        retry: RetryPolicy::retries(2),
        ..solver_opts(Method::RlGpu, Some(plan))
    };
    let handle = CholeskySolver::analyze(&a, &opts);
    let fact = handle.factor_with(&a).expect("transient fault must retry");
    let recovery = &fact.info().recovery;
    assert_eq!(recovery.len(), 1, "exactly one retry: {recovery:?}");
    assert!(
        matches!(recovery[0].action, RecoveryAction::Retried),
        "expected a retry event, got {:?}",
        recovery[0]
    );
    assert_eq!(recovery[0].method, Method::RlGpu);
    // The retry re-ran the *same* engine: bit-identical to a clean run.
    let clean = CholeskySolver::factor(&a, &solver_opts(Method::RlGpu, None)).unwrap();
    assert_eq!(fact.data(), clean.factor_data());
}

#[test]
fn faults_without_recovery_configured_surface_typed() {
    let a = sweep_matrix();
    // Persistent fault, no retry, no chain: the typed error comes back.
    let handle = CholeskySolver::analyze(
        &a,
        &solver_opts(Method::RlbGpuV2, Some(FaultPlan::new().kernel_at(0))),
    );
    let err = handle.factor_with(&a).expect_err("no recovery configured");
    assert!(matches!(err, FactorError::DeviceFault(_)), "got {err:?}");
    // The failed factorization quarantined its lane; the next call on
    // the same handle still works once the fault plan no longer strikes
    // (kernel@0 strikes every run here, so assert the quarantine count
    // and that errors stay typed across repeated calls instead).
    assert_eq!(handle.lane_stats().quarantined, 1);
    let again = handle.factor_with(&a).expect_err("fault is persistent");
    assert!(again.is_device());
    assert_eq!(handle.lane_stats().quarantined, 2);
    assert_eq!(handle.lane_stats().in_use, 0, "no lane leaked");
}

#[test]
fn transient_retry_budget_of_zero_falls_back_instead() {
    let a = sweep_matrix();
    let plan = FaultPlan::new().kernel_at(1).transient();
    let opts = SolverOptions {
        fallback: FallbackChain::new(vec![Method::RlCpu]),
        retry: RetryPolicy::default(), // no retries
        ..solver_opts(Method::RlGpu, Some(plan))
    };
    let handle = CholeskySolver::analyze(&a, &opts);
    let fact = handle.factor_with(&a).expect("chain must recover");
    assert!(matches!(
        fact.info().recovery.as_slice(),
        [rlchol::RecoveryEvent {
            action: RecoveryAction::FellBack { to: Method::RlCpu },
            ..
        }]
    ));
    let clean = CholeskySolver::factor(&a, &solver_opts(Method::RlCpu, None)).unwrap();
    assert_eq!(fact.data(), clean.factor_data());
}

#[test]
fn device_oom_falls_back_to_cpu() {
    let a = sweep_matrix();
    let opts = SolverOptions {
        fallback: FallbackChain::new(vec![Method::RlbCpu]),
        ..solver_opts(Method::RlbGpuPipe, Some(FaultPlan::new().oom_at(0)))
    };
    let handle = CholeskySolver::analyze(&a, &opts);
    let fact = handle.factor_with(&a).expect("CPU fallback owns no device");
    assert_eq!(
        final_method(Method::RlbGpuPipe, &fact.info().recovery),
        Method::RlbCpu
    );
    let clean = CholeskySolver::factor(&a, &solver_opts(Method::RlbCpu, None)).unwrap();
    assert_eq!(fact.data(), clean.factor_data());
}

#[test]
fn indefinite_input_is_a_data_error_on_every_device_method() {
    // One strongly negative pivot in the middle of a 9³ grid. A device
    // method simulates first, and the clock does not read values, so the
    // pivot fails in the host numerics: at the column its CPU family
    // reports. Without a chain that is what the method itself returns (a
    // device error would surface as one), so with the recommended chain
    // nothing retries or falls back, and no lane is quarantined.
    let mut a = grid3d(9, 9, 9, Stencil::Star7, 1, 13);
    let mid = a.n() / 2;
    let diag = (a.colptr()[mid]..a.colptr()[mid + 1])
        .find(|&k| a.rowind()[k] == mid)
        .expect("diagonal stored");
    a.values_mut()[diag] = -50.0;
    let fails = |method: Method, threshold: usize, fallback: FallbackChain| {
        let opts = SolverOptions {
            method,
            gpu: GpuOptions::with_threshold(threshold),
            fallback,
            ..SolverOptions::default()
        };
        let handle = CholeskySolver::analyze(&a, &opts);
        let err = handle.factor_with(&a).expect_err("indefinite input");
        assert_eq!(
            handle.lane_stats().quarantined,
            0,
            "{method:?} thr {threshold}"
        );
        err
    };
    let rl = fails(Method::RlCpu, usize::MAX, FallbackChain::none());
    let rlb = fails(Method::RlbCpu, usize::MAX, FallbackChain::none());
    assert!(
        matches!(rl, FactorError::NotPositiveDefinite { .. }),
        "{rl:?}"
    );
    for method in gpu_methods() {
        let want = match method {
            Method::RlGpu | Method::RlGpuPipe => &rl,
            _ => &rlb,
        };
        for threshold in [0, 300] {
            for chain in [FallbackChain::none(), FallbackChain::recommended(method)] {
                let got = fails(method, threshold, chain.clone());
                assert_eq!(&got, want, "{method:?} thr {threshold} chain {chain:?}");
            }
        }
    }
}

#[test]
fn stream_stalls_trip_the_simulated_deadline() {
    let a = sweep_matrix();
    // Sanity: the clean run fits comfortably inside the budget.
    let budget = 60.0;
    let clean_opts = SolverOptions {
        deadline: Deadline::sim(budget),
        ..solver_opts(Method::RlGpu, None)
    };
    let handle = CholeskySolver::analyze(&a, &clean_opts);
    handle.factor_with(&a).expect("clean run fits the budget");

    // A stalled stream inflates the simulated clock past it.
    let opts = SolverOptions {
        deadline: Deadline::sim(budget),
        ..solver_opts(
            Method::RlGpu,
            Some(FaultPlan::new().stall_at(0, 2.0 * budget)),
        )
    };
    let handle = CholeskySolver::analyze(&a, &opts);
    match handle.factor_with(&a) {
        Err(FactorError::DeadlineExceeded { sim_seconds, .. }) => {
            assert_eq!(sim_seconds, Some(budget));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn wall_deadlines_preempt_cpu_engines_too() {
    let a = sweep_matrix();
    let opts = SolverOptions {
        deadline: Deadline::wall(Duration::ZERO),
        ..solver_opts(Method::RlCpu, None)
    };
    let handle = CholeskySolver::analyze(&a, &opts);
    match handle.factor_with(&a) {
        Err(FactorError::DeadlineExceeded { wall, .. }) => {
            assert_eq!(wall, Some(Duration::ZERO));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
}

#[test]
fn cancellation_is_typed_and_reversible() {
    let a = sweep_matrix();
    let handle = CholeskySolver::analyze(&a, &solver_opts(Method::RlbCpu, None));
    let token = handle.cancel_token();
    token.cancel();
    // Direct calls and whole batches observe the token.
    assert!(matches!(
        handle.factor_with(&a),
        Err(FactorError::Cancelled)
    ));
    let batch: Vec<&SymCsc> = (0..4).map(|_| &a).collect();
    for r in handle.batch_factor(&batch) {
        assert!(matches!(r, Err(FactorError::Cancelled)), "got {r:?}");
    }
    // Reset: the handle serves again.
    token.reset();
    handle.factor_with(&a).expect("reset token must serve");
}

#[test]
fn non_finite_solves_surface_typed() {
    let a = sweep_matrix();
    let handle = CholeskySolver::analyze(&a, &solver_opts(Method::RlCpu, None));
    let fact = handle.factor_with(&a).unwrap();
    let n = a.n();
    let b = vec![f64::NAN; n];
    let mut x = vec![0.0; n];
    let mut ws = SolveWorkspace::warm(n, 1);
    match handle.solve_refined(&fact, &a, &b, &mut x, 2, &mut ws) {
        Err(SolveError::NonFinite { iteration }) => {
            assert_eq!(iteration, 0, "NaN must be caught on the first residual");
        }
        other => panic!("expected NonFinite, got {other:?}"),
    }
}

#[test]
fn seeded_plans_are_deterministic_end_to_end() {
    // The same seeded schedule against the same workload produces the
    // same outcome — the property the sweep (and CI) relies on.
    let a = sweep_matrix();
    let outcome = |seed: u64| {
        let opts = SolverOptions {
            fallback: FallbackChain::recommended(Method::RlbGpuPipe),
            retry: RetryPolicy::retries(1),
            ..solver_opts(Method::RlbGpuPipe, Some(FaultPlan::seeded(seed, 6, 64)))
        };
        let handle = CholeskySolver::analyze(&a, &opts);
        match handle.factor_with(&a) {
            Ok(f) => (
                true,
                f.info()
                    .recovery
                    .iter()
                    .map(|e| format!("{e}"))
                    .collect::<Vec<_>>(),
                Some(f.data().clone()),
            ),
            Err(e) => (false, vec![format!("{e}")], None),
        }
    };
    for seed in [1u64, 42, 1234] {
        let first = outcome(seed);
        let second = outcome(seed);
        assert_eq!(first.0, second.0, "seed {seed}: outcome diverged");
        assert_eq!(first.1, second.1, "seed {seed}: recovery log diverged");
        assert_eq!(first.2, second.2, "seed {seed}: factor diverged");
    }
}
