//! Integration tests of the pipelined multi-stream GPU engines: factors
//! must be bit-identical to the single-stream engines at every stream
//! count and under both retirement disciplines, device memory pressure
//! must shed stream pairs before failing, and numeric failures must
//! propagate cleanly out of the pipeline.

use rlchol::core::engine::{GpuOptions, Method, RetireMode};
use rlchol::core::{engine_for, EngineRun, EngineWorkspace, FactorData, FactorError};
use rlchol::matgen::{grid2d, grid3d, Stencil};
use rlchol::ordering::{order, OrderingMethod};
use rlchol::perfmodel::MachineModel;
use rlchol::sparse::{SymCsc, TripletMatrix};
use rlchol::symbolic::{analyze, SymbolicFactor, SymbolicOptions};

const STREAM_SWEEP: [usize; 4] = [1, 2, 4, 8];
const RETIRES: [RetireMode; 2] = [RetireMode::InOrder, RetireMode::Ooo];

/// Order (nested dissection, for a bushy tree) and analyze.
fn prepared(a: &SymCsc) -> (SymbolicFactor, SymCsc) {
    let fill = order(a, OrderingMethod::NestedDissection);
    let af = a.permute(&fill);
    let sym = analyze(&af, &SymbolicOptions::default());
    let ap = af.permute(&sym.perm);
    (sym, ap)
}

/// One GPU engine through the registry on a fresh workspace.
fn run(
    method: Method,
    sym: &SymbolicFactor,
    ap: &SymCsc,
    opts: &GpuOptions,
) -> Result<EngineRun, FactorError> {
    engine_for(method).factor(
        sym,
        FactorData::load(sym, ap),
        &mut EngineWorkspace::new(0, opts.clone()),
    )
}

/// Pipelined RL/RLB against their single-stream engines, bitwise, over
/// the stream sweep, a CPU/GPU-mixing threshold and both retirement
/// disciplines (in-order retirement makes the factor trivially
/// independent of where each supernode's device work ran; out-of-order
/// retirement preserves the same bits through per-target sequencing).
fn check_bit_identical(a: &SymCsc, label: &str) {
    let (sym, ap) = prepared(a);
    for threshold in [0usize, 300] {
        let opts = GpuOptions::with_threshold(threshold);
        let rl = run(Method::RlGpu, &sym, &ap, &opts).unwrap();
        let rlb = run(Method::RlbGpuV1, &sym, &ap, &opts).unwrap();
        for streams in STREAM_SWEEP {
            for retire in RETIRES {
                let o = opts.clone().with_streams(streams).with_retire(retire);
                let rl_pipe = run(Method::RlGpuPipe, &sym, &ap, &o).unwrap();
                assert_eq!(
                    rl_pipe.info.streams_used, streams,
                    "{label} thr {threshold}"
                );
                assert_eq!(rl_pipe.info.retire, Some(retire));
                assert_eq!(
                    rl.factor.values(),
                    rl_pipe.factor.values(),
                    "{label}: RL thr {threshold} streams {streams} {retire:?} \
                     not bit-identical"
                );
                let rlb_pipe = run(Method::RlbGpuPipe, &sym, &ap, &o).unwrap();
                assert_eq!(
                    rlb.factor.values(),
                    rlb_pipe.factor.values(),
                    "{label}: RLB thr {threshold} streams {streams} {retire:?} \
                     not bit-identical"
                );
            }
        }
    }
}

#[test]
fn pipelined_matches_single_stream_bitwise_on_2d_grid() {
    check_bit_identical(&grid2d(16, 14, Stencil::Star5, 1, 61), "grid2d(16,14)");
}

#[test]
fn pipelined_matches_single_stream_bitwise_on_3d_grid() {
    check_bit_identical(&grid3d(7, 6, 6, Stencil::Star7, 1, 62), "grid3d(7,6,6)");
}

#[test]
fn multi_stream_pipelining_speeds_up_the_simulated_clock() {
    // The acceptance shape: on a 3-D problem with a bushy elimination
    // tree, going 1 -> 2 stream pairs must strictly shrink simulated
    // elapsed time, and more pairs never hurt.
    let a = grid3d(10, 10, 10, Stencil::Star7, 1, 63);
    let (sym, ap) = prepared(&a);
    let opts = GpuOptions::with_threshold(0);
    let mut prev = f64::INFINITY;
    for (i, streams) in STREAM_SWEEP.into_iter().enumerate() {
        let t = run(
            Method::RlGpuPipe,
            &sym,
            &ap,
            &opts.clone().with_streams(streams),
        )
        .unwrap()
        .info
        .sim_seconds
        .unwrap();
        if i == 1 {
            assert!(t < prev, "2 streams must strictly beat 1: {t} vs {prev}");
        } else {
            assert!(
                t <= prev + 1e-12,
                "streams {streams} regressed: {t} vs {prev}"
            );
        }
        prev = t;
    }
}

#[test]
fn out_of_order_retirement_beats_in_order_at_wide_stream_counts() {
    // In-order retirement serializes the host timeline on the oldest
    // in-flight supernode; with 8 stream pairs on a bushy ND tree that
    // is the dominant stall, and out-of-order retirement must convert
    // it into simulated speedup — while producing the identical factor.
    let a = grid3d(10, 10, 10, Stencil::Star7, 1, 63);
    let (sym, ap) = prepared(&a);
    let opts = GpuOptions::with_threshold(0).with_streams(8);
    let inorder = run(
        Method::RlGpuPipe,
        &sym,
        &ap,
        &opts.clone().with_retire(RetireMode::InOrder),
    )
    .unwrap();
    let ooo = run(
        Method::RlGpuPipe,
        &sym,
        &ap,
        &opts.with_retire(RetireMode::Ooo),
    )
    .unwrap();
    assert_eq!(
        inorder.factor.values(),
        ooo.factor.values(),
        "modes must agree bitwise"
    );
    let (t_ooo, t_inorder) = (
        ooo.info.sim_seconds.unwrap(),
        inorder.info.sim_seconds.unwrap(),
    );
    assert!(
        t_ooo < t_inorder,
        "ooo {t_ooo} must beat inorder {t_inorder}"
    );
    assert!(ooo.info.lookahead >= 1, "ooo must report its final window");
    assert_eq!(inorder.info.lookahead, 0, "inorder reports no lookahead");
}

#[test]
fn staged_refactor_keeps_device_residency_and_skips_metadata_uploads() {
    use rlchol::{CholeskySolver, Method, SolverOptions};
    let a = grid3d(6, 6, 5, Stencil::Star7, 1, 66);
    let opts = SolverOptions {
        method: Method::RlGpuPipe,
        gpu: GpuOptions::with_threshold(0)
            .with_streams(2)
            .with_retire(RetireMode::Ooo),
        factor_lanes: 1,
        ..SolverOptions::default()
    };
    let handle = CholeskySolver::analyze(&a, &opts);
    let cold = handle.factor_with(&a).unwrap();
    assert_eq!(
        cold.info().transfers_saved,
        0,
        "first factorization uploads its pattern metadata"
    );
    let warm = handle.factor_with(&a).unwrap();
    assert!(
        warm.info().transfers_saved > 0,
        "same-pattern refactor must reuse resident metadata"
    );
    // Residency is a pure transfer optimization: the factors agree
    // bitwise and the one-shot (non-resident) engine agrees too.
    let (sym, ap) = prepared(&a);
    let one_shot = run(
        Method::RlGpuPipe,
        &sym,
        &ap,
        &GpuOptions::with_threshold(0)
            .with_streams(2)
            .with_retire(RetireMode::Ooo),
    )
    .unwrap();
    assert_eq!(cold.data().values(), warm.data().values());
    assert_eq!(cold.data().values(), one_shot.factor.values());
}

#[test]
fn oom_sheds_stream_pairs_before_failing() {
    let a = grid3d(6, 6, 5, Stencil::Star7, 1, 64);
    let (sym, ap) = prepared(&a);
    let max_panel = (0..sym.nsup()).map(|s| sym.sn_size(s)).max().unwrap();
    let pair = ((max_panel + sym.max_update_matrix_entries()) * 8) as u64;
    // Room for two pairs and change, but not the four requested: the
    // engine must fall back to two streams and still produce the exact
    // single-stream factor.
    let mut opts = GpuOptions::with_threshold(0).with_streams(4);
    opts.machine = MachineModel::perlmutter(16).with_gpu_capacity(pair * 2 + pair / 2);
    let shed = run(Method::RlGpuPipe, &sym, &ap, &opts).unwrap();
    assert_eq!(
        shed.info.streams_used, 2,
        "expected fallback to 2 stream pairs"
    );
    assert!(shed.info.gpu.as_ref().unwrap().peak_bytes <= pair * 2 + pair / 2);
    let base = run(Method::RlGpu, &sym, &ap, &GpuOptions::with_threshold(0)).unwrap();
    assert_eq!(base.factor.values(), shed.factor.values());
}

#[test]
fn oom_propagates_when_no_pair_fits() {
    let a = grid3d(6, 6, 5, Stencil::Star7, 1, 65);
    let (sym, ap) = prepared(&a);
    let max_panel = (0..sym.nsup()).map(|s| sym.sn_size(s)).max().unwrap();
    let pair = ((max_panel + sym.max_update_matrix_entries()) * 8) as u64;
    for streams in STREAM_SWEEP {
        let mut opts = GpuOptions::with_threshold(0).with_streams(streams);
        opts.machine = MachineModel::perlmutter(16).with_gpu_capacity(pair / 2);
        assert!(
            matches!(
                run(Method::RlGpuPipe, &sym, &ap, &opts),
                Err(FactorError::GpuOutOfMemory { .. })
            ),
            "streams {streams}"
        );
    }
}

#[test]
fn indefinite_matrix_errors_cleanly_under_pipelining() {
    // A strongly negative diagonal entry partway through the chain; the
    // pipelined methods must surface NotPositiveDefinite from the host
    // numerics at any stream count — no wrong factor, no hang.
    let n = 150;
    let mut t = TripletMatrix::new(n, n);
    for j in 0..n {
        t.push(j, j, if j == 77 { -50.0 } else { 4.0 });
        if j + 1 < n {
            t.push(j + 1, j, -1.0);
        }
    }
    let a = SymCsc::from_lower_triplets(&t).unwrap();
    let (sym, ap) = prepared(&a);
    for streams in STREAM_SWEEP {
        for threshold in [0usize, 200] {
            for retire in RETIRES {
                let opts = GpuOptions::with_threshold(threshold)
                    .with_streams(streams)
                    .with_retire(retire);
                assert!(
                    matches!(
                        run(Method::RlGpuPipe, &sym, &ap, &opts),
                        Err(FactorError::NotPositiveDefinite { .. })
                    ),
                    "RL streams {streams} thr {threshold} {retire:?}"
                );
                assert!(
                    matches!(
                        run(Method::RlbGpuPipe, &sym, &ap, &opts),
                        Err(FactorError::NotPositiveDefinite { .. })
                    ),
                    "RLB streams {streams} thr {threshold} {retire:?}"
                );
            }
        }
    }
    // The engines stay usable afterwards (fresh device per run, shared
    // host pool survives).
    let good = grid2d(8, 8, Stencil::Star5, 1, 9);
    let (gs, gap) = prepared(&good);
    assert!(run(
        Method::RlbGpuPipe,
        &gs,
        &gap,
        &GpuOptions::with_threshold(0).with_streams(2)
    )
    .is_ok());
}
