//! Integration tests of the simulated GPU runtime semantics as the
//! engines use them: overlap accounting, memory pressure, hybrid
//! dispatch, and the timeline invariants the tables rely on.

use rlchol::core::engine::{GpuOptions, Method};
use rlchol::core::{engine_for, EngineWorkspace};
use rlchol::gpu::{Gpu, GpuStats};
use rlchol::matgen::{grid3d, Stencil};
use rlchol::ordering::{order, OrderingMethod};
use rlchol::perfmodel::{perlmutter_gpu, MachineModel, TraceOp};
use rlchol::symbolic::{analyze, SymbolicFactor, SymbolicOptions};

fn setup() -> (SymbolicFactor, rlchol::SymCsc) {
    let a = grid3d(7, 7, 6, Stencil::Star7, 1, 55);
    let fill = order(&a, OrderingMethod::NestedDissection);
    let af = a.permute(&fill);
    let sym = analyze(&af, &SymbolicOptions::default());
    let afact = af.permute(&sym.perm);
    (sym, afact)
}

fn opts(threshold: usize) -> GpuOptions {
    GpuOptions {
        machine: MachineModel::perlmutter(64).scale_compute(24.0),
        ..GpuOptions::with_threshold(threshold)
    }
}

/// What these tests read off one GPU engine run.
struct Run {
    sim_seconds: f64,
    stats: GpuStats,
}

fn run_gpu(method: Method, sym: &SymbolicFactor, a: &rlchol::SymCsc, opts: &GpuOptions) -> Run {
    let info = engine_for(method)
        .factor(sym, a, &mut EngineWorkspace::new(0, opts.clone()))
        .unwrap()
        .info;
    Run {
        sim_seconds: info.sim_seconds.expect("GPU engines report simulated time"),
        stats: info.gpu.expect("GPU engines report device counters"),
    }
}

#[test]
fn sim_time_dominates_component_sums_under_overlap() {
    let (sym, afact) = setup();
    let run = run_gpu(Method::RlGpu, &sym, &afact, &opts(0));
    // With overlap, total <= kernels + transfers + host (strictly less
    // when any copy-back overlaps host work), and total >= each part.
    let parts = run.stats.kernel_seconds + run.stats.transfer_seconds + run.stats.host_seconds;
    assert!(run.sim_seconds <= parts + 1e-12);
    assert!(run.sim_seconds >= run.stats.kernel_seconds);
    assert!(run.sim_seconds >= run.stats.host_seconds);
}

#[test]
fn blocking_mode_serializes_to_the_component_sum() {
    let (sym, afact) = setup();
    let mut o = opts(0);
    o.overlap = false;
    let run = run_gpu(Method::RlGpu, &sym, &afact, &o);
    let parts = run.stats.kernel_seconds + run.stats.transfer_seconds + run.stats.host_seconds;
    assert!(
        (run.sim_seconds - parts).abs() < parts * 1e-9,
        "blocking run should equal the sum of its parts: {} vs {parts}",
        run.sim_seconds
    );
}

#[test]
fn offloading_moves_bytes_proportionally() {
    let (sym, afact) = setup();
    let all = run_gpu(Method::RlGpu, &sym, &afact, &opts(0));
    let none = run_gpu(Method::RlGpu, &sym, &afact, &opts(usize::MAX));
    assert!(all.stats.total_transfer_bytes() > 0);
    assert_eq!(none.stats.total_transfer_bytes(), 0);
    assert_eq!(none.stats.kernel_launches, 0);
    // Hybrid sits between.
    let some = run_gpu(Method::RlGpu, &sym, &afact, &opts(2_000));
    assert!(some.stats.total_transfer_bytes() < all.stats.total_transfer_bytes());
    assert!(some.stats.total_transfer_bytes() > 0);
}

#[test]
fn rl_transfers_more_update_bytes_than_rlb_v2_transfers_in_pieces() {
    let (sym, afact) = setup();
    let rl = run_gpu(Method::RlGpu, &sym, &afact, &opts(0));
    let v2 = run_gpu(Method::RlbGpuV2, &sym, &afact, &opts(0));
    // RL moves whole r x r update matrices; v2 moves only the block
    // strips (lower-triangle coverage) but in many more operations.
    assert!(v2.stats.d2h_count > rl.stats.d2h_count);
    assert!(v2.stats.d2h_bytes <= rl.stats.d2h_bytes);
}

#[test]
fn device_memory_returns_to_zero_after_free() {
    let gpu = Gpu::new(perlmutter_gpu());
    let a = gpu.alloc(1000).unwrap();
    let b = gpu.alloc(500).unwrap();
    assert_eq!(gpu.stats().used_bytes, 1500 * 8);
    gpu.free(a).unwrap();
    gpu.free(b).unwrap();
    assert_eq!(gpu.stats().used_bytes, 0);
    assert_eq!(gpu.stats().peak_bytes, 1500 * 8);
}

#[test]
fn stream_clocks_are_monotone_under_mixed_work() {
    let gpu = Gpu::new(perlmutter_gpu());
    let s = gpu.default_stream();
    let buf = gpu.alloc(64).unwrap();
    let src = vec![1.0; 64];
    let mut prev = 0.0;
    for _ in 0..5 {
        gpu.memcpy_h2d(s, buf, 0, &src).unwrap();
        gpu.host_compute(1e-6);
        let now = gpu.elapsed();
        assert!(now >= prev);
        prev = now;
    }
}

#[test]
fn kernel_cost_model_reflects_shapes() {
    let model = perlmutter_gpu();
    let floor = model.launch_overhead + model.small_kernel_flops / model.peak;
    let small = model.kernel_time(&TraceOp::Syrk { n: 16, k: 16 });
    let large = model.kernel_time(&TraceOp::Syrk { n: 4096, k: 4096 });
    // Every kernel pays at least the small-kernel floor (launch + the
    // MAGMA-like tiny-call inefficiency)...
    assert!(small >= floor && small < 1.05 * floor);
    // ...while the flop term dominates once kernels are large.
    assert!(
        large - floor > 10.0 * floor,
        "large kernels must dominate the floor"
    );
}

#[test]
fn capacity_is_a_hard_invariant_across_engines() {
    let (sym, afact) = setup();
    // Capacity just above what v2 needs: run must stay under it.
    let probe = run_gpu(Method::RlbGpuV2, &sym, &afact, &opts(0));
    let cap = probe.stats.peak_bytes + 1024;
    let mut o = opts(0);
    o.machine = MachineModel::perlmutter(64)
        .scale_compute(24.0)
        .with_gpu_capacity(cap);
    let run = run_gpu(Method::RlbGpuV2, &sym, &afact, &o);
    assert!(run.stats.peak_bytes <= cap);
}
