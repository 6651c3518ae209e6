//! GPU offload walkthrough: factor one matrix under every engine of the
//! paper and print the simulated timeline breakdown.
//!
//! ```sh
//! cargo run --release --example gpu_offload
//! ```
//!
//! Shows §III in action: RL's one coarse DSYRK vs RLB's many per-block
//! calls, the transfer traffic each incurs, the hybrid threshold keeping
//! small supernodes on the CPU, and the device memory footprints.

use rlchol::core::engine::{GpuOptions, Method};
use rlchol::core::{engine_for, EngineWorkspace, FactorData};
use rlchol::matgen::{grid3d, Stencil};
use rlchol::ordering::{order, OrderingMethod};
use rlchol::perfmodel::MachineModel;
use rlchol::symbolic::{analyze, SymbolicOptions};

fn main() {
    // A 3-dof 14^3 elasticity-like problem (n = 8232).
    let a = grid3d(14, 14, 14, Stencil::Star7, 3, 99);
    let fill = order(&a, OrderingMethod::NestedDissection);
    let a_fill = a.permute(&fill);
    let sym = analyze(&a_fill, &SymbolicOptions::default());
    let a_fact = a_fill.permute(&sym.perm);
    println!(
        "matrix n = {}, {} supernodes, nnz(L) = {}, {:.2} Gflop",
        a.n(),
        sym.nsup(),
        sym.nnz,
        sym.flops / 1e9
    );

    // CPU baselines: trace replay over the paper's thread sweep under
    // the scaled machine model (see `SuiteConfig::machine_scale`).
    let scale = 24.0;
    // Every engine is reached through the registry: `engine_for(method)`
    // factors into an `EngineRun` (the factor plus a uniform report).
    let run = |method: Method, ws: &mut EngineWorkspace| {
        engine_for(method)
            .factor(&sym, FactorData::load(&sym, &a_fact), ws)
            .unwrap()
    };
    let rl_cpu = run(Method::RlCpu, &mut EngineWorkspace::default());
    let rlb_cpu = run(Method::RlbCpu, &mut EngineWorkspace::default());
    // CPU engines record an operation trace the model can replay.
    let rl_trace = rl_cpu.info.trace.as_ref().unwrap();
    let rlb_trace = rlb_cpu.info.trace.as_ref().unwrap();
    let replay = |trace: &rlchol::perfmodel::Trace| {
        rlchol::perfmodel::PAPER_THREAD_SWEEP
            .iter()
            .map(|&t| {
                let m = rlchol::perfmodel::perlmutter_cpu(t).scale_compute(scale);
                (rlchol::perfmodel::replay_cpu(trace, &m), t)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap()
    };
    let (t_rl, th_rl) = replay(rl_trace);
    let (t_rlb, th_rlb) = replay(rlb_trace);
    let (best, label, threads) = if t_rl <= t_rlb {
        (t_rl, "RL_C", th_rl)
    } else {
        (t_rlb, "RLB_C", th_rlb)
    };
    println!(
        "\nbest CPU: {} at {} MKL threads -> {:.4} s (simulated)",
        label, threads, best
    );
    println!(
        "  RL  issues {} BLAS calls; RLB issues {} (the per-block decomposition)",
        rl_trace.blas_calls(),
        rlb_trace.blas_calls()
    );

    // GPU engines under a mid-size threshold.
    let threshold = 20_000;
    let opts = GpuOptions {
        machine: MachineModel::perlmutter(64).scale_compute(scale),
        ..GpuOptions::with_threshold(threshold)
    };
    println!("\nGPU-accelerated engines (threshold = {threshold}, overlap on):");
    let runs = [
        ("RL_G  ", Method::RlGpu),
        ("RLB_G1", Method::RlbGpuV1),
        ("RLB_G2", Method::RlbGpuV2),
    ]
    .map(|(name, method)| {
        (
            name,
            run(method, &mut EngineWorkspace::new(0, opts.clone())),
        )
    });
    for (name, run) in &runs {
        let sim_seconds = run
            .info
            .sim_seconds
            .expect("GPU engines report simulated time");
        let stats = run
            .info
            .gpu
            .as_ref()
            .expect("GPU engines report device counters");
        println!(
            "  {name}: {:.4} s  (speedup {:.2}x) | {} supernodes on GPU | \
             kernels {:.4}s transfers {:.4}s host {:.4}s | peak dev mem {:.1} MiB | {} D2H ops",
            sim_seconds,
            best / sim_seconds,
            run.info.sn_on_gpu,
            stats.kernel_seconds,
            stats.transfer_seconds,
            stats.host_seconds,
            stats.peak_bytes as f64 / (1 << 20) as f64,
            stats.d2h_count,
        );
    }
    // All engines agree numerically.
    let worst = runs
        .iter()
        .map(|(_, r)| rl_cpu.factor.max_rel_diff(&r.factor))
        .fold(0.0f64, f64::max);
    println!("\nmax factor disagreement across engines: {worst:.2e}");
    assert!(worst < 1e-11);
}
