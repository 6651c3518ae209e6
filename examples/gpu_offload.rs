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

use rlchol::core::engine::GpuOptions;
use rlchol::core::gpu_rl::factor_rl_gpu;
use rlchol::core::gpu_rlb::{factor_rlb_gpu, RlbGpuVersion};
use rlchol::core::rl::factor_rl_cpu;
use rlchol::core::rlb::factor_rlb_cpu;
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
    let rl_cpu = factor_rl_cpu(&sym, &a_fact).unwrap();
    let rlb_cpu = factor_rlb_cpu(&sym, &a_fact).unwrap();
    let replay = |run: &rlchol::core::engine::CpuRun| {
        rlchol::perfmodel::PAPER_THREAD_SWEEP
            .iter()
            .map(|&t| {
                let m = rlchol::perfmodel::perlmutter_cpu(t).scale_compute(scale);
                (rlchol::perfmodel::replay_cpu(&run.trace, &m), t)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap()
    };
    let (t_rl, th_rl) = replay(&rl_cpu);
    let (t_rlb, th_rlb) = replay(&rlb_cpu);
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
        rl_cpu.trace.blas_calls(),
        rlb_cpu.trace.blas_calls()
    );

    // GPU engines under a mid-size threshold.
    let threshold = 20_000;
    let opts = GpuOptions {
        machine: MachineModel::perlmutter(64).scale_compute(scale),
        ..GpuOptions::with_threshold(threshold)
    };
    println!("\nGPU-accelerated engines (threshold = {threshold}, overlap on):");
    let runs = [
        ("RL_G  ", factor_rl_gpu(&sym, &a_fact, &opts).unwrap()),
        (
            "RLB_G1",
            factor_rlb_gpu(&sym, &a_fact, &opts, RlbGpuVersion::V1).unwrap(),
        ),
        (
            "RLB_G2",
            factor_rlb_gpu(&sym, &a_fact, &opts, RlbGpuVersion::V2).unwrap(),
        ),
    ];
    for (name, run) in &runs {
        println!(
            "  {name}: {:.4} s  (speedup {:.2}x) | {} supernodes on GPU | \
             kernels {:.4}s transfers {:.4}s host {:.4}s | peak dev mem {:.1} MiB | {} D2H ops",
            run.sim_seconds,
            best / run.sim_seconds,
            run.sn_on_gpu,
            run.stats.kernel_seconds,
            run.stats.transfer_seconds,
            run.stats.host_seconds,
            run.stats.peak_bytes as f64 / (1 << 20) as f64,
            run.stats.d2h_count,
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
