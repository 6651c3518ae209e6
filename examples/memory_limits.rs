//! Device memory limits: reproduce the nlpkkt120 story of Tables I/II at
//! toy scale — RL needs the full update matrix on the device and fails
//! once capacity drops below it; streaming RLB (v2) keeps factoring.
//!
//! ```sh
//! cargo run --release --example memory_limits
//! ```

use rlchol::core::{engine_for, EngineWorkspace, FactorError};
use rlchol::matgen::laplace3d;
use rlchol::ordering::{order, OrderingMethod};
use rlchol::perfmodel::MachineModel;
use rlchol::symbolic::{analyze, SymbolicOptions};
use rlchol::{GpuOptions, Method};

fn main() {
    let a = laplace3d(12, 5);
    let fill = order(&a, OrderingMethod::NestedDissection);
    let a_fill = a.permute(&fill);
    let sym = analyze(&a_fill, &SymbolicOptions::default());
    let a_fact = a_fill.permute(&sym.perm);

    let max_panel = (0..sym.nsup()).map(|s| sym.sn_storage(s)).max().unwrap();
    let max_upd = sym.max_update_matrix_entries();
    println!(
        "n = {}: largest supernode panel {} doubles, largest update matrix {} doubles",
        a.n(),
        max_panel,
        max_upd
    );
    println!("RL needs panel + full update on the device; RLB v2 streams block chunks.\n");

    let kib = |x: usize| (x * 8) as f64 / 1024.0;
    println!(
        "{:>12} | {:>10} | {:>26}",
        "capacity", "RL", "RLB v2 (streaming)"
    );
    for frac in [1.2, 0.9, 0.6, 0.3] {
        let cap = ((max_panel as f64 + max_upd as f64 * frac) * 8.0) as u64;
        let opts = GpuOptions {
            machine: MachineModel::perlmutter(64)
                .scale_compute(24.0)
                .with_gpu_capacity(cap),
            ..GpuOptions::with_threshold(0)
        };
        // Every engine is reached through the registry; the run's
        // `info.gpu` carries the device counters.
        let run = |method: Method| {
            engine_for(method)
                .factor(&sym, &a_fact, &mut EngineWorkspace::new(0, opts.clone()))
                .map(|r| r.info.gpu.expect("GPU engines report device counters"))
        };
        let rl = match run(Method::RlGpu) {
            Ok(stats) => format!("{:.1} KiB peak", stats.peak_bytes as f64 / 1024.0),
            Err(FactorError::GpuOutOfMemory { .. }) => "OUT OF MEMORY".to_string(),
            Err(e) => panic!("unexpected: {e}"),
        };
        let rlb = match run(Method::RlbGpuV2) {
            Ok(stats) => format!(
                "ok, {} D2H ops, {:.1} KiB peak",
                stats.d2h_count,
                stats.peak_bytes as f64 / 1024.0
            ),
            Err(e) => format!("failed: {e}"),
        };
        println!(
            "{:>9.1} KiB | {:>10} | {:>26}",
            kib(max_panel) + kib(max_upd) * frac,
            rl,
            rlb
        );
    }
    println!(
        "\nAs capacity shrinks below panel+update, RL fails (Table I's nlpkkt120 row)\n\
         while RLB v2 splits blocks to fit and transfers more, smaller pieces\n\
         (Table II factors nlpkkt120 successfully)."
    );
}
