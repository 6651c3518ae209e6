//! # rlchol-bench — experiment harnesses
//!
//! Shared machinery for the binaries that regenerate every table and
//! figure of the paper:
//!
//! * `table1` — Table I (GPU-accelerated RL);
//! * `table2` — Table II (GPU-accelerated RLB v2);
//! * `fig3` — Figure 3 (Dolan–Moré performance profile);
//! * `gpu_only` — §IV-B's GPU-only runs;
//! * `rlb_variants` — §IV-B's RLB v1 vs v2 comparison;
//! * `threshold_sweep` — the 600 k/750 k threshold ablation;
//! * `merge_pr_ablation` — §IV-A's supernode merging / partition
//!   refinement setup study.
//!
//! [`prepare`] runs ordering + symbolic analysis once per matrix;
//! [`PreparedMatrix`] then feeds any number of numeric engines so the
//! harnesses stay cheap.

use rlchol_core::engine::{CpuRun, GpuOptions, Method};
use rlchol_core::gpu_rl::factor_rl_gpu;
use rlchol_core::gpu_rlb::{factor_rlb_gpu, RlbGpuVersion};
use rlchol_core::rl::factor_rl_cpu;
use rlchol_core::rlb::factor_rlb_cpu;
use rlchol_core::{CholeskySolver, FactorError};
use rlchol_matgen::suite::{SuiteConfig, SuiteEntry};
use rlchol_ordering::{order, OrderingMethod};
use rlchol_perfmodel::MachineModel;
use rlchol_sparse::SymCsc;
use rlchol_symbolic::{analyze, SymbolicFactor, SymbolicOptions};

pub use rlchol_core::engine::GpuRun;

/// A matrix with its ordering and symbolic analysis done.
pub struct PreparedMatrix {
    pub name: &'static str,
    pub entry: SuiteEntry,
    pub sym: SymbolicFactor,
    /// The matrix in factor ordering (input to every numeric engine).
    pub a_fact: SymCsc,
}

/// Orders (nested dissection, as in the paper) and analyzes one suite
/// entry with the paper's symbolic setup (merging at 25 %, PR on).
pub fn prepare(entry: &SuiteEntry) -> PreparedMatrix {
    prepare_with(entry, &SymbolicOptions::default())
}

/// [`prepare`] with explicit symbolic options (used by the ablations).
pub fn prepare_with(entry: &SuiteEntry, opts: &SymbolicOptions) -> PreparedMatrix {
    let a = entry.generate();
    let fill = order(&a, OrderingMethod::NestedDissection);
    let a_fill = a.permute(&fill);
    let sym = analyze(&a_fill, opts);
    let a_fact = a_fill.permute(&sym.perm);
    PreparedMatrix {
        name: entry.name,
        entry: entry.clone(),
        sym,
        a_fact,
    }
}

/// CPU baseline of the paper: run both CPU engines once, replay their
/// traces over the thread sweep under the suite's scaled machine model,
/// and return `(best_seconds, rl, rlb)`.
pub fn cpu_baseline(p: &PreparedMatrix) -> (f64, CpuRun, CpuRun) {
    cpu_baseline_with(p, &SuiteConfig::default())
}

/// [`cpu_baseline`] with an explicit suite configuration.
pub fn cpu_baseline_with(p: &PreparedMatrix, cfg: &SuiteConfig) -> (f64, CpuRun, CpuRun) {
    let rl = factor_rl_cpu(&p.sym, &p.a_fact).expect("suite matrices are SPD");
    let rlb = factor_rlb_cpu(&p.sym, &p.a_fact).expect("suite matrices are SPD");
    let best = best_cpu_scaled(&rl, cfg).min(best_cpu_scaled(&rlb, cfg));
    (best, rl, rlb)
}

/// Best scaled-model CPU time of one run over the paper's thread sweep.
pub fn best_cpu_scaled(run: &CpuRun, cfg: &SuiteConfig) -> f64 {
    rlchol_perfmodel::PAPER_THREAD_SWEEP
        .iter()
        .map(|&t| {
            let model = rlchol_perfmodel::perlmutter_cpu(t).scale_compute(cfg.machine_scale);
            rlchol_perfmodel::replay_cpu(&run.trace, &model)
        })
        .fold(f64::INFINITY, f64::min)
}

/// GPU options for a suite run: the scaled device capacity from the suite
/// config and the requested threshold.
pub fn gpu_options(cfg: &SuiteConfig, threshold: usize) -> GpuOptions {
    GpuOptions {
        machine: MachineModel::perlmutter(cfg.gpu_host_threads)
            .scale_compute(cfg.machine_scale)
            .with_gpu_capacity(cfg.gpu_capacity_bytes),
        ..GpuOptions::with_threshold(threshold)
    }
}

/// Runs one GPU engine on a prepared matrix.
pub fn run_gpu(
    p: &PreparedMatrix,
    method: Method,
    opts: &GpuOptions,
) -> Result<GpuRun, FactorError> {
    match method {
        Method::RlGpu => factor_rl_gpu(&p.sym, &p.a_fact, opts),
        Method::RlbGpuV1 => factor_rlb_gpu(&p.sym, &p.a_fact, opts, RlbGpuVersion::V1),
        Method::RlbGpuV2 => factor_rlb_gpu(&p.sym, &p.a_fact, opts, RlbGpuVersion::V2),
        Method::RlGpuPipe => rlchol_core::sched::factor_rl_gpu_pipe(&p.sym, &p.a_fact, opts),
        Method::RlbGpuPipe => rlchol_core::sched::factor_rlb_gpu_pipe(&p.sym, &p.a_fact, opts),
        _ => panic!("run_gpu called with a CPU method"),
    }
}

/// Renders a run's per-stream kernel/transfer breakdown, one indented
/// line per stream with its utilization over the simulated elapsed time.
pub fn stream_breakdown(run: &GpuRun) -> String {
    use rlchol_gpu::StreamRole;
    let utils = run.stats.stream_utilization(run.sim_seconds);
    let mut lines: Vec<String> = run
        .stats
        .per_stream
        .iter()
        .zip(&utils)
        .enumerate()
        .map(|(i, (st, util))| {
            let role = match st.role {
                StreamRole::Compute => "compute",
                StreamRole::Copy => "copy",
                StreamRole::Unassigned => "-",
            };
            format!(
                "  stream {i} ({role}): {} kernels ({:.4} s), {} transfers ({:.4} s), util {:.1}%",
                st.kernel_launches,
                st.kernel_seconds,
                st.transfer_count,
                st.transfer_seconds,
                util * 100.0
            )
        })
        .collect();
    // Averaging all streams together mixes the near-idle copy streams
    // into the compute numbers; report the two populations apart.
    let mean = |role: StreamRole| -> Option<f64> {
        let per = run.stats.role_utilization(run.sim_seconds, role);
        (!per.is_empty()).then(|| per.iter().sum::<f64>() / per.len() as f64)
    };
    if let (Some(cmp), Some(cpy)) = (mean(StreamRole::Compute), mean(StreamRole::Copy)) {
        lines.push(format!(
            "  mean util: compute {:.1}%, copy {:.1}%",
            cmp * 100.0,
            cpy * 100.0
        ));
    }
    lines.join("\n")
}

/// Counts supernodes at or above the offload threshold.
pub fn count_offloaded(sym: &SymbolicFactor, threshold: usize) -> usize {
    (0..sym.nsup())
        .filter(|&s| sym.sn_size(s) >= threshold.max(1))
        .count()
}

/// Verifies a factorization end-to-end through the solver pipeline (used
/// by harness self-checks): returns the refined residual.
pub fn verify_entry(entry: &SuiteEntry) -> f64 {
    let a = entry.generate();
    let solver = CholeskySolver::factor(&a, &Default::default()).expect("SPD");
    let n = a.n();
    let b: Vec<f64> = (0..n).map(|i| ((i * 17) % 29) as f64 - 14.0).collect();
    let (_, resid) = solver.solve_refined(&a, &b, 2);
    resid
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlchol_matgen::paper_suite;

    #[test]
    fn prepare_smallest_suite_entry() {
        // PFlow analogue is cheap enough for a unit test.
        let suite = paper_suite();
        let entry = suite.iter().find(|e| e.name == "PFlow_742").unwrap();
        let p = prepare(entry);
        assert!(p.sym.nsup() > 10);
        assert_eq!(p.a_fact.n(), entry.spec.n());
        p.sym.validate().unwrap();
    }

    #[test]
    fn offload_count_monotone_in_threshold() {
        let suite = paper_suite();
        let entry = suite.iter().find(|e| e.name == "PFlow_742").unwrap();
        let p = prepare(entry);
        let mut prev = usize::MAX;
        for thr in [1usize, 1_000, 10_000, 100_000] {
            let c = count_offloaded(&p.sym, thr);
            assert!(c <= prev);
            prev = c;
        }
    }
}
