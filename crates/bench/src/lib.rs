//! # rlchol-bench — the paper's reproduction, from one command
//!
//! `cargo run --release -p rlchol-bench --bin paper` regenerates every
//! table and figure of the paper on the simulated device and writes the
//! committed `BENCH_paper.json` (see [`paper`]); `paper --check`
//! compares a fresh run to the committed file. The criterion benches
//! under `benches/` time individual layers; wall-clock scaling and
//! service load belong to the repository benchmark
//! (`crates/bench/src/bin/benchmark/`).
//!
//! This module is the machinery under [`paper`]: [`prepare`] orders and
//! analyzes a matrix once, and `run_cpu` / `run_gpu` feed the
//! [`PreparedMatrix`] to any number of numeric engines through the
//! registry (`engine_for(method)`), the only public way to run one.

pub mod paper;

use rlchol_core::engine::{GpuOptions, Method};
use rlchol_core::{engine_for, EngineRun, EngineWorkspace, FactorData, FactorError};
use rlchol_matgen::suite::SuiteConfig;
use rlchol_ordering::{order, OrderingMethod};
use rlchol_perfmodel::{MachineModel, Trace};
use rlchol_sparse::SymCsc;
use rlchol_symbolic::{analyze, SymbolicFactor, SymbolicOptions};

/// A matrix with its ordering and symbolic analysis done.
pub struct PreparedMatrix {
    pub name: &'static str,
    /// The matrix in fill-reducing (nested-dissection) order — what a
    /// re-analysis under other symbolic options starts from.
    pub a_fill: SymCsc,
    pub sym: SymbolicFactor,
    /// The matrix in factor ordering (input to every numeric engine).
    pub a_fact: SymCsc,
}

/// Orders `a` (nested dissection, as in the paper) and analyzes it with
/// the paper's symbolic setup (merging at 25 %, PR on).
pub fn prepare(name: &'static str, a: SymCsc) -> PreparedMatrix {
    let fill = order(&a, OrderingMethod::NestedDissection);
    analyzed(name, a.permute(&fill), &SymbolicOptions::default())
}

fn analyzed(name: &'static str, a_fill: SymCsc, opts: &SymbolicOptions) -> PreparedMatrix {
    let sym = analyze(&a_fill, opts);
    let a_fact = a_fill.permute(&sym.perm);
    PreparedMatrix {
        name,
        a_fill,
        sym,
        a_fact,
    }
}

impl PreparedMatrix {
    /// The same matrix under the same ordering, analyzed again with
    /// explicit symbolic options (the merge × PR ablation).
    pub fn reanalyzed(&self, opts: &SymbolicOptions) -> PreparedMatrix {
        analyzed(self.name, self.a_fill.clone(), opts)
    }
}

/// Best scaled-model CPU time of one trace over the paper's thread sweep.
pub(crate) fn best_cpu_scaled(trace: &Trace, cfg: &SuiteConfig) -> f64 {
    rlchol_perfmodel::PAPER_THREAD_SWEEP
        .iter()
        .map(|&t| {
            let model = rlchol_perfmodel::perlmutter_cpu(t).scale_compute(cfg.machine_scale);
            rlchol_perfmodel::replay_cpu(trace, &model)
        })
        .fold(f64::INFINITY, f64::min)
}

/// GPU options for a suite run: the scaled device capacity from the suite
/// config and the requested threshold.
pub(crate) fn gpu_options(cfg: &SuiteConfig, threshold: usize) -> GpuOptions {
    GpuOptions {
        machine: MachineModel::perlmutter(cfg.gpu_host_threads)
            .scale_compute(cfg.machine_scale)
            .with_gpu_capacity(cfg.gpu_capacity_bytes),
        ..GpuOptions::with_threshold(threshold)
    }
}

/// Runs one CPU engine on a prepared matrix and returns its trace. The
/// suite is SPD by construction, so any failure is a bug: it panics with
/// the matrix and method named.
pub(crate) fn run_cpu(p: &PreparedMatrix, method: Method) -> Trace {
    let run = engine_for(method)
        .factor(
            &p.sym,
            FactorData::load(&p.sym, &p.a_fact),
            &mut EngineWorkspace::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {} failed: {e}", p.name, method.label()));
    run.info.trace.expect("CPU engines record a trace")
}

/// Runs one GPU engine on a prepared matrix. `None` means the device ran
/// out of memory — the one failure the paper reports (Table I's blank
/// row); any other error panics with the matrix and method named
/// instead of being tabulated as "OOM".
pub(crate) fn run_gpu(p: &PreparedMatrix, method: Method, opts: &GpuOptions) -> Option<EngineRun> {
    let mut ws = EngineWorkspace::new(0, opts.clone());
    match engine_for(method).factor(&p.sym, FactorData::load(&p.sym, &p.a_fact), &mut ws) {
        Ok(run) => Some(run),
        Err(FactorError::GpuOutOfMemory { .. }) => None,
        Err(e) => panic!("{}: {} failed: {e}", p.name, method.label()),
    }
}

/// Simulated seconds of a GPU engine's run.
pub(crate) fn sim_seconds(run: &EngineRun) -> f64 {
    run.info
        .sim_seconds
        .expect("GPU engines report simulated time")
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
        let p = prepare(entry.name, entry.generate());
        assert!(p.sym.nsup() > 10);
        assert_eq!(p.a_fact.n(), entry.spec.n());
        p.sym.validate().unwrap();
        // Re-analysis without merging keeps the ordering and refines the
        // partition.
        let fundamental = p.reanalyzed(&SymbolicOptions {
            merge: false,
            ..SymbolicOptions::default()
        });
        assert!(fundamental.sym.nsup() > p.sym.nsup());
    }
}
