//! `suite_gpu`: the paper's experiment on the simulated device.
//!
//! Five analogues of the paper's matrices are factored by GPU-RL at the
//! suite's RL threshold and by GPU-RLB (second version) at its RLB
//! threshold, under the suite's scaled machine, and a 20³ grid by the
//! pipelined GPU-RL with eight stream pairs and threshold 0 on the default
//! machine. Simulated seconds come from the model and repeat exactly;
//! host seconds are what the simulator itself costs.

use std::sync::Arc;
use std::time::Instant;

use rlchol_core::{
    CholeskySolver, FactorError, FactorInfo, GpuOptions, Method, SolveWorkspace, SolverOptions,
    SymbolicCholesky,
};
use rlchol_gpu::{GpuStats, StreamRole};
use rlchol_matgen::suite::{SuiteConfig, SuiteEntry};
use rlchol_matgen::{grid3d, paper_suite, Stencil};
use rlchol_perfmodel::{perlmutter_cpu, replay_cpu, MachineModel, PAPER_THREAD_SWEEP};
use rlchol_sparse::SymCsc;

use crate::check::{check_residual, inf_norm};
use crate::json::Json;
use crate::metrics::Report;
use crate::spans::Tracer;
use crate::stats::Rng;
use crate::{Budget, RunCfg};

/// Small to large, one per structural family of the paper's suite.
const MATRICES: [&str; 5] = [
    "PFlow_742",
    "audikw_1",
    "nlpkkt80",
    "Long_Coup_dt0",
    "Queen_4147",
];
/// Table I's missing row: too large for GPU-RL's device footprint.
const OOM_MATRIX: &str = "nlpkkt120";
const PIPE_STREAMS: usize = 8;

fn suite_gpu(cfg: &SuiteConfig, threshold: usize) -> GpuOptions {
    GpuOptions {
        machine: MachineModel::perlmutter(cfg.gpu_host_threads)
            .scale_compute(cfg.machine_scale)
            .with_gpu_capacity(cfg.gpu_capacity_bytes),
        ..GpuOptions::with_threshold(threshold)
    }
}

fn options(method: Method, gpu: Option<GpuOptions>) -> SolverOptions {
    let base = SolverOptions::default();
    SolverOptions {
        method,
        gpu: gpu.unwrap_or(base.gpu.clone()),
        ..base
    }
}

/// One input with the handle of one engine.
struct Case {
    name: &'static str,
    engine: &'static str,
    span: &'static str,
    a: Arc<SymCsc>,
    norm: f64,
    rhs: Arc<Vec<f64>>,
    handle: SymbolicCholesky,
}

/// Best model time of the CPU baseline: RL and RLB traces replayed over
/// the paper's thread sweep under the scaled machine.
fn cpu_best_seconds(a: &SymCsc, cfg: &SuiteConfig, rep: &mut Report) -> f64 {
    let mut best = f64::INFINITY;
    for method in [Method::RlCpu, Method::RlbCpu] {
        let handle = CholeskySolver::analyze(a, &options(method, None));
        match handle.factor_with(a) {
            Ok(fact) => {
                let trace = fact
                    .info()
                    .trace
                    .as_ref()
                    .expect("CPU engines record a trace");
                for &threads in &PAPER_THREAD_SWEEP {
                    let model = perlmutter_cpu(threads).scale_compute(cfg.machine_scale);
                    best = best.min(replay_cpu(trace, &model));
                }
            }
            Err(e) => rep.fail(format!("CPU baseline {method:?}: {e}")),
        }
    }
    best
}

/// Set-up: generate and analyze every input on every engine.
fn prepare(seed: u64) -> Vec<Case> {
    let cfg = SuiteConfig::default();
    let suite = paper_suite();
    let mut rng = Rng::fork(seed, 0x5017e);
    let mut cases = Vec::new();
    for name in MATRICES {
        // Patterns and values are the suite's own; the seed draws only
        // the right-hand sides of the residual checks.
        let a = Arc::new(suite_entry(&suite, name).generate());
        let rhs = Arc::new(rng.rhs(a.n()));
        let norm = inf_norm(&a);
        for (engine, span, method, threshold) in [
            ("rl", "core.factor.rl_gpu", Method::RlGpu, cfg.rl_threshold),
            (
                "rlb",
                "core.factor.rlb_gpu",
                Method::RlbGpuV2,
                cfg.rlb_threshold,
            ),
        ] {
            let opts = options(method, Some(suite_gpu(&cfg, threshold)));
            cases.push(Case {
                name,
                engine,
                span,
                a: a.clone(),
                norm,
                rhs: rhs.clone(),
                handle: CholeskySolver::analyze(&a, &opts),
            });
        }
    }
    let a = Arc::new(grid3d(20, 20, 20, Stencil::Star7, 1, rng.next_u64()));
    let pipe = GpuOptions::with_threshold(0).with_streams(PIPE_STREAMS);
    cases.push(Case {
        name: "grid20",
        engine: "pipe",
        span: "core.factor.rl_gpu_pipe",
        norm: inf_norm(&a),
        rhs: Arc::new(rng.rhs(a.n())),
        handle: CholeskySolver::analyze(&a, &options(Method::RlGpuPipe, Some(pipe))),
        a,
    });
    cases
}

fn suite_entry<'a>(suite: &'a [SuiteEntry], name: &str) -> &'a SuiteEntry {
    suite
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("{name} is in the paper suite"))
}

/// Table I's missing row: GPU-RL must refuse the matrix with the typed
/// out-of-memory error, GPU-RLB (second version) must factor it.
fn check_oom_row(seed: u64, rep: &mut Report) {
    let cfg = SuiteConfig::default();
    let a = suite_entry(&paper_suite(), OOM_MATRIX).generate();
    let rl = options(Method::RlGpu, Some(suite_gpu(&cfg, cfg.rl_threshold)));
    let rl = CholeskySolver::analyze(&a, &rl);
    rep.op(match rl.factor_with(&a) {
        Err(FactorError::GpuOutOfMemory { .. }) => Ok(()),
        Err(e) => Err(format!(
            "{OOM_MATRIX} under RlGpu: expected the device out-of-memory error, got `{e}`"
        )),
        Ok(_) => Err(format!(
            "{OOM_MATRIX} under RlGpu: expected the device out-of-memory error, got a factor"
        )),
    });
    drop(rl);
    let rlb = options(Method::RlbGpuV2, Some(suite_gpu(&cfg, cfg.rlb_threshold)));
    let rlb = CholeskySolver::analyze(&a, &rlb);
    rep.op(match rlb.factor_with(&a) {
        Ok(fact) => {
            let b = Rng::fork(seed, 0x00e).rhs(a.n());
            let mut x = vec![0.0; a.n()];
            rlb.solve_into(&fact, &b, &mut x, &mut SolveWorkspace::new())
                .map_err(|e| e.to_string())
                .and_then(|()| check_residual(OOM_MATRIX, &a, inf_norm(&a), &x, &b))
        }
        Err(e) => Err(format!(
            "{OOM_MATRIX} under RlbGpuV2: expected a factor, got `{e}`"
        )),
    });
}

/// What one factorization of one case reported.
struct Outcome {
    host_s: f64,
    info: FactorInfo,
}

/// One pass: every case factored once, each factor checked through a
/// solve outside the timed call.
fn pass(cases: &[Case], pass_id: u64, tr: &mut Tracer, rep: &mut Report) -> Vec<Option<Outcome>> {
    let span = tr.open("pass", None, pass_id);
    let mut ws = SolveWorkspace::new();
    let out = cases
        .iter()
        .map(|c| {
            let (fact, host) = tr.time(c.span, span, pass_id, || c.handle.factor_with(&c.a));
            let what = format!("{} {}", c.name, c.engine);
            let fact = match fact {
                Ok(f) => f,
                Err(e) => {
                    rep.op(Err(format!("{what}: {e}")));
                    return None;
                }
            };
            let mut x = vec![0.0; c.a.n()];
            rep.op(c
                .handle
                .solve_into(&fact, &c.rhs, &mut x, &mut ws)
                .map_err(|e| e.to_string())
                .and_then(|()| check_residual(&what, &c.a, c.norm, &x, &c.rhs)));
            let info = fact.info().clone();
            c.handle.recycle(fact);
            Some(Outcome {
                host_s: host.as_secs_f64(),
                info,
            })
        })
        .collect();
    tr.close(span);
    out
}

fn host_seconds(outcomes: &[Option<Outcome>]) -> f64 {
    outcomes.iter().flatten().map(|o| o.host_s).sum()
}

/// Mean busy share of the streams of one role over the simulated run.
fn role_util(stats: &GpuStats, elapsed: f64, role: StreamRole) -> f64 {
    let per = stats.role_utilization(elapsed, role);
    if per.is_empty() {
        0.0
    } else {
        per.iter().sum::<f64>() / per.len() as f64
    }
}

pub fn run(cfg: &RunCfg, tr: &mut Tracer) -> Report {
    let mut rep = Report::new("suite_gpu", cfg.traced);

    // Set-up: every handle analyzed, then the first factorization on
    // each — the cold pass, which creates the lanes and the device
    // session and whose simulated seconds are the paper's numbers. It is
    // too long to repeat, so `setup_s` is one sample per run.
    let t0 = Instant::now();
    let cases = prepare(cfg.seed);
    let mut off = Tracer::new(false, Instant::now());
    let cold = pass(&cases, 0, &mut off, &mut rep);
    rep.set("setup_s", t0.elapsed().as_secs_f64());

    // Timed passes are warm: each handle has factored its matrix before.
    // A traced run first takes one of them untraced; the ratio of the two
    // host times is the tracing overhead.
    let mut untraced_host = None;
    if cfg.traced {
        untraced_host = Some(host_seconds(&pass(&cases, 1, &mut off, &mut rep)));
    }
    let mut budget = Budget::new(
        if cfg.traced { 0.0 } else { cfg.seconds },
        if cfg.traced { 1 } else { 3 },
    );
    let mut passes: Vec<Vec<Option<Outcome>>> = Vec::new();
    while budget.more() {
        passes.push(pass(&cases, passes.len() as u64 + 2, tr, &mut rep));
    }

    let hosts: Vec<f64> = passes.iter().map(|p| host_seconds(p)).collect();
    rep.set_median("sim_host_s", &hosts);
    // The best pass, for the reason given in `direct::run`.
    let pass_ms: Vec<f64> = hosts.iter().map(|t| t * 1e3).collect();
    let factors_per_s: Vec<f64> = hosts.iter().map(|t| cases.len() as f64 / t).collect();
    rep.set_best("op_ms", &pass_ms);
    rep.set_best("ops_per_s", &factors_per_s);
    if let Some(base) = untraced_host {
        rep.set("trace_overhead_frac", hosts[0] / base);
    }

    // The model is deterministic: every warm pass must report the same
    // simulated seconds for the same case, to the last bit. (The cold
    // pass may differ: it uploads what later ones find resident.)
    let sim = |o: &Option<Outcome>| o.as_ref().and_then(|o| o.info.sim_seconds);
    for (i, c) in cases.iter().enumerate() {
        if sim(&cold[i]).is_none() {
            rep.fail(format!("{} {}: no simulated seconds", c.name, c.engine));
        }
        for (k, p) in passes.iter().enumerate().skip(1) {
            let (want, got) = (sim(&passes[0][i]), sim(&p[i]));
            if got.map(f64::to_bits) != want.map(f64::to_bits) {
                rep.fail(format!(
                    "{} {}: simulated seconds of warm pass {} expected {want:?}, got {got:?}",
                    c.name,
                    c.engine,
                    k + 1
                ));
            }
        }
    }

    // Simulated results, from the cold pass.
    let of_engine = |engine: &str| -> Vec<&Outcome> {
        cases
            .iter()
            .zip(&cold)
            .filter(|(c, _)| c.engine == engine)
            .filter_map(|(_, o)| o.as_ref())
            .collect()
    };
    let sims = |engine: &str| -> Vec<f64> {
        of_engine(engine)
            .iter()
            .filter_map(|o| o.info.sim_seconds)
            .collect()
    };
    let (rl, rlb, pipe) = (sims("rl"), sims("rlb"), sims("pipe"));
    rep.set_recorded("sim_rl_s", rl.iter().sum());
    rep.set_recorded("sim_rlb_s", rlb.iter().sum());
    rep.set_recorded("sim_pipe_s", pipe.iter().sum());
    if cfg.traced {
        // The exact, expensive parts run once, beside the traced pass:
        // the CPU-model baseline behind the paper's speed-up column (best
        // CPU configuration over the better GPU engine, geometric mean
        // over the matrices) and Table I's missing row.
        let suite_cfg = SuiteConfig::default();
        let cpu_best: Vec<f64> = cases
            .iter()
            .filter(|c| c.engine == "rl")
            .map(|c| cpu_best_seconds(&c.a, &suite_cfg, &mut rep))
            .collect();
        if rl.len() == MATRICES.len() && rlb.len() == MATRICES.len() {
            let log_sum: f64 = cpu_best
                .iter()
                .zip(rl.iter().zip(&rlb))
                .map(|(cpu, (a, b))| (cpu / a.min(*b)).ln())
                .sum();
            rep.set_recorded("sim_speedup", (log_sum / MATRICES.len() as f64).exp());
        }
        rep.set("perfmodel.cpu_best_s", cpu_best.iter().sum());
        check_oom_row(cfg.seed, &mut rep);
    }
    let mut sn_on_gpu = 0;
    for engine in ["rl", "rlb", "pipe"] {
        let runs = of_engine(engine);
        let stats: Vec<(&GpuStats, f64)> = runs
            .iter()
            .filter_map(|o| Some((o.info.gpu.as_ref()?, o.info.sim_seconds?)))
            .collect();
        let sum = |f: fn(&GpuStats) -> f64| stats.iter().map(|(s, _)| f(s)).sum::<f64>();
        let mean_util = |role| {
            stats
                .iter()
                .map(|(s, el)| role_util(s, *el, role))
                .sum::<f64>()
                / stats.len().max(1) as f64
        };
        let mut set = |metric: &str, v: f64| rep.set(&format!("gpu.{engine}.{metric}"), v);
        set("kernel_launches", sum(|s| s.kernel_launches as f64));
        set("kernel_s", sum(|s| s.kernel_seconds));
        set("h2d_bytes", sum(|s| s.h2d_bytes as f64));
        set("d2h_bytes", sum(|s| s.d2h_bytes as f64));
        set("transfer_s", sum(|s| s.transfer_seconds));
        set("host_s", sum(|s| s.host_seconds));
        set(
            "peak_bytes",
            stats
                .iter()
                .map(|(s, _)| s.peak_bytes as f64)
                .fold(0.0, f64::max),
        );
        set("compute_util", mean_util(StreamRole::Compute));
        set("copy_util", mean_util(StreamRole::Copy));
        if engine != "pipe" {
            sn_on_gpu += runs.iter().map(|o| o.info.sn_on_gpu).sum::<usize>();
        }
    }
    rep.set("core.sn_on_gpu", sn_on_gpu as f64);
    let streams = of_engine("pipe").first().map_or(0, |o| o.info.streams_used);
    rep.set("core.streams_used", streams as f64);
    rep.knobs.insert("streams_used", Json::Num(streams as f64));
    rep.knobs.insert(
        "factor_lanes",
        Json::Num(cases[0].handle.factor_lanes() as f64),
    );
    rep
}
