//! The repository's benchmark: four workloads, timed from outside.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark                         # all workloads, untraced then traced
//! benchmark --compare a.json b.json
//! ```
//!
//! See `README.md` beside `Cargo.toml` for the workloads, the metric
//! glossary and which layer is predicted to move which number.
//!
//! # API-surface rule
//!
//! This program names only the parts of the library that ROADMAP item 2
//! keeps, so the planned deletions never have to edit this directory:
//!
//! * the staged API — `CholeskySolver::analyze`, `SymbolicCholesky::
//!   {factor_with, refactor, solve_into, solve_many, set_solve_threads}`
//!   and the result structs they return (`FactorInfo`, `GpuStats`,
//!   `AnalyzeBreakdown`, `Trace`, `SolveInfo`, `LaneStats`);
//! * `Method::{RlCpu, RlbCpu, RlCpuPar, RlGpu, RlbGpuV2, RlGpuPipe}`;
//! * `GpuOptions::with_threshold`, `.with_streams` and the `.machine`
//!   field;
//! * `Service`, `Client`, `spawn_server_with`, and the fields of
//!   `WireResponse`, `ServiceStats` and `NetStats`;
//! * every options struct through struct-update syntax over `default()`.
//!
//! It must not name `retire`, `assign`, `lookahead`, `serve_blocking`,
//! `gpu_rl::*`, `gpu_rlb::*` or anything from the `rlchol_bench` library.
//!
//! # Configuration rule
//!
//! The program runs as users get it: `SolverOptions::default()`,
//! `ServiceConfig::default()`, `ServeOptions::default()`, with only the
//! method (and, for `suite_gpu`, the machine, threshold and stream count)
//! set. Every `RLCHOL_*` variable is removed from the environment at
//! start and the result file lists which were.

mod check;
mod compare;
mod dense;
mod direct;
mod envelope;
mod expected;
mod json;
mod metrics;
mod serve;
mod spans;
mod stats;
mod suite;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use metrics::{Report, RUN_SECONDS, WORKLOADS};
use spans::Tracer;

/// What one run of one workload is told.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
}

/// Decides whether a measuring loop has room for one more iteration: at
/// least `min` run, then as many as fit in `seconds` at the pace so far.
pub struct Budget {
    start: Instant,
    seconds: f64,
    min: usize,
    done: usize,
}

impl Budget {
    pub fn new(seconds: f64, min: usize) -> Self {
        Budget {
            start: Instant::now(),
            seconds,
            min,
            done: 0,
        }
    }

    pub fn more(&mut self) -> bool {
        let elapsed = self.start.elapsed().as_secs_f64();
        let go = self.done < self.min || elapsed + elapsed / self.done as f64 <= self.seconds;
        self.done += go as usize;
        go
    }
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    print_benchmark_json: bool,
}

const USAGE: &str = "usage: benchmark [--workload cube32|plate300|suite_gpu|serve_zipf] \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--trace-out FILE] \
| --compare A.json B.json | --print-benchmark-json";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        out: None,
        trace_out: None,
        compare: None,
        print_benchmark_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let bad = |v: &str| format!("{flag}: cannot read `{v}`\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !WORKLOADS.iter().any(|w| w.name == v) {
                    return Err(bad(v));
                }
                args.workload = Some(v.clone());
            }
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => {
                args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600]\n{USAGE}"));
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--out" => args.out = Some(value()?.into()),
            "--trace-out" => args.trace_out = Some(value()?.into()),
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--print-benchmark-json" => args.print_benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Where files the benchmark leaves behind go: under the build directory,
/// which `.gitignore` already names.
fn output_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("benchmark")
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn result_file(envelope: Json, wall_s: f64, results: Vec<Json>) -> Json {
    Json::obj([
        ("envelope", envelope),
        ("total_wall_s", Json::Num(wall_s)),
        ("results", Json::Arr(results)),
    ])
}

/// One workload in this process. The last line of standard output is the
/// driver's result object.
fn run_one(name: &str, args: &Args, cleared: &[String]) -> Result<bool, String> {
    let started = Instant::now();
    let envelope = envelope::envelope(args.seed, args.seconds, cleared);
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
    };
    let mut tracer = Tracer::new(cfg.traced, started);
    let mut report: Report = match name {
        "cube32" => direct::run(&direct::CUBE32, &cfg, &mut tracer),
        "plate300" => direct::run(&direct::PLATE300, &cfg, &mut tracer),
        "suite_gpu" => suite::run(&cfg, &mut tracer),
        "serve_zipf" => serve::run(&cfg, &mut tracer),
        other => unreachable!("parse_args admitted workload `{other}`"),
    };
    match envelope::peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb),
        None => report.fail("VmHWM is not readable from /proc/self/status".into()),
    }
    report.print_table();
    if cfg.traced {
        let path = args
            .trace_out
            .clone()
            .unwrap_or_else(|| output_dir().join(format!("trace-{name}.json")));
        write_file(&path, &spans::to_json(name, tracer.spans()).render())?;
        eprintln!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    if let Some(path) = &args.out {
        let file = result_file(
            envelope,
            started.elapsed().as_secs_f64(),
            vec![report.to_json()],
        );
        write_file(path, &file.pretty())?;
    }
    println!("{}", report.driver_line());
    Ok(report.correct())
}

/// Every workload, each in a fresh child process of this program so heap
/// state and `VmHWM` are the workload's own: first untraced, then traced.
fn run_all(args: &Args, cleared: &[String]) -> Result<bool, String> {
    if args.trace_out.is_some() || args.traced {
        return Err(format!(
            "--trace and --trace-out need --workload: without it every workload runs both ways\n{USAGE}"
        ));
    }
    let started = Instant::now();
    let envelope = envelope::envelope(args.seed, args.seconds, cleared);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = output_dir();
    let mut results = Vec::new();
    let mut all_ok = true;
    for traced in [false, true] {
        for w in WORKLOADS {
            let part = dir.join(format!("part-{}-{}.json", w.name, traced as u8));
            let status = Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&part)
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            all_ok &= status.success();
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("{} left no result: {e}", w.name))?;
            let parsed = Json::parse(&text)?;
            let Some(Json::Arr(items)) = parsed.get("results") else {
                return Err(format!("{}: no results array", part.display()));
            };
            results.extend(items.iter().cloned());
            std::fs::remove_file(&part).map_err(|e| e.to_string())?;
        }
    }
    let out = args.out.clone().unwrap_or_else(|| dir.join("result.json"));
    let file = result_file(envelope, started.elapsed().as_secs_f64(), results);
    write_file(&out, &file.pretty())?;
    eprintln!("results written to {}", out.display());
    Ok(all_ok)
}

fn main() -> ExitCode {
    // Before any thread exists: the environment is process-wide.
    let cleared = envelope::clear_rlchol_env();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.print_benchmark_json {
        print!("{}", metrics::benchmark_json().pretty());
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        compare::run(a, b)
    } else if let Some(name) = &args.workload {
        run_one(name, &args, &cleared)
    } else {
        run_all(&args, &cleared)
    };
    ExitCode::from(exit_code(outcome))
}

/// 0 when every check passed, 1 when one failed, 2 when the benchmark
/// itself could not run.
fn exit_code(outcome: Result<bool, String>) -> u8 {
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failed_check_makes_the_exit_status_non_zero() {
        let mut rep = Report::new("cube32", false);
        rep.op(Ok(()));
        assert_eq!(exit_code(Ok(rep.correct())), 0);
        rep.op(Err(
            "first solve: scaled residual expected <= 1e-10, got 3e-7".into(),
        ));
        assert_eq!((rep.attempted, rep.failed), (2, 1));
        assert_eq!(exit_code(Ok(rep.correct())), 1);
        assert_eq!(exit_code(Err("no such file".into())), 2);
    }

    #[test]
    fn the_limits_of_the_checks_are_not_arguments() {
        let argv = ["--residual-limit", "1"].map(String::from);
        let refused = parse_args(&argv).err().expect("the flag is gone");
        assert!(refused.contains("unknown argument"), "{refused}");
    }
}
