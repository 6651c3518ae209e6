//! `rlchol` — command-line driver for the factorization pipeline.
//!
//! ```text
//! rlchol analyze <matrix.mtx> [--ordering nd|md|rcm|natural] [--json]
//! rlchol factor  <matrix.mtx> [--method <engine>] [--ordering ...] [--json]
//! rlchol solve   <matrix.mtx> [--method ...] [--json]  # b = A·1, reports errors
//! rlchol serve   <addr>       [--method ...]   # solver-as-a-service daemon
//! ```
//!
//! `--method` accepts every registered engine; the list in `--help`
//! output is generated from [`Method::ALL`], so a newly registered
//! engine shows up here with no CLI change. `--json` switches `analyze`,
//! `factor` and `solve` to a single machine-readable JSON report on
//! stdout (same schema as the service protocol's response frames).
//! `analyze` prints the per-stage wall breakdown (ordering / etree /
//! colcount / merge / relind / value-map) and the lane count it ran on,
//! which follows `RLCHOL_THREADS` above a size cutoff. On two or more
//! lanes nested dissection orders the halves of its top split at once,
//! and the column counts, partition refinement, relind and value map
//! split into chunks; the result is bit-identical at any count — only
//! the wall changes.
//!
//! Matrices are Matrix Market files (`coordinate real|pattern`,
//! `symmetric` or `general` holding a symmetric matrix). `serve` takes
//! a listen address (e.g. `127.0.0.1:7211`) instead of a matrix and
//! serves the framed request protocol of `rlchol::service` until a
//! client sends the shutdown op.

use std::time::Duration;

use rlchol::core::engine::{GpuOptions, Method, RetireMode};
use rlchol::core::json::{factor_info_json, JsonObj};
use rlchol::perfmodel::MachineModel;
use rlchol::sparse::read_matrix_market;
use rlchol::{
    CholeskySolver, Deadline, FallbackChain, FaultPlan, OrderingMethod, SolveWorkspace,
    SolverOptions, SymCsc,
};

/// `--method` choices, generated from the engine registry.
fn method_names() -> String {
    Method::ALL
        .iter()
        .map(|m| m.cli_name())
        .collect::<Vec<_>>()
        .join("|")
}

fn usage() -> ! {
    eprintln!(
        "usage: rlchol <analyze|factor|solve> <matrix.mtx> \
         [--method {}] \
         [--ordering nd|md|rcm|natural] \
         [--factor-lanes N] [--gpu-threshold N] \
         [--retire inorder|ooo] \
         [--faults SPEC[,SPEC...]] [--fallback auto|m1>m2>...] \
         [--deadline-ms N] [--json]\n\
         \x20      rlchol serve <addr> [solver flags as above]",
        method_names()
    );
    std::process::exit(2);
}

struct Args {
    cmd: String,
    path: String,
    method: Method,
    ordering: OrderingMethod,
    factor_lanes: usize,
    gpu_threshold: Option<usize>,
    retire: Option<RetireMode>,
    faults: Option<FaultPlan>,
    fallback: Option<FallbackChain>,
    deadline_ms: Option<u64>,
    json: bool,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let cmd = it.next().unwrap_or_else(|| usage());
    let path = it.next().unwrap_or_else(|| usage());
    let mut method = Method::RlCpu;
    let mut ordering = OrderingMethod::NestedDissection;
    let mut factor_lanes = 0usize;
    let mut gpu_threshold = None;
    let mut retire = None;
    let mut faults = None;
    let mut fallback = None;
    let mut deadline_ms = None;
    let mut json = false;
    while let Some(flag) = it.next() {
        // Boolean flags take no value.
        if flag == "--json" {
            json = true;
            continue;
        }
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--method" => {
                method = value.parse().unwrap_or_else(|e: String| {
                    eprintln!("rlchol: {e}");
                    usage()
                })
            }
            "--ordering" => {
                ordering = match value.as_str() {
                    "nd" => OrderingMethod::NestedDissection,
                    "md" => OrderingMethod::MinDegree,
                    "rcm" => OrderingMethod::Rcm,
                    "natural" => OrderingMethod::Natural,
                    _ => usage(),
                }
            }
            "--factor-lanes" => factor_lanes = value.parse().unwrap_or_else(|_| usage()),
            // Supernode-size offload cutoff; 0 sends everything to the
            // (simulated) device — handy with --faults.
            "--gpu-threshold" => gpu_threshold = Some(value.parse().unwrap_or_else(|_| usage())),
            // How the pipelined engines retire device results: strict
            // ascending order, or as copies land (out-of-order).
            "--retire" => {
                retire = Some(match value.as_str() {
                    "inorder" => RetireMode::InOrder,
                    "ooo" => RetireMode::Ooo,
                    _ => usage(),
                })
            }
            "--faults" => {
                faults = Some(FaultPlan::parse(&value).unwrap_or_else(|e| {
                    eprintln!("rlchol: bad --faults: {e}");
                    usage()
                }))
            }
            // Resolved after the loop: `auto` depends on the final --method.
            "--fallback" => fallback = Some(value),
            "--deadline-ms" => deadline_ms = Some(value.parse().unwrap_or_else(|_| usage())),
            _ => usage(),
        }
    }
    let fallback = fallback.map(|v| {
        if v == "auto" {
            FallbackChain::recommended(method)
        } else {
            v.parse().unwrap_or_else(|e: String| {
                eprintln!("rlchol: bad --fallback: {e}");
                usage()
            })
        }
    });
    Args {
        cmd,
        path,
        method,
        ordering,
        factor_lanes,
        gpu_threshold,
        retire,
        faults,
        fallback,
        deadline_ms,
        json,
    }
}

fn load(path: &str) -> SymCsc {
    match read_matrix_market(path).and_then(|m| m.to_sym()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rlchol: cannot read {path}: {e}");
            std::process::exit(1);
        }
    }
}

fn solver_options(args: &Args) -> SolverOptions {
    SolverOptions {
        ordering: args.ordering,
        method: args.method,
        gpu: GpuOptions {
            machine: MachineModel::perlmutter(64).scale_compute(24.0),
            retire: args.retire,
            faults: args.faults.clone(),
            ..GpuOptions::with_threshold(args.gpu_threshold.unwrap_or(12_000))
        },
        factor_lanes: args.factor_lanes,
        fallback: args.fallback.clone().unwrap_or_default(),
        deadline: match args.deadline_ms {
            Some(ms) => Deadline::wall(Duration::from_millis(ms)),
            None => Deadline::none(),
        },
        ..SolverOptions::default()
    }
}

fn main() {
    let args = parse_args();
    if args.cmd == "serve" {
        // `path` is the listen address; everything else configures the
        // solver options every request starts from.
        let cfg = rlchol::service::ServiceConfig {
            options: solver_options(&args),
            ..Default::default()
        };
        if let Err(e) = rlchol::service::run_server(&args.path, cfg) {
            eprintln!("rlchol serve: {e}");
            std::process::exit(1);
        }
        return;
    }
    let a = load(&args.path);
    if !args.json {
        println!("matrix: n = {}, nnz(lower) = {}", a.n(), a.nnz_lower());
    }
    match args.cmd.as_str() {
        "analyze" => {
            // The staged API: symbolic analysis only, no numeric factor.
            let t0 = std::time::Instant::now();
            let handle = CholeskySolver::analyze(&a, &solver_options(&args));
            let wall = t0.elapsed();
            let sym = handle.symbolic();
            let stages = handle.analyze_breakdown();
            if args.json {
                let obj = JsonObj::new()
                    .str("op", "analyze")
                    .u64("n", a.n() as u64)
                    .u64("nnz_lower", a.nnz_lower() as u64)
                    .u64("supernodes", sym.nsup() as u64)
                    .u64("factor_nnz", sym.nnz)
                    .f64("factor_gflop", sym.flops / 1e9)
                    .u64("memory_bytes", handle.memory_bytes())
                    .raw(
                        "stages",
                        &rlchol::core::json::analyze_breakdown_json(&stages),
                    )
                    .f64("wall_ms", wall.as_secs_f64() * 1e3)
                    .finish();
                println!("{obj}");
                return;
            }
            println!("ordering: {:?}", args.ordering);
            println!("supernodes: {}", sym.nsup());
            println!("nnz(L): {}", sym.nnz);
            println!("factor flops: {:.3} Gflop", sym.flops / 1e9);
            println!(
                "merging: {} merges (+{} entries); PR blocks {} -> {}",
                sym.stats.merges,
                sym.stats.merge_extra_fill,
                sym.stats.blocks_before_pr,
                sym.stats.blocks_after_pr
            );
            println!(
                "largest supernode: {} entries; largest update matrix: {} entries",
                (0..sym.nsup()).map(|s| sym.sn_size(s)).max().unwrap_or(0),
                sym.max_update_matrix_entries()
            );
            println!(
                "handle memory: {:.2} MiB resident ({:.2} MiB per additional lane, {} lane(s))",
                handle.memory_bytes() as f64 / (1 << 20) as f64,
                handle.lane_memory_bytes() as f64 / (1 << 20) as f64,
                handle.factor_lanes()
            );
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            println!(
                "stage breakdown ({} analyze thread(s)): ordering {:.1} ms, \
                 etree {:.1} ms, colcount {:.1} ms, merge {:.1} ms, \
                 relind {:.1} ms, value map {:.1} ms",
                stages.threads,
                ms(stages.ordering),
                ms(stages.etree),
                ms(stages.colcount),
                ms(stages.merge),
                ms(stages.relind),
                ms(stages.value_map)
            );
            println!("analysis wall time: {:.1} ms", ms(wall));
        }
        "factor" => {
            let handle = CholeskySolver::analyze(&a, &solver_options(&args));
            let fact = handle.factor_with(&a).unwrap_or_else(|e| fail(e));
            let info = fact.info();
            if args.json {
                let obj = JsonObj::new()
                    .str("op", "factor")
                    .str("method", args.method.cli_name())
                    .u64("n", a.n() as u64)
                    .u64("nnz_lower", a.nnz_lower() as u64)
                    .u64("factor_nnz", handle.factor_nnz())
                    .u64("memory_bytes", handle.memory_bytes())
                    .raw("info", &factor_info_json(info))
                    .finish();
                println!("{obj}");
                return;
            }
            println!(
                "factored with {} in {:.1} ms (nnz(L) = {})",
                args.method.label(),
                info.wall.as_secs_f64() * 1e3,
                handle.factor_nnz()
            );
            if let Some(sim) = info.sim_seconds {
                println!(
                    "simulated platform time: {sim:.4} s ({} supernodes on GPU, {} stream pair(s))",
                    info.sn_on_gpu, info.streams_used
                );
            }
            if let Some(retire) = info.retire {
                println!(
                    "retirement: {} (lookahead {}, {} metadata transfer(s) saved)",
                    retire.name(),
                    info.lookahead,
                    info.transfers_saved
                );
            }
            if let Some(stats) = &info.gpu {
                println!(
                    "device: {} kernels, {:.1} MB transferred, peak memory {:.1} MB",
                    stats.kernel_launches,
                    stats.total_transfer_bytes() as f64 / 1e6,
                    stats.peak_bytes as f64 / 1e6
                );
            }
            if !info.recovery.is_empty() {
                println!("recovery ({} event(s)):", info.recovery.len());
                for event in &info.recovery {
                    println!("  {event}");
                }
            }
            let lanes = handle.lane_stats();
            println!(
                "workspace lanes: cap {}, created {}, peak in flight {}, \
                 {} checkout(s), {} contended, {} quarantined",
                lanes.cap,
                lanes.created,
                lanes.peak_in_use,
                lanes.checkouts,
                lanes.contended,
                lanes.quarantined
            );
        }
        "solve" => {
            let handle = CholeskySolver::analyze(&a, &solver_options(&args));
            let fact = handle.factor_with(&a).unwrap_or_else(|e| fail(e));
            // Manufactured b = A · 1, solved on the allocation-free path.
            let n = a.n();
            let ones = vec![1.0; n];
            let mut b = vec![0.0; n];
            a.matvec(&ones, &mut b);
            if args.json {
                let mut x = vec![0.0; n];
                let mut ws = SolveWorkspace::warm(n, 1);
                let resid = handle
                    .solve_refined(&fact, &a, &b, &mut x, 2, &mut ws)
                    .unwrap_or_else(|e| {
                        eprintln!("rlchol: solve failed: {e}");
                        std::process::exit(1);
                    });
                let err = x.iter().fold(0.0f64, |m, &v| m.max((v - 1.0).abs()));
                let obj = JsonObj::new()
                    .str("op", "solve")
                    .str("method", args.method.cli_name())
                    .u64("n", a.n() as u64)
                    .u64("nnz_lower", a.nnz_lower() as u64)
                    .u64("factor_nnz", handle.factor_nnz())
                    .f64("max_error", err)
                    .f64("refined_residual", resid)
                    .raw("factor", &factor_info_json(fact.info()))
                    .finish();
                println!("{obj}");
                return;
            }
            let mut x = vec![0.0; n];
            let mut ws = SolveWorkspace::warm(n, 1);
            let resid = handle
                .solve_refined(&fact, &a, &b, &mut x, 2, &mut ws)
                .unwrap_or_else(|e| {
                    eprintln!("rlchol: solve failed: {e}");
                    std::process::exit(1);
                });
            let err = x.iter().fold(0.0f64, |m, &v| m.max((v - 1.0).abs()));
            println!("solve: max |x - 1| = {err:.3e}, refined residual = {resid:.3e}");
        }
        _ => usage(),
    }
}

fn fail(e: rlchol::FactorError) -> ! {
    eprintln!("rlchol: factorization failed: {e}");
    std::process::exit(1);
}
