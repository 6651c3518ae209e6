//! `cube32` and `plate300`: the staged API called the way a library user
//! calls it, one job after another.
//!
//! A job is what one user does with one matrix: a fresh
//! `CholeskySolver::analyze`, a first `factor_with`, a first `solve_into`
//! (together the time to a solution), then two in-place `refactor`s with
//! new values, three more single solves and one `solve_many` of eight
//! right-hand sides. Residuals are checked outside the timed calls.

use std::time::Instant;

use rlchol_core::{CholeskySolver, Method, SolveWorkspace, SolverOptions, SymbolicCholesky};
use rlchol_matgen::{grid2d, grid3d, Stencil};
use rlchol_ordering::{min_degree, order, OrderingMethod};
use rlchol_perfmodel::{Trace, TraceOp};
use rlchol_sparse::SymCsc;

use crate::check::{check_residual, inf_norm};
use crate::json::Json;
use crate::metrics::Report;
use crate::spans::Tracer;
use crate::stats::{median, Rng};
use crate::{Budget, RunCfg};

/// Value sets per pattern; jobs and refactors cycle through them.
const POOL: usize = 4;
/// Right-hand sides of the `solve_many` call.
const MANY: usize = 8;
/// Set-up repetitions without tracing, so `setup_s` is a median.
const SETUP_REPS: usize = 3;

pub struct Spec {
    pub name: &'static str,
    generate: fn(u64) -> SymCsc,
}

pub const CUBE32: Spec = Spec {
    name: "cube32",
    generate: |seed| grid3d(32, 32, 32, Stencil::Star7, 1, seed),
};

pub const PLATE300: Spec = Spec {
    name: "plate300",
    generate: |seed| grid2d(300, 300, Stencil::Star5, 1, seed),
};

struct Inputs {
    pool: Vec<SymCsc>,
    norms: Vec<f64>,
    rhs: Vec<Vec<f64>>,
    rhs_many: Vec<f64>,
    generate_s: f64,
}

fn make_inputs(spec: &Spec, seed: u64) -> Inputs {
    let mut rng = Rng::fork(seed, 0xd1ec);
    let t0 = Instant::now();
    let first = (spec.generate)(rng.next_u64());
    let generate_s = t0.elapsed().as_secs_f64();
    let mut pool = vec![first];
    pool.extend((1..POOL).map(|_| (spec.generate)(rng.next_u64())));
    let n = pool[0].n();
    Inputs {
        norms: pool.iter().map(inf_norm).collect(),
        rhs: (0..POOL).map(|_| rng.rhs(n)).collect(),
        rhs_many: rng.rhs(n * MANY),
        pool,
        generate_s,
    }
}

/// Per-call samples of the job loop, in seconds.
#[derive(Default)]
struct Samples {
    job: Vec<f64>,
    job_total: Vec<f64>,
    analyze: Vec<f64>,
    factor: Vec<f64>,
    refactor: Vec<f64>,
    solve: Vec<f64>,
    solve_many: Vec<f64>,
    stages: Vec<[f64; 6]>,
}

/// What the layer probes need from the last job.
struct LastJob {
    trace: Option<Trace>,
    factor_nnz: u64,
    nsup: usize,
}

fn opts(method: Method) -> SolverOptions {
    SolverOptions {
        method,
        ..SolverOptions::default()
    }
}

/// Runs one job. Every timed call is one attempted operation; a typed
/// error or a residual above the limit fails it.
fn run_job(
    inp: &Inputs,
    job: u64,
    cfg: &RunCfg,
    tr: &mut Tracer,
    rep: &mut Report,
    out: &mut Samples,
) -> Option<LastJob> {
    let pick = |r: u64| ((job + r) % POOL as u64) as usize;
    let span = tr.open("job", None, job);
    let a0 = &inp.pool[pick(0)];
    let n = a0.n();
    let options = opts(Method::RlCpu);

    let (handle, t_analyze) = tr.time("core.analyze", span, job, || {
        CholeskySolver::analyze(a0, &options)
    });
    rep.op(Ok(()));
    let (fact, t_factor) = tr.time("core.factor_with", span, job, || handle.factor_with(a0));
    let mut fact = match fact {
        Ok(f) => {
            rep.op(Ok(()));
            f
        }
        Err(e) => {
            rep.op(Err(format!("job {job}: factor_with: {e}")));
            tr.close(span);
            return None;
        }
    };
    let mut ws = SolveWorkspace::new();
    let mut x = vec![0.0; n];
    let (solved, t_solve) = tr.time("core.solve_into", span, job, || {
        handle.solve_into(&fact, &inp.rhs[0], &mut x, &mut ws)
    });
    // The factorization is only as good as the solution it gives.
    rep.op(solved
        .map_err(|e| e.to_string())
        .and_then(|()| check_residual("first solve", a0, inp.norms[pick(0)], &x, &inp.rhs[0])));
    let mut total = t_analyze + t_factor + t_solve;
    out.job.push(total.as_secs_f64());
    out.analyze.push(t_analyze.as_secs_f64());
    out.factor.push(t_factor.as_secs_f64());
    out.solve.push(t_solve.as_secs_f64());
    let b = handle.analyze_breakdown();
    out.stages.push(
        [
            b.etree,
            b.colcount,
            b.merge,
            b.relind,
            b.value_map,
            b.solve_plan,
        ]
        .map(|d| d.as_secs_f64()),
    );

    let mut current = pick(0);
    for r in 1..=2 {
        current = pick(r);
        let (res, t) = tr.time("core.refactor", span, job, || {
            handle.refactor(&mut fact, &inp.pool[current])
        });
        total += t;
        out.refactor.push(t.as_secs_f64());
        if let Err(e) = res {
            rep.op(Err(format!("job {job}: refactor: {e}")));
            tr.close(span);
            return None;
        }
        rep.op(Ok(()));
    }
    for k in 1..POOL {
        let (res, t) = tr.time("core.solve_into", span, job, || {
            handle.solve_into(&fact, &inp.rhs[k], &mut x, &mut ws)
        });
        total += t;
        out.solve.push(t.as_secs_f64());
        rep.op(res.map_err(|e| e.to_string()).and_then(|()| {
            check_residual(
                "solve after refactor",
                &inp.pool[current],
                inp.norms[current],
                &x,
                &inp.rhs[k],
            )
        }));
    }
    let mut xs = vec![0.0; n * MANY];
    let (res, t) = tr.time("core.solve_many", span, job, || {
        handle.solve_many(&fact, &inp.rhs_many, &mut xs, MANY, &mut ws)
    });
    total += t;
    out.solve_many.push(t.as_secs_f64());
    rep.op(res.map_err(|e| e.to_string()).and_then(|()| {
        [0, MANY - 1].into_iter().try_for_each(|c| {
            check_residual(
                "solve_many column",
                &inp.pool[current],
                inp.norms[current],
                &xs[c * n..(c + 1) * n],
                &inp.rhs_many[c * n..(c + 1) * n],
            )
        })
    }));
    out.job_total.push(total.as_secs_f64());
    tr.close(span);

    if job == 0 {
        let lanes = handle.lane_stats();
        let si = handle.solve_info();
        rep.knobs
            .insert("factor_lanes", Json::Num(handle.factor_lanes() as f64));
        rep.knobs
            .insert("lanes_created", Json::Num(lanes.created as f64));
        rep.knobs
            .insert("solve_threads", Json::Num(si.threads as f64));
        rep.knobs
            .insert("solve_level_set", Json::Bool(si.level_set));
        rep.knobs
            .insert("analyze_threads", Json::Num(b.threads as f64));
    }
    Some(LastJob {
        // Only the layer probes replay it; untraced runs skip the copy.
        trace: fact.info().trace.as_ref().filter(|_| cfg.traced).cloned(),
        factor_nnz: handle.factor_nnz(),
        nsup: handle.symbolic().nsup(),
    })
}

pub fn run(spec: &Spec, cfg: &RunCfg, tr: &mut Tracer) -> Report {
    let mut rep = Report::new(spec.name, cfg.traced);

    // Set-up: inputs from the seed, then one untimed warm-up job (first
    // touch of the allocator and the thread pool). Untraced runs repeat
    // it so that `setup_s` is a median.
    let mut setups = Vec::new();
    let mut inp = None;
    for _ in 0..if cfg.traced { 1 } else { SETUP_REPS } {
        let t0 = Instant::now();
        let made = make_inputs(spec, cfg.seed);
        let mut off = Tracer::new(false, Instant::now());
        // Its calls are checked like any other, so they count as attempted.
        run_job(&made, 0, cfg, &mut off, &mut rep, &mut Samples::default());
        setups.push(t0.elapsed().as_secs_f64());
        inp = Some(made);
    }
    let inp = inp.expect("at least one set-up");
    rep.set_median("setup_s", &setups);
    rep.set("matgen.generate_s", inp.generate_s);

    // A traced run first takes an untraced slice of the same loop: the
    // ratio of the two is the tracing overhead.
    let mut untraced = Samples::default();
    if cfg.traced {
        let mut off = Tracer::new(false, Instant::now());
        for job in 0..2 {
            run_job(&inp, job, cfg, &mut off, &mut rep, &mut untraced);
        }
    }
    let mut budget = Budget::new(if cfg.traced { 0.0 } else { cfg.seconds }, 3);
    let mut s = Samples::default();
    let mut last = None;
    let mut job = 0;
    while budget.more() {
        last = run_job(&inp, job, cfg, tr, &mut rep, &mut s).or(last);
        job += 1;
    }

    rep.set_median("job_s", &s.job);
    rep.set_median("analyze_s", &s.analyze);
    rep.set_median("factor_s", &s.factor);
    rep.set_median("refactor_s", &s.refactor);
    rep.set_median("solve_s", &s.solve);
    rep.set_median("core.solve8_s", &s.solve_many);
    // The driver's numbers take the best job, not the median one: the
    // reference machine is a shared VM whose speed drops by 10-20 % for
    // seconds at a time, and over repeated identical work the minimum is
    // the one statistic those episodes leave alone. Jobs per second count
    // only time inside the library; the residual checks between calls are
    // the benchmark's, not the user's.
    let job_ms: Vec<f64> = s.job.iter().map(|t| t * 1e3).collect();
    let jobs_per_s: Vec<f64> = s.job_total.iter().map(|t| 1.0 / t).collect();
    rep.set_best("op_ms", &job_ms);
    rep.set_best("ops_per_s", &jobs_per_s);
    if let Some(last) = &last {
        rep.set_recorded("ordering.factor_nnz", last.factor_nnz as f64);
    }
    if cfg.traced {
        rep.set(
            "trace_overhead_frac",
            median(&s.refactor) / median(&untraced.refactor),
        );
        if let Some(last) = last {
            layer_probes(&inp, &s, &last, tr, &mut rep);
        }
    }
    rep
}

/// The per-layer pass: each layer's public entry point timed on this
/// workload's matrix, from outside.
fn layer_probes(inp: &Inputs, s: &Samples, last: &LastJob, tr: &mut Tracer, rep: &mut Report) {
    let a = &inp.pool[0];
    let analyze_s = median(&s.analyze);
    let refactor_s = median(&s.refactor);

    // Ordering, alone. `analyze` runs the same call inside.
    let mut nd = Vec::new();
    let mut perm = None;
    for i in 0..3 {
        let (p, t) = tr.time("ordering.nd", None, i, || {
            order(a, OrderingMethod::NestedDissection)
        });
        nd.push(t.as_secs_f64());
        perm = Some(p);
    }
    let nd_s = median(&nd);
    rep.set_median("ordering.nd_s", &nd);
    rep.set("ordering.nd_share", nd_s / analyze_s);
    let perm = perm.expect("three orderings ran");
    let (_, t) = tr.time("sparse.permute", None, 0, || a.permute(&perm));
    rep.set("sparse.permute_s", t.as_secs_f64());
    // Minimum degree is the ROADMAP's 50x-slower suspect; one fixed,
    // small graph so the number means the same on both workloads.
    let g = grid3d(16, 16, 16, Stencil::Star7, 1, 1).to_graph();
    let (_, t) = tr.time("ordering.mindeg", None, 0, || min_degree(&g));
    rep.set("ordering.mindeg_s", t.as_secs_f64());

    // Symbolic stages as the handle reports them; what neither they nor
    // the ordering explain is printed, not hidden.
    let stage = |k: usize| median(&s.stages.iter().map(|st| st[k]).collect::<Vec<_>>());
    let names = [
        "symbolic.etree_s",
        "symbolic.colcount_s",
        "symbolic.merge_s",
        "symbolic.relind_s",
        "symbolic.value_map_s",
        "core.solve_plan_s",
    ];
    let mut staged = 0.0;
    for (k, name) in names.iter().enumerate() {
        rep.set(name, stage(k));
        staged += stage(k);
    }
    rep.set("symbolic.nsup", last.nsup as f64);
    rep.set("symbolic.unattributed_s", analyze_s - nd_s - staged);

    // Dense kernels: the engine's own trace, replayed call by call.
    if let Some(trace) = &last.trace {
        let replay = crate::dense::replay(trace, tr);
        let mut blas = 0.0;
        for (class, c) in crate::dense::CLASSES.iter().zip(&replay) {
            rep.set(&format!("dense.{class}_s"), c.seconds);
            rep.set(
                &format!("dense.{class}_gflops"),
                if c.seconds > 0.0 {
                    c.flops / c.seconds / 1e9
                } else {
                    0.0
                },
            );
            blas += c.seconds;
        }
        rep.set("dense.calls", trace.blas_calls() as f64);
        rep.set("ordering.flops", trace.total_flops());
        rep.set("core.blas_share", blas / refactor_s);
        // A residual: scatter, relative-index walks and loop overhead.
        rep.set("core.assembly_s", refactor_s - blas);
        let entries: usize = trace
            .ops
            .iter()
            .map(|op| match *op {
                TraceOp::Assemble { entries } => entries,
                _ => 0,
            })
            .sum();
        rep.set("core.assemble_entries", entries as f64);
    }
    rep.set("core.first_factor_extra_s", median(&s.factor) - refactor_s);
    for (name, gf) in crate::dense::fixed_shapes(tr) {
        rep.set(name, gf);
    }

    // The other CPU engines on the same matrix.
    for (name, span, method) in [
        ("core.rlb_refactor_s", "core.refactor.rlb", Method::RlbCpu),
        ("core.par_refactor_s", "core.refactor.par", Method::RlCpuPar),
    ] {
        let h = CholeskySolver::analyze(a, &opts(method));
        let Ok(mut f) = h.factor_with(a) else {
            rep.fail(format!("{name}: factor_with failed"));
            continue;
        };
        let mut t = Vec::new();
        for r in 0..3 {
            let (res, d) = tr.time(span, None, r, || {
                h.refactor(&mut f, &inp.pool[(r as usize + 1) % POOL])
            });
            rep.op(res.map_err(|e| format!("{name}: {e}")));
            t.push(d.as_secs_f64());
        }
        rep.set_median(name, &t);
    }

    // Solve path: what the handle picks by itself against serial sweeps.
    let mut h = CholeskySolver::analyze(a, &opts(Method::RlCpu));
    if let Ok(f) = h.factor_with(a) {
        let si = h.solve_info();
        rep.set(
            "core.solve_path",
            match (si.level_set, si.async_dispatch) {
                (false, _) => 0.0,
                (true, false) => 1.0,
                (true, true) => 2.0,
            },
        );
        let auto = time_solves(&h, &f, inp, "core.solve.auto", tr);
        h.set_solve_threads(1);
        let serial = time_solves(&h, &f, inp, "core.solve.serial", tr);
        rep.set_median("core.solve_auto_s", &auto);
        rep.set_median("core.solve_serial_s", &serial);
    } else {
        rep.fail("solve-path probe: factor_with failed".into());
    }
}

fn time_solves(
    h: &SymbolicCholesky,
    f: &rlchol_core::Factorization,
    inp: &Inputs,
    span: &'static str,
    tr: &mut Tracer,
) -> Vec<f64> {
    let mut ws = SolveWorkspace::new();
    let mut x = vec![0.0; h.n()];
    (0..6)
        .map(|i| {
            let (res, d) = tr.time(span, None, i, || {
                h.solve_into(f, &inp.rhs[i as usize % POOL], &mut x, &mut ws)
            });
            res.expect("dimensions match the handle");
            d.as_secs_f64()
        })
        // The first solve warms the workspace.
        .skip(1)
        .collect()
}
