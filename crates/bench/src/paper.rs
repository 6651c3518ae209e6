//! The paper's reproduction as data: every number the `paper` bin prints
//! and `BENCH_paper.json` pins.
//!
//! [`generate`] prepares each suite matrix once and runs everything the
//! paper reports on it — Table I (`RL_G`), Table II (`RLB_G` v2), the
//! v1/v2 comparison, the GPU-only runs (threshold 0) and the CPU
//! baselines behind Figure 3 — plus, on three representative matrices,
//! the threshold sweep with the copy-back-overlap ablation and the
//! merge × partition-refinement ablation; the stream-pair sweep of the
//! pipelined engines runs on a 20³ grid. Every section is a list of
//! [`Row`]s, which the file and the terminal tables are both rendered
//! from. [`Artifact::assert_claims`] turns the paper's shape claims into
//! assertions, and [`Artifact::to_json`] renders the file: one row per
//! line, shortest round-trip `f64`, simulated and structural values
//! (and the paper's published columns) only — no wall clock, no host
//! stamp — so it is byte-identical on any host.

use rlchol_core::engine::{GpuOptions, Method, RetireMode};
use rlchol_core::gpu_rl::offload_set;
use rlchol_core::json::JsonObj;
use rlchol_core::EngineRun;
use rlchol_gpu::StreamRole;
use rlchol_matgen::suite::{SuiteConfig, SuiteEntry};
use rlchol_matgen::{grid3d, paper_suite, Stencil};
use rlchol_report::{PerformanceProfile, Table};
use rlchol_symbolic::blocks::total_blocks;
use rlchol_symbolic::SymbolicOptions;

use crate::{best_cpu_scaled, gpu_options, prepare, run_cpu, run_gpu, sim_seconds, PreparedMatrix};

/// Small / medium / large representatives for the two ablations.
const PICKS: [&str; 3] = ["CurlCurl_2", "Serena", "Queen_4147"];
/// Offload thresholds swept on [`PICKS`] (the suite's are 12 000 for RL
/// and 45 000 for RLB; CPU-only is the matrix row's `best_cpu_s`).
const THRESHOLDS: [usize; 7] = [0, 6_000, 12_000, 24_000, 30_000, 60_000, 120_000];
/// Figure 3's solvers with the matrix-row column each is timed by
/// (`RLB_G` is the second version, as in the paper).
pub const PROFILE_SOLVERS: [(&str, &str); 4] = [
    ("RL_C", "rl_c_s"),
    ("RLB_C", "rlb_c_s"),
    ("RL_G", "rl_g_s"),
    ("RLB_G", "rlb_g_v2_s"),
];
/// The τ at which the file records Figure 3's ordinates.
const PROFILE_TAUS: [f64; 6] = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0];
/// Stream-pair counts swept on the pipelined engines.
const STREAM_SWEEP: [usize; 4] = [1, 2, 4, 8];
/// Pinned lookahead windows swept at the widest stream count; 0 is the
/// adaptive controller.
const LOOKAHEADS: [usize; 5] = [0, 4, 8, 16, 32];
/// Edge of the grid the stream sweep factors.
const STREAMS_GRID: usize = 20;

/// One value of a [`Row`]. `Null` is a device out-of-memory, the only
/// failure that is data (`null` in the file, "OOM" in a table).
#[derive(Debug)]
pub enum Cell {
    Str(String),
    Int(u64),
    Num(f64),
    Flag(bool),
    Null,
}

/// An ordered list of named cells: one line of the file, one table row.
#[derive(Debug, Default)]
pub struct Row(Vec<(String, Cell)>);

impl Row {
    fn with(mut self, key: &str, cell: Cell) -> Self {
        self.0.push((key.to_string(), cell));
        self
    }
    fn str(self, key: &str, v: &str) -> Self {
        self.with(key, Cell::Str(v.to_string()))
    }
    fn int(self, key: &str, v: usize) -> Self {
        self.with(key, Cell::Int(v as u64))
    }
    fn num(self, key: &str, v: f64) -> Self {
        self.with(key, Cell::Num(v))
    }
    fn opt_int(self, key: &str, v: Option<usize>) -> Self {
        self.with(key, v.map_or(Cell::Null, |v| Cell::Int(v as u64)))
    }
    fn opt(self, key: &str, v: Option<f64>) -> Self {
        self.with(key, v.map_or(Cell::Null, Cell::Num))
    }

    fn cell(&self, key: &str) -> &Cell {
        let found = self.0.iter().find(|(k, _)| k == key);
        &found.unwrap_or_else(|| panic!("row has no `{key}`")).1
    }

    /// The number under `key`; `None` when the run was out of memory.
    pub fn get(&self, key: &str) -> Option<f64> {
        match self.cell(key) {
            Cell::Num(v) => Some(*v),
            Cell::Int(v) => Some(*v as f64),
            Cell::Null => None,
            other => panic!("`{key}` is not a number: {other:?}"),
        }
    }

    /// The string under `key`.
    pub fn name(&self, key: &str) -> &str {
        match self.cell(key) {
            Cell::Str(s) => s,
            other => panic!("`{key}` is not a string: {other:?}"),
        }
    }

    /// The row as one line of `BENCH_paper.json`.
    pub fn json(&self) -> String {
        let mut o = JsonObj::new();
        for (k, cell) in &self.0 {
            o = match cell {
                Cell::Str(s) => o.str(k, s),
                Cell::Int(v) => o.u64(k, *v),
                Cell::Num(v) => o.f64(k, *v),
                Cell::Flag(b) => o.bool(k, *b),
                Cell::Null => o.raw(k, "null"),
            };
        }
        o.finish()
    }

    /// `key`'s cell as table text: seconds to four decimals, other
    /// floats to two.
    fn text(&self, key: &str) -> String {
        match self.cell(key) {
            Cell::Str(s) => s.clone(),
            Cell::Int(v) => v.to_string(),
            Cell::Flag(b) => if *b { "on" } else { "off" }.to_string(),
            Cell::Null => "OOM".to_string(),
            Cell::Num(v) if key.ends_with("_s") => format!("{v:.4}"),
            Cell::Num(v) => format!("{v:.2}"),
        }
    }
}

/// `rows` as a text table over the space-separated `columns` (all of
/// them when empty), headed by the file's own keys.
pub fn render(rows: &[Row], columns: &str) -> String {
    let Some(first) = rows.first() else {
        return "(none)\n".to_string();
    };
    let mut columns: Vec<&str> = columns.split_whitespace().collect();
    if columns.is_empty() {
        columns = first.0.iter().map(|(k, _)| k.as_str()).collect();
    }
    let mut t = Table::new(columns.clone());
    for r in rows {
        t.row(columns.iter().map(|c| r.text(c)).collect());
    }
    t.render()
}

/// Runs the five engines of the paper on one prepared suite matrix, at
/// the suite thresholds and at threshold 0. Both `paper` and the tier-1
/// pin (`tests/paper_artifact.rs`) emit matrix rows through here.
pub fn matrix_row(entry: &SuiteEntry, p: &PreparedMatrix, cfg: &SuiteConfig) -> Row {
    let sym = &p.sym;
    let count = |thr: usize| offload_set(sym, thr).iter().filter(|&&b| b).count();
    let max_panel = (0..sym.nsup())
        .map(|s| sym.sn_storage(s))
        .max()
        .unwrap_or(0);
    let max_upd = sym.max_update_matrix_entries();
    let rl_c_s = best_cpu_scaled(&run_cpu(p, Method::RlCpu), cfg);
    let rlb_c_s = best_cpu_scaled(&run_cpu(p, Method::RlbCpu), cfg);
    let best_cpu_s = rl_c_s.min(rlb_c_s);
    // (seconds, device→host copies) at a threshold; `None` = OOM.
    let gpu = |method: Method, thr: usize| {
        run_gpu(p, method, &gpu_options(cfg, thr)).map(|run| {
            assert_eq!(run.info.sn_on_gpu, count(thr), "{}", method.label());
            let d2h = run.info.gpu.as_ref().expect("device counters").d2h_count;
            (sim_seconds(&run), d2h as usize)
        })
    };
    let rl_g = gpu(Method::RlGpu, cfg.rl_threshold);
    let v1 = gpu(Method::RlbGpuV1, cfg.rlb_threshold);
    let v2 = gpu(Method::RlbGpuV2, cfg.rlb_threshold);
    let paper = &entry.paper;
    Row::default()
        .str("matrix", p.name)
        .int("n", sym.n)
        .int("nnz_a", p.a_fact.nnz_lower())
        .int("supernodes", sym.nsup())
        .int("factor_nnz", sym.nnz as usize)
        .int("flops", sym.flops as usize)
        .int("max_update_entries", max_upd)
        // RL's device footprint: largest panel + largest update matrix.
        .int("rl_device_bytes", (max_panel + max_upd) * 8)
        .int("sn_on_gpu_rl", count(cfg.rl_threshold))
        .int("sn_on_gpu_rlb", count(cfg.rlb_threshold))
        .num("rl_c_s", rl_c_s)
        .num("rlb_c_s", rlb_c_s)
        .num("best_cpu_s", best_cpu_s)
        .opt("rl_g_s", rl_g.map(|r| r.0))
        .opt("rl_g_speedup", rl_g.map(|r| best_cpu_s / r.0))
        .opt("rlb_g_v1_s", v1.map(|r| r.0))
        .opt("rlb_g_v2_s", v2.map(|r| r.0))
        .opt("rlb_g_speedup", v2.map(|r| best_cpu_s / r.0))
        .opt_int("rlb_g_v1_d2h_ops", v1.map(|r| r.1))
        .opt_int("rlb_g_v2_d2h_ops", v2.map(|r| r.1))
        .opt("gpu_only_rl_g_s", gpu(Method::RlGpu, 0).map(|r| r.0))
        .opt("gpu_only_rlb_g_v1_s", gpu(Method::RlbGpuV1, 0).map(|r| r.0))
        .opt("gpu_only_rlb_g_v2_s", gpu(Method::RlbGpuV2, 0).map(|r| r.0))
        // The paper's published Table I / II columns, for reading the
        // shape side by side (`null`: RL could not factor nlpkkt120).
        .opt("paper_rl_g_s", paper.rl.map(|r| r.0))
        .opt("paper_rl_g_speedup", paper.rl.map(|r| r.1))
        .opt_int("paper_rl_g_on_gpu", paper.rl.map(|r| r.2))
        .num("paper_rlb_g_s", paper.rlb.0)
        .num("paper_rlb_g_speedup", paper.rlb.1)
        .int("paper_rlb_g_on_gpu", paper.rlb.2)
        .int("paper_supernodes", paper.total_supernodes)
}

/// Simulated seconds against the offload threshold for `RL_G` and
/// `RLB_G`, and `RL_G` at the suite threshold with and without the
/// asynchronous copy-back overlapping host work.
fn threshold_sweep(p: &PreparedMatrix, cfg: &SuiteConfig) -> (Vec<Row>, Row) {
    let mut rows = Vec::new();
    for method in [Method::RlGpu, Method::RlbGpuV2] {
        for threshold in THRESHOLDS {
            let run = run_gpu(p, method, &gpu_options(cfg, threshold));
            rows.push(
                Row::default()
                    .str("matrix", p.name)
                    .str("method", method.label())
                    .int("threshold", threshold)
                    .opt("s", run.as_ref().map(sim_seconds)),
            );
        }
    }
    let overlap = |overlap: bool| {
        let opts = GpuOptions {
            overlap,
            ..gpu_options(cfg, cfg.rl_threshold)
        };
        run_gpu(p, Method::RlGpu, &opts).as_ref().map(sim_seconds)
    };
    let overlap = Row::default()
        .str("matrix", p.name)
        .opt("rl_g_overlap_on_s", overlap(true))
        .opt("rl_g_overlap_off_s", overlap(false));
    (rows, overlap)
}

/// Supernode merging × partition refinement (§IV-A) under one ordering.
fn merge_pr_ablation(p: &PreparedMatrix, cfg: &SuiteConfig) -> Vec<Row> {
    [(false, false), (false, true), (true, false), (true, true)]
        .into_iter()
        .map(|(merge, pr)| {
            let q = p.reanalyzed(&SymbolicOptions {
                merge,
                partition_refine: pr,
                ..SymbolicOptions::default()
            });
            let rlb = run_cpu(&q, Method::RlbCpu);
            let opts = gpu_options(cfg, cfg.rlb_threshold);
            let gpu = run_gpu(&q, Method::RlbGpuV2, &opts);
            Row::default()
                .str("matrix", p.name)
                .with("merge", Cell::Flag(merge))
                .with("pr", Cell::Flag(pr))
                .int("supernodes", q.sym.nsup())
                .int("factor_nnz", q.sym.nnz as usize)
                .int("blocks", total_blocks(&q.sym.rows, &q.sym.sn))
                .int("rlb_blas_calls", rlb.blas_calls())
                .num("rlb_c_s", best_cpu_scaled(&rlb, cfg))
                .opt("rlb_g_s", gpu.as_ref().map(sim_seconds))
        })
        .collect()
}

/// Stream count × retirement discipline of the pipelined engines on a
/// nested-dissection-ordered `k³` grid (so the elimination tree has
/// breadth to pipeline over; threshold 0, default machine model), and
/// the pinned-lookahead sweep at the widest count. Returns the matrix
/// row and the two tables; asserts the two disciplines produce
/// bitwise-equal factors at every stream count.
fn streams_sweep(k: usize) -> (Row, Vec<Row>, Vec<Row>) {
    let p = prepare("grid3d", grid3d(k, k, k, Stencil::Star7, 1, 33));
    let run = |method: Method, opts: GpuOptions| {
        let run = run_gpu(&p, method, &opts).expect("the grid fits the default device");
        assert_eq!(run.info.streams_used, opts.streams, "no pair shed");
        assert_eq!(run.info.retire, opts.retire);
        run
    };
    // Mean utilization of the streams tagged `role`.
    let util = |run: &EngineRun, role: StreamRole| {
        let stats = run.info.gpu.as_ref().expect("device counters");
        let per = stats.role_utilization(sim_seconds(run), role);
        per.iter().sum::<f64>() / per.len().max(1) as f64
    };
    let opts = |streams: usize, retire: RetireMode| {
        GpuOptions::with_threshold(0)
            .with_streams(streams)
            .with_retire(retire)
    };
    let mut rl_base = f64::NAN;
    let sweep = STREAM_SWEEP
        .into_iter()
        .map(|streams| {
            let rl_in = run(Method::RlGpuPipe, opts(streams, RetireMode::InOrder));
            let rl_ooo = run(Method::RlGpuPipe, opts(streams, RetireMode::Ooo));
            let rlb_in = run(Method::RlbGpuPipe, opts(streams, RetireMode::InOrder));
            let rlb_ooo = run(Method::RlbGpuPipe, opts(streams, RetireMode::Ooo));
            assert_eq!(
                rl_in.factor, rl_ooo.factor,
                "retirement modes must agree bitwise (RL, {streams} streams)"
            );
            assert_eq!(
                rlb_in.factor, rlb_ooo.factor,
                "retirement modes must agree bitwise (RLB, {streams} streams)"
            );
            if streams == 1 {
                rl_base = sim_seconds(&rl_in);
            }
            Row::default()
                .int("streams", streams)
                .num("rl_inorder_s", sim_seconds(&rl_in))
                .num("rl_ooo_s", sim_seconds(&rl_ooo))
                .num("rlb_inorder_s", sim_seconds(&rlb_in))
                .num("rlb_ooo_s", sim_seconds(&rlb_ooo))
                .num("rl_inorder_speedup", rl_base / sim_seconds(&rl_in))
                .num("rl_ooo_speedup", rl_base / sim_seconds(&rl_ooo))
                .int("rl_ooo_lookahead", rl_ooo.info.lookahead)
                .num("rl_ooo_compute_util", util(&rl_ooo, StreamRole::Compute))
                .num("rl_ooo_copy_util", util(&rl_ooo, StreamRole::Copy))
                .num("rl_inorder_compute_util", util(&rl_in, StreamRole::Compute))
                .num("rl_inorder_copy_util", util(&rl_in, StreamRole::Copy))
                .num("rlb_ooo_compute_util", util(&rlb_ooo, StreamRole::Compute))
                .num("rlb_ooo_copy_util", util(&rlb_ooo, StreamRole::Copy))
        })
        .collect();
    let wide = STREAM_SWEEP[STREAM_SWEEP.len() - 1];
    let lookahead = LOOKAHEADS
        .into_iter()
        .map(|lookahead| {
            let opts = opts(wide, RetireMode::Ooo).with_lookahead(lookahead);
            let run = run(Method::RlGpuPipe, opts);
            Row::default()
                .int("lookahead", lookahead)
                .num("rl_ooo_s", sim_seconds(&run))
                .int("final_window", run.info.lookahead)
        })
        .collect();
    let matrix = Row::default()
        .str("matrix", &format!("grid3d({k}, {k}, {k}, Star7)"))
        .int("n", p.sym.n)
        .int("supernodes", p.sym.nsup())
        .int("factor_nnz", p.sym.nnz as usize)
        .int("flops", p.sym.flops as usize)
        .int("threshold", 0)
        .int("lookahead_sweep_streams", wide);
    (matrix, sweep, lookahead)
}

/// One full reproduction run: named sections of rows, in file order.
#[derive(Debug)]
pub struct Artifact {
    cfg: SuiteConfig,
    sections: Vec<(&'static str, Vec<Row>)>,
}

/// Runs everything. Each suite matrix is generated, ordered and analyzed
/// once and dropped before the next (progress goes to stderr).
pub fn generate() -> Artifact {
    let cfg = SuiteConfig::default();
    let suite = Row::default()
        .int("rl_threshold", cfg.rl_threshold)
        .int("rlb_threshold", cfg.rlb_threshold)
        .int("gpu_capacity_bytes", cfg.gpu_capacity_bytes as usize)
        .int("gpu_host_threads", cfg.gpu_host_threads)
        .num("machine_scale", cfg.machine_scale);
    let (mut matrices, mut sweep, mut overlap, mut merge_pr) = (vec![], vec![], vec![], vec![]);
    for entry in paper_suite() {
        let p = prepare(entry.name, entry.generate());
        matrices.push(matrix_row(&entry, &p, &cfg));
        if PICKS.contains(&p.name) {
            let (points, overlap_row) = threshold_sweep(&p, &cfg);
            sweep.extend(points);
            overlap.push(overlap_row);
            merge_pr.extend(merge_pr_ablation(&p, &cfg));
        }
        eprintln!("done {}", p.name);
    }
    let (streams_matrix, streams, lookahead) = streams_sweep(STREAMS_GRID);
    let mut art = Artifact {
        cfg,
        sections: vec![
            ("suite", vec![suite]),
            ("matrices", matrices),
            ("threshold_sweep", sweep),
            ("overlap", overlap),
            ("merge_pr", merge_pr),
            ("streams_matrix", vec![streams_matrix]),
            ("streams", streams),
            ("lookahead_sweep", lookahead),
        ],
    };
    let profile = art.profile();
    let ordinates = PROFILE_SOLVERS.iter().enumerate().map(|(s, (solver, _))| {
        PROFILE_TAUS
            .iter()
            .fold(Row::default().str("solver", solver), |row, &tau| {
                row.num(&format!("rho_{tau}"), profile.rho(s, tau))
            })
    });
    art.sections.push(("profile", ordinates.collect()));
    art.sections.push(("shape_gaps", art.shape_gaps()));
    art
}

impl Artifact {
    /// The rows of section `name`.
    pub fn section(&self, name: &str) -> &[Row] {
        let found = self.sections.iter().find(|(n, _)| *n == name);
        &found.unwrap_or_else(|| panic!("no section `{name}`")).1
    }

    /// Figure 3: the Dolan–Moré profile of [`PROFILE_SOLVERS`] over the
    /// suite.
    pub fn profile(&self) -> PerformanceProfile {
        let solvers: Vec<&str> = PROFILE_SOLVERS.iter().map(|s| s.0).collect();
        let mut profile = PerformanceProfile::new(solvers);
        for r in self.section("matrices") {
            profile.add_problem(PROFILE_SOLVERS.iter().map(|s| r.get(s.1)).collect());
        }
        profile
    }

    /// Where the reproduction's shape departs from the paper's: `RLB_G`
    /// speed-ups below 1 (paper: ≥ 1.09 on every matrix). Computed, not
    /// asserted — input for the device-model work.
    fn shape_gaps(&self) -> Vec<Row> {
        self.section("matrices")
            .iter()
            .filter_map(|r| {
                let speedup = r.get("rlb_g_speedup").filter(|&s| s < 1.0)?;
                let row = Row::default().str("matrix", r.name("matrix"));
                Some(
                    row.num("rlb_g_speedup", speedup)
                        .opt("paper_rlb_g_speedup", r.get("paper_rlb_g_speedup")),
                )
            })
            .collect()
    }

    /// Threshold at which `method`'s sweep on `matrix` is fastest.
    fn sweep_argmin(&self, matrix: &str, method: Method) -> usize {
        self.section("threshold_sweep")
            .iter()
            .filter(|r| r.name("matrix") == matrix && r.name("method") == method.label())
            .filter_map(|r| Some((r.get("s")?, r.get("threshold")? as usize)))
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .unwrap_or_else(|| panic!("{matrix}: no {} sweep point fits", method.label()))
            .1
    }

    /// The paper's shape claims that hold on the simulated device, as
    /// assertions (the stream sweep asserted bitwise factor equality when
    /// it ran).
    pub fn assert_claims(&self) {
        let matrices = self.section("matrices");
        assert_eq!(matrices.len(), 21, "the suite has 21 matrices");
        let oom = |key: &str| -> Vec<&str> {
            let failed = matrices.iter().filter(|r| r.get(key).is_none());
            failed.map(|r| r.name("matrix")).collect()
        };
        // Table I's blank row, and the reason RLB has a second version.
        assert_eq!(oom("rl_g_s"), ["nlpkkt120"], "RL_G out of memory");
        assert_eq!(oom("rlb_g_v1_s"), ["nlpkkt120"], "RLB_G v1 out of memory");
        let v2_oom = oom("rlb_g_v2_s");
        assert!(v2_oom.is_empty(), "RLB_G v2 factors all 21: {v2_oom:?}");
        for r in matrices {
            let name = r.name("matrix");
            if let Some(s) = r.get("rl_g_speedup") {
                assert!(s > 1.0, "{name}: RL_G speed-up {s} over best CPU");
            }
            if let (Some(rl), Some(rlb)) = (r.get("rl_g_s"), r.get("rlb_g_v2_s")) {
                assert!(rl <= rlb, "{name}: RL_G slower than RLB_G");
            }
        }
        // The suite thresholds sit at the sweep's knee.
        for matrix in PICKS {
            assert_eq!(
                self.sweep_argmin(matrix, Method::RlGpu),
                self.cfg.rl_threshold,
                "{matrix}: RL_G sweep minimum"
            );
            let rlb = self.sweep_argmin(matrix, Method::RlbGpuV2);
            assert!(
                rlb == 30_000 || rlb == 60_000,
                "{matrix}: RLB_G sweep minimum at {rlb} does not bracket {}",
                self.cfg.rlb_threshold
            );
        }
        // `None < Some(_)`: an overlap run that did not fit fails here too.
        for r in self.section("overlap") {
            assert!(
                r.get("rl_g_overlap_on_s").is_some()
                    && r.get("rl_g_overlap_off_s") > r.get("rl_g_overlap_on_s"),
                "{}: overlap-off not slower",
                r.name("matrix")
            );
        }
        let wide = self.section("streams").last().expect("stream sweep ran");
        assert!(
            wide.get("rl_ooo_s") < wide.get("rl_inorder_s")
                && wide.get("rlb_ooo_s") < wide.get("rlb_inorder_s"),
            "out-of-order retirement must beat in-order at the widest stream count"
        );
    }

    /// Renders `BENCH_paper.json`: `"section":[` … `]` with one row per
    /// line.
    pub fn to_json(&self) -> String {
        let sections: Vec<String> = std::iter::once("\"schema\":\"rlchol-paper/1\"".to_string())
            .chain(self.sections.iter().map(|(name, rows)| {
                let rows: Vec<String> = rows.iter().map(Row::json).collect();
                format!("\"{name}\":[\n{}\n]", rows.join(",\n"))
            }))
            .collect();
        format!("{{\n{}\n}}\n", sections.join(",\n"))
    }
}
