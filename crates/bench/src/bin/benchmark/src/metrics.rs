//! The metric table and the per-run report.
//!
//! Every metric the benchmark can print is declared once in [`TABLE`]
//! with its unit, direction and — where the benchmark fixes one — the
//! bound by which it may worsen. `BENCHMARK.json` is generated from this
//! table (`--print-benchmark-json`) and a unit test keeps the two equal.

use std::collections::BTreeMap;

use crate::expected;
use crate::json::Json;
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen.
    /// `Some(0.0)` marks a count or simulated time that must repeat
    /// exactly.
    pub bound: Option<f64>,
    /// Reported by every workload with `--trace 0` and held to its bound
    /// by the driver. Everything else is printed with `--trace 1`: the
    /// workloads' own headline numbers, which `--compare` judges against
    /// their bounds, and the single layers' times, counts and ratios.
    pub end_to_end: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        end_to_end: true,
    }
}

const fn head(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(bound),
        end_to_end: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: None,
        end_to_end: false,
    }
}

/// A layer count that two runs of one commit must reproduce exactly.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: Some(0.0),
        end_to_end: false,
    }
}

use Better::{Higher, Lower};

pub const TABLE: &[Def] = &[
    // Reported by all four workloads.
    e2e("setup_s", "s", Lower, 0.25),
    e2e("op_ms", "ms", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    // cube32, plate300.
    head("job_s", "s", Lower, 0.10),
    head("analyze_s", "s", Lower, 0.10),
    head("factor_s", "s", Lower, 0.10),
    head("refactor_s", "s", Lower, 0.10),
    head("solve_s", "s", Lower, 0.10),
    // suite_gpu. Simulated seconds are model output, not wall time.
    head("sim_rl_s", "sim_s", Lower, 0.0),
    head("sim_rlb_s", "sim_s", Lower, 0.0),
    head("sim_pipe_s", "sim_s", Lower, 0.0),
    head("sim_speedup", "x", Higher, 0.0),
    head("sim_host_s", "s", Lower, 0.10),
    // serve_zipf.
    head("serve_rps", "1/s", Higher, 0.10),
    head("serve_p50_ms", "ms", Lower, 0.10),
    head("serve_p95_ms", "ms", Lower, 0.15),
    // Layers, named <module>.<metric>.
    layer("matgen.generate_s", "s", Lower),
    layer("sparse.permute_s", "s", Lower),
    layer("ordering.nd_s", "s", Lower),
    layer("ordering.nd_share", "ratio", Lower),
    exact("ordering.factor_nnz", "count", Lower),
    exact("ordering.flops", "count", Lower),
    layer("ordering.mindeg_s", "s", Lower),
    layer("symbolic.etree_s", "s", Lower),
    layer("symbolic.colcount_s", "s", Lower),
    layer("symbolic.merge_s", "s", Lower),
    layer("symbolic.relind_s", "s", Lower),
    layer("symbolic.value_map_s", "s", Lower),
    layer("core.solve_plan_s", "s", Lower),
    exact("symbolic.nsup", "count", Lower),
    layer("symbolic.unattributed_s", "s", Lower),
    layer("dense.potrf_s", "s", Lower),
    layer("dense.trsm_s", "s", Lower),
    layer("dense.syrk_s", "s", Lower),
    layer("dense.gemm_s", "s", Lower),
    layer("dense.potrf_gflops", "GF/s", Higher),
    layer("dense.trsm_gflops", "GF/s", Higher),
    layer("dense.syrk_gflops", "GF/s", Higher),
    layer("dense.gemm_gflops", "GF/s", Higher),
    exact("dense.calls", "count", Lower),
    layer("dense.gemm_nt_256_gflops", "GF/s", Higher),
    layer("dense.gemm_nt_1024_gflops", "GF/s", Higher),
    layer("dense.syrk_1024_gflops", "GF/s", Higher),
    layer("core.blas_share", "ratio", Higher),
    layer("core.assembly_s", "s", Lower),
    exact("core.assemble_entries", "count", Lower),
    layer("core.first_factor_extra_s", "s", Lower),
    layer("core.rlb_refactor_s", "s", Lower),
    layer("core.par_refactor_s", "s", Lower),
    layer("core.solve8_s", "s", Lower),
    layer("core.solve_serial_s", "s", Lower),
    layer("core.solve_auto_s", "s", Lower),
    layer("core.solve_path", "code", Lower),
    exact("gpu.rl.kernel_launches", "count", Lower),
    exact("gpu.rl.kernel_s", "sim_s", Lower),
    exact("gpu.rl.h2d_bytes", "bytes", Lower),
    exact("gpu.rl.d2h_bytes", "bytes", Lower),
    exact("gpu.rl.transfer_s", "sim_s", Lower),
    exact("gpu.rl.host_s", "sim_s", Lower),
    exact("gpu.rl.peak_bytes", "bytes", Lower),
    exact("gpu.rl.compute_util", "ratio", Higher),
    exact("gpu.rl.copy_util", "ratio", Higher),
    exact("gpu.rlb.kernel_launches", "count", Lower),
    exact("gpu.rlb.kernel_s", "sim_s", Lower),
    exact("gpu.rlb.h2d_bytes", "bytes", Lower),
    exact("gpu.rlb.d2h_bytes", "bytes", Lower),
    exact("gpu.rlb.transfer_s", "sim_s", Lower),
    exact("gpu.rlb.host_s", "sim_s", Lower),
    exact("gpu.rlb.peak_bytes", "bytes", Lower),
    exact("gpu.rlb.compute_util", "ratio", Higher),
    exact("gpu.rlb.copy_util", "ratio", Higher),
    exact("gpu.pipe.kernel_launches", "count", Lower),
    exact("gpu.pipe.kernel_s", "sim_s", Lower),
    exact("gpu.pipe.h2d_bytes", "bytes", Lower),
    exact("gpu.pipe.d2h_bytes", "bytes", Lower),
    exact("gpu.pipe.transfer_s", "sim_s", Lower),
    exact("gpu.pipe.host_s", "sim_s", Lower),
    exact("gpu.pipe.peak_bytes", "bytes", Lower),
    exact("gpu.pipe.compute_util", "ratio", Higher),
    exact("gpu.pipe.copy_util", "ratio", Higher),
    exact("core.sn_on_gpu", "count", Higher),
    exact("core.streams_used", "count", Higher),
    exact("perfmodel.cpu_best_s", "sim_s", Lower),
    layer("service.submit_p50_ms", "ms", Lower),
    layer("service.queue_wait_ms", "ms", Lower),
    layer("service.factor_ms", "ms", Lower),
    layer("service.solve_ms", "ms", Lower),
    layer("service.wire_overhead_ms", "ms", Lower),
    layer("service.wire_overhead_p95_ms", "ms", Lower),
    layer("service.hit_ms", "ms", Lower),
    layer("service.miss_ms", "ms", Lower),
    layer("service.fingerprint_s", "s", Lower),
    layer("service.request_bytes", "bytes", Lower),
    layer("service.cache_hit_ratio", "ratio", Higher),
    layer("service.shed", "count", Lower),
    layer("service.failed", "count", Lower),
    layer("service.net_frames", "count", Lower),
    layer("service.lanes_created", "count", Lower),
    layer("service.lanes_contended", "count", Lower),
    layer("service.gen_late_p95_ms", "ms", Lower),
    layer("trace_overhead_frac", "ratio", Lower),
];

pub fn def(name: &str) -> &'static Def {
    TABLE
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric `{name}` is not in the table"))
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cube32",
        why: "3-D grid, n=32768: dense kernels carry the job (numeric factorization > 60 %, 1024-column root past L2)",
    },
    Workload {
        name: "plate300",
        why: "2-D grid, n=90000, 10k tiny supernodes: ordering and symbolic analysis carry the job, numeric part is scatter-bound",
    },
    Workload {
        name: "suite_gpu",
        why: "the paper's experiment: five suite analogues on the simulated GPU engines; simulated seconds repeat exactly, host time is the simulator's",
    },
    Workload {
        name: "serve_zipf",
        why: "TCP service, 8 patterns under Zipf(1.1), all cache hits after warm-up: wire and front end carry the latency; closed and open loop",
    },
];

/// How long one driver run measures. The driver passes it back as
/// `--seconds`; it is also the default.
pub const RUN_SECONDS: u64 = 20;

/// One metric of one run: the value reported and the samples behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: Summary,
}

/// What one run of one workload produced.
pub struct Report {
    pub workload: &'static str,
    pub traced: bool,
    pub metrics: BTreeMap<&'static str, Measured>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the person reading stderr.
    pub failures: Vec<String>,
    /// Resolved knobs the program reported (lanes, queue depth, …).
    pub knobs: BTreeMap<&'static str, Json>,
}

impl Report {
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Report {
            workload,
            traced,
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            knobs: BTreeMap::new(),
        }
    }

    /// Records a number that was measured once.
    pub fn set(&mut self, name: &str, value: f64) {
        let samples = Summary::of(&[value]);
        self.metrics
            .insert(def(name).name, Measured { value, samples });
    }

    /// Records the median of `samples`; a layer that did no work records
    /// nothing.
    pub fn set_median(&mut self, name: &str, samples: &[f64]) {
        if samples.is_empty() {
            return;
        }
        let samples = Summary::of(samples);
        let value = samples.median;
        self.metrics
            .insert(def(name).name, Measured { value, samples });
    }

    /// Records the best of `samples` — the smallest where lower is better,
    /// the largest where higher is — and keeps them all, so the result
    /// file shows how far the repetitions of one run lay apart. For
    /// repetitions of identical work on a shared machine the best one is
    /// the steadiest estimate of the program's own cost: interference
    /// only ever adds time.
    pub fn set_best(&mut self, name: &str, samples: &[f64]) {
        if samples.is_empty() {
            return;
        }
        let d = def(name);
        let samples = Summary::of(samples);
        let value = match d.better {
            Better::Lower => samples.min,
            Better::Higher => samples.max,
        };
        self.metrics.insert(d.name, Measured { value, samples });
    }

    /// Records `value`, a statistic of the whole run over work that is not
    /// all alike (a latency percentile over a traffic mix), with the same
    /// statistic over consecutive `parts` of the run: their quartiles show
    /// how steady it was, which those of the raw samples would not.
    /// `parts` is not empty.
    pub fn set_with_parts(&mut self, name: &str, value: f64, parts: &[f64]) {
        let samples = Summary::of(parts);
        self.metrics
            .insert(def(name).name, Measured { value, samples });
    }

    /// Records a count or simulated time that `expected.rs` holds a value
    /// for, and fails the run when the two differ in any bit.
    pub fn set_recorded(&mut self, name: &str, value: f64) {
        let want = expected::recorded(self.workload, name);
        if value.to_bits() != want.to_bits() {
            self.fail(format!(
                "{name}: expected {want:?}, got {value:?} (recorded in src/expected.rs)"
            ));
        }
        self.set(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|m| m.value)
    }

    /// Counts one attempted operation; `Err` is a failed one.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.fail(msg);
        }
    }

    /// Counts a failed check that is not an operation of its own.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            eprintln!("FAILED [{}] {msg}", self.workload);
            self.failures.push(msg);
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The driver's result object: every end-to-end metric without
    /// tracing, every other metric with it. The driver wants a number for
    /// every per-layer metric from every workload, so a metric this
    /// workload never measures reads 0 here — and only here: the result
    /// file and the table list what was measured and nothing else.
    pub fn driver_line(&self) -> String {
        let metrics = TABLE
            .iter()
            .filter(|d| d.end_to_end != self.traced)
            .map(|d| {
                let value = self.get(d.name).unwrap_or(0.0);
                (
                    d.name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(d.unit))]),
                )
            });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The full record for the result file: only what was measured, each
    /// entry with its sample count, quartiles, unit, direction and bound.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, m)| {
            let d = def(name);
            (
                *name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(d.unit)),
                    ("better", Json::str(d.better.word())),
                    ("bound", d.bound.map_or(Json::Null, Json::Num)),
                    // The traced pass is too short to hold a bound.
                    ("end_to_end", Json::Bool(d.end_to_end && !self.traced)),
                    ("n", Json::Num(m.samples.n as f64)),
                    ("q1", Json::Num(m.samples.q1)),
                    ("median", Json::Num(m.samples.median)),
                    ("q3", Json::Num(m.samples.q3)),
                    ("min", Json::Num(m.samples.min)),
                    ("max", Json::Num(m.samples.max)),
                ]),
            )
        });
        Json::obj([
            ("workload", Json::str(self.workload)),
            ("traced", Json::Bool(self.traced)),
            ("ops_attempted", Json::Num(self.attempted as f64)),
            ("ops_failed", Json::Num(self.failed as f64)),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            (
                "knobs",
                Json::Obj(
                    self.knobs
                        .iter()
                        .map(|(k, v)| (k.to_string(), v.clone()))
                        .collect(),
                ),
            ),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The table a person reads, on stderr so the last stdout line stays
    /// the driver's.
    pub fn print_table(&self) {
        eprintln!(
            "-- {} ({}) ops {} failed {}",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed
        );
        for d in TABLE {
            if let Some(m) = self.metrics.get(d.name) {
                let s = &m.samples;
                let spread = if s.n > 1 {
                    format!("  n={} q1={:.6} q3={:.6}", s.n, s.q1, s.q3)
                } else {
                    String::new()
                };
                eprintln!("{:<30} {:>16.6} {:<6}{spread}", d.name, m.value, d.unit);
            }
        }
    }
}

/// `BENCHMARK.json`, generated so it cannot drift from [`TABLE`].
pub fn benchmark_json() -> Json {
    let entry = |d: &Def, with_bound: bool| {
        let mut pairs = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.word())),
        ];
        if with_bound {
            pairs.push(("bound", Json::Num(d.bound.expect("end-to-end bound"))));
        }
        Json::obj(pairs)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "crates/bench/src/bin/benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        (
            "paths",
            Json::Arr(vec![Json::str("crates/bench/src/bin/benchmark")]),
        ),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                TABLE
                    .iter()
                    .filter(|d| d.end_to_end)
                    .map(|d| entry(d, true))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                TABLE
                    .iter()
                    .filter(|d| !d.end_to_end)
                    .map(|d| entry(d, false))
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_meets_the_contract_limits() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().unwrap().is_ascii_alphanumeric()
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in TABLE {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{} unit {}", d.name, d.unit);
            assert!(seen.insert(d.name), "{} twice", d.name);
            if d.end_to_end {
                let b = d.bound.unwrap();
                assert!(b > 0.0 && b <= 0.25);
            }
        }
        for w in WORKLOADS {
            assert!(name_ok(w.name) && seen.insert(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let e2e = TABLE.iter().filter(|d| d.end_to_end).count();
        assert!((1..=16).contains(&e2e));
        assert!(TABLE.len() - e2e <= 128);
        let setup = def("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn committed_benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(Json::parse(&text).unwrap(), benchmark_json());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = Report::new("cube32", false);
        r.set("setup_s", 0.8127);
        r.set("job_s", 1.5);
        r.op(Ok(()));
        let v = Json::parse(&r.driver_line()).unwrap();
        let keys: Vec<_> = v.as_obj().unwrap().keys().cloned().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), 4);
        assert_eq!(m["setup_s"].get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m["setup_s"].get("unit").unwrap().as_str(), Some("s"));
        assert!(!m.contains_key("job_s"));

        let mut t = Report::new("cube32", true);
        t.set("job_s", 1.5);
        t.op(Err("residual".into()));
        let v = Json::parse(&t.driver_line()).unwrap();
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("failed").unwrap().as_f64(), Some(1.0));
        let m = v.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(m.len(), TABLE.len() - 4);
        assert_eq!(m["job_s"].get("value").unwrap().as_f64(), Some(1.5));
        assert_eq!(
            m["gpu.rl.kernel_s"].get("value").unwrap().as_f64(),
            Some(0.0)
        );
        // Only the driver's line pads: the result file holds what was
        // measured.
        let file = t.to_json();
        let measured = file.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(measured.keys().collect::<Vec<_>>(), ["job_s"]);
    }

    #[test]
    fn the_best_sample_follows_the_metric_direction_and_keeps_the_rest() {
        let mut r = Report::new("cube32", false);
        r.set_best("op_ms", &[700.0, 650.0, 900.0]);
        r.set_best("ops_per_s", &[0.5, 0.6, 0.4]);
        assert_eq!(r.get("op_ms"), Some(650.0));
        assert_eq!(r.get("ops_per_s"), Some(0.6));
        let m = r.metrics["op_ms"].samples;
        assert_eq!((m.n, m.q1, m.median, m.q3), (3, 675.0, 700.0, 800.0));
    }

    #[test]
    fn a_recorded_value_that_drifts_fails_the_run() {
        let mut r = Report::new("cube32", true);
        r.set_recorded("ordering.factor_nnz", 6_481_534.0);
        assert!(r.correct());
        r.set_recorded("ordering.factor_nnz", 6_481_535.0);
        assert_eq!(r.failed, 1);
        assert!(
            r.failures[0].contains("expected 6481534.0, got 6481535.0"),
            "{}",
            r.failures[0]
        );
        // The last bit counts.
        let mut s = Report::new("suite_gpu", false);
        let want = expected::recorded("suite_gpu", "sim_rl_s");
        s.set_recorded("sim_rl_s", f64::from_bits(want.to_bits() + 1));
        assert!(!s.correct());
    }
}
