//! `--compare a.json b.json`: is `b` no worse than `a`?
//!
//! One row per (workload, pass, metric) that carries a bound. A metric
//! whose repetitions within one run lie further apart than its bound, in
//! either file, cannot be resolved by two runs and is reported as such
//! rather than as unchanged. A metric measured once per run (`peak_rss_mb`,
//! `serve_rps`, the set-up of `suite_gpu`) has no spread to show and is
//! judged on its two values alone. Counts and simulated times (bound 0)
//! must be identical.
//!
//! The exit status follows the end-to-end metrics, the exact ones and
//! `ops_failed`. The workloads' headline medians are judged and printed
//! the same way but do not decide it: on a shared machine they move by
//! more than their bound between two runs of one commit.

use std::path::Path;

use crate::json::Json;
use crate::metrics::RUN_SECONDS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    /// A count or simulated time that differs, in the better direction.
    Changed,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Changed => "changed",
        }
    }
}

/// One metric as a result file records it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub lower_is_better: bool,
    pub bound: f64,
    /// Whether a `worse` verdict fails the comparison.
    pub gating: bool,
}

impl Entry {
    /// How far apart the repetitions of one run lay: the distance
    /// between their quartiles as a share of the reported value.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.value.abs()
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when it
/// is better).
pub fn worsening(a: &Entry, b: &Entry) -> f64 {
    let change = (b.value - a.value) / a.value.abs();
    if a.lower_is_better {
        change
    } else {
        -change
    }
}

pub fn verdict(a: &Entry, b: &Entry) -> Verdict {
    if a.bound == 0.0 {
        return if a.value.to_bits() == b.value.to_bits() {
            Verdict::Ok
        } else if worsening(a, b) > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Changed
        };
    }
    if a.spread().max(b.spread()) > a.bound {
        Verdict::Unresolved
    } else if worsening(a, b) > a.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Two files compare only when taken the same way: full-length runs, the
/// same seed, the same number of processors.
pub fn comparable(a: &Json, b: &Json) -> Result<(), String> {
    let field = |file: &Json, key: &str| {
        file.get("envelope")
            .and_then(|e| e.get(key))
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("envelope has no `{key}`"))
    };
    for key in ["seed", "nproc", "seconds"] {
        let (x, y) = (field(a, key)?, field(b, key)?);
        if x != y {
            return Err(format!("refusing to compare: {key} differs ({x} vs {y})"));
        }
    }
    let seconds = field(a, "seconds")?;
    if seconds < RUN_SECONDS as f64 {
        return Err(format!(
            "refusing to compare: runs of {seconds} s are smoke runs (full length is {RUN_SECONDS} s)"
        ));
    }
    Ok(())
}

fn entry(metric: &Json) -> Option<Entry> {
    let num = |key| metric.get(key).and_then(Json::as_f64);
    Some(Entry {
        value: num("value")?,
        q1: num("q1")?,
        q3: num("q3")?,
        lower_is_better: metric.get("better")?.as_str()? == "lower",
        bound: num("bound")?,
        gating: metric.get("end_to_end")?.as_bool()? || num("bound")? == 0.0,
    })
}

fn result_key(result: &Json) -> Option<(String, bool)> {
    Some((
        result.get("workload")?.as_str()?.to_string(),
        result.get("traced")?.as_bool()?,
    ))
}

/// Prints the table; `Ok(true)` when no gating row is `worse`.
pub fn run(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    comparable(&a, &b)?;
    let results = |file: &Json| match file.get("results") {
        Some(Json::Arr(items)) => Ok(items.clone()),
        _ => Err("no `results` array".to_string()),
    };
    let (ra, rb) = (results(&a)?, results(&b)?);
    println!(
        "{:<11} {:<8} {:<24} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict",
        "workload", "pass", "metric", "a", "b", "change", "bound", "spread"
    );
    let mut counts = [0usize; 4];
    let mut gate_failed = false;
    for res_a in &ra {
        let Some(key) = result_key(res_a) else {
            continue;
        };
        let Some(res_b) = rb.iter().find(|r| result_key(r).as_ref() == Some(&key)) else {
            println!("{:<11} missing from {}", key.0, b_path.display());
            gate_failed = true;
            continue;
        };
        let failed = |r: &Json| r.get("ops_failed").and_then(Json::as_f64).unwrap_or(0.0);
        if failed(res_b) > failed(res_a) {
            println!(
                "{:<11} ops_failed rose from {} to {}",
                key.0,
                failed(res_a),
                failed(res_b)
            );
            gate_failed = true;
        }
        let metrics = |r: &Json| r.get("metrics").and_then(Json::as_obj).cloned();
        let (Some(ma), Some(mb)) = (metrics(res_a), metrics(res_b)) else {
            continue;
        };
        for (name, metric_a) in &ma {
            let (Some(ea), Some(eb)) = (entry(metric_a), mb.get(name).and_then(entry)) else {
                continue;
            };
            let v = verdict(&ea, &eb);
            counts[v as usize] += 1;
            gate_failed |= ea.gating && v == Verdict::Worse;
            println!(
                "{:<11} {:<8} {:<24} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}% {:>7.1}%  {}{}",
                key.0,
                if key.1 { "traced" } else { "untraced" },
                name,
                ea.value,
                eb.value,
                100.0 * (eb.value - ea.value) / ea.value.abs(),
                100.0 * ea.bound,
                100.0 * ea.spread().max(eb.spread()),
                v.word(),
                if ea.gating { "" } else { " (informs)" }
            );
        }
    }
    println!(
        "{} ok, {} worse, {} unresolved, {} changed",
        counts[0], counts[1], counts[2], counts[3]
    );
    Ok(!gate_failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(value: f64, q1: f64, q3: f64, lower: bool, bound: f64) -> Entry {
        Entry {
            value,
            q1,
            q3,
            lower_is_better: lower,
            bound,
            gating: true,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = e(100.0, 99.0, 101.0, true, 0.10);
        assert_eq!(
            verdict(&base, &e(109.0, 108.0, 110.0, true, 0.10)),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &e(111.0, 110.0, 112.0, true, 0.10)),
            Verdict::Worse
        );
        // Faster is never worse.
        assert_eq!(
            verdict(&base, &e(50.0, 49.0, 51.0, true, 0.10)),
            Verdict::Ok
        );
        // Higher is better: a drop of more than the bound is worse.
        let rps = e(66.0, 65.5, 66.5, false, 0.10);
        assert_eq!(
            verdict(&rps, &e(58.0, 57.5, 58.5, false, 0.10)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&rps, &e(80.0, 79.5, 80.5, false, 0.10)),
            Verdict::Ok
        );
        // A spread wider than the bound, in either file, resolves nothing.
        assert_eq!(
            verdict(&base, &e(100.0, 90.0, 110.0, true, 0.10)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(
                &e(100.0, 90.0, 110.0, true, 0.10),
                &e(300.0, 299.0, 301.0, true, 0.10)
            ),
            Verdict::Unresolved
        );
        // The value may be the best repetition, outside its own quartiles:
        // the spread is still theirs.
        assert_eq!(
            verdict(&base, &e(100.0, 104.0, 130.0, true, 0.10)),
            Verdict::Unresolved
        );
        // One sample per run: nothing to call unresolved.
        assert_eq!(
            verdict(&base, &e(120.0, 120.0, 120.0, true, 0.10)),
            Verdict::Worse
        );
    }

    #[test]
    fn exact_metrics_must_match_to_the_bit() {
        let a = e(0.1 + 0.2, 0.3, 0.3, true, 0.0);
        assert_eq!(verdict(&a, &e(0.1 + 0.2, 0.3, 0.3, true, 0.0)), Verdict::Ok);
        assert_eq!(verdict(&a, &e(0.3, 0.3, 0.3, true, 0.0)), Verdict::Changed);
        assert_eq!(verdict(&a, &e(0.31, 0.3, 0.3, true, 0.0)), Verdict::Worse);
    }

    fn file(seed: f64, nproc: f64, seconds: f64) -> Json {
        Json::obj([(
            "envelope",
            Json::obj([
                ("seed", Json::Num(seed)),
                ("nproc", Json::Num(nproc)),
                ("seconds", Json::Num(seconds)),
            ]),
        )])
    }

    #[test]
    fn refuses_files_taken_differently() {
        let full = RUN_SECONDS as f64;
        assert!(comparable(&file(1.0, 2.0, full), &file(1.0, 2.0, full)).is_ok());
        assert!(comparable(&file(1.0, 2.0, full), &file(2.0, 2.0, full))
            .unwrap_err()
            .contains("seed"));
        assert!(comparable(&file(1.0, 2.0, full), &file(1.0, 4.0, full))
            .unwrap_err()
            .contains("nproc"));
        assert!(comparable(&file(1.0, 2.0, 2.0), &file(1.0, 2.0, 2.0))
            .unwrap_err()
            .contains("smoke"));
    }
}
