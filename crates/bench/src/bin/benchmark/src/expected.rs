//! The outputs the program must reproduce to the last bit.
//!
//! `BENCHMARK.json` has no key for an expected value, so they are recorded
//! here. None depends on the seed, the number of processors or the
//! machine's speed: the fill of the two direct workloads follows from
//! their fixed patterns and the nested-dissection ordering, and the
//! simulated seconds of `suite_gpu` come from the device and CPU models
//! (the suite's matrices are fixed; the seed draws only right-hand sides
//! and the values of the pipelined engine's grid, which the model does not
//! read). A run that measures anything else fails with "expected …,
//! got …": drift in the paper's numbers is a wrong output, not a timing.
//!
//! A change that is meant to move one of them — a better ordering, a
//! changed device model — re-records it here in the same change and says
//! so, with the old and the new value. See the README's re-basing rule.

/// `(workload, metric, value)`.
const RECORDED: &[(&str, &str, f64)] = &[
    ("cube32", "ordering.factor_nnz", 6_481_534.0),
    ("plate300", "ordering.factor_nnz", 3_277_057.0),
    // Sums over the five matrices, cold pass; 17 digits name one double.
    ("suite_gpu", "sim_rl_s", 0.08964612564071395),
    ("suite_gpu", "sim_rlb_s", 0.1252439282575446),
    ("suite_gpu", "sim_pipe_s", 0.1394943403073393),
    ("suite_gpu", "sim_speedup", 2.3177961999334515),
];

/// The recorded value of `metric` on `workload`.
///
/// # Panics
///
/// When there is none: only metrics in the table are reported through
/// [`crate::metrics::Report::set_recorded`].
pub fn recorded(workload: &str, metric: &str) -> f64 {
    RECORDED
        .iter()
        .find(|(w, m, _)| *w == workload && *m == metric)
        .unwrap_or_else(|| panic!("no value is recorded for `{metric}` on `{workload}`"))
        .2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{def, WORKLOADS};

    #[test]
    fn every_recorded_value_names_an_exact_metric_of_a_workload() {
        for (workload, metric, value) in RECORDED {
            assert!(WORKLOADS.iter().any(|w| w.name == *workload), "{workload}");
            assert_eq!(def(metric).bound, Some(0.0), "{metric} is not exact");
            assert!(value.is_finite() && *value > 0.0, "{metric}");
            assert_eq!(recorded(workload, metric).to_bits(), value.to_bits());
        }
    }
}
