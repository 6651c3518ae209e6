//! Dolan–Moré performance profiles (the paper's Figure 3).
//!
//! Given times `t[p][s]` for problem `p` under solver `s`, the profile of
//! solver `s` is
//!
//! ```text
//! ρ_s(τ) = |{ p : t[p][s] ≤ 2^τ · min_s' t[p][s'] }| / |P|
//! ```
//!
//! — the fraction of problems solved within a factor `2^τ` of the best
//! solver. Failures (`None`) never count, matching how the paper treats
//! RL's nlpkkt120 run.

/// A set of solvers evaluated on a common problem set.
#[derive(Debug, Clone)]
pub struct PerformanceProfile {
    solver_names: Vec<String>,
    /// `times[p][s]`: seconds, or `None` when solver `s` failed on `p`.
    times: Vec<Vec<Option<f64>>>,
}

impl PerformanceProfile {
    /// Creates a profile over the given solver names.
    pub fn new<S: Into<String>>(solver_names: Vec<S>) -> Self {
        PerformanceProfile {
            solver_names: solver_names.into_iter().map(Into::into).collect(),
            times: Vec::new(),
        }
    }

    /// Adds one problem's times (aligned with the solver names).
    pub fn add_problem(&mut self, times: Vec<Option<f64>>) {
        assert_eq!(times.len(), self.solver_names.len());
        assert!(
            times.iter().flatten().all(|&t| t > 0.0),
            "times must be positive"
        );
        self.times.push(times);
    }

    /// Number of problems recorded.
    pub fn num_problems(&self) -> usize {
        self.times.len()
    }

    /// Performance ratios `t / best` per problem for solver `s`
    /// (`None` = failure).
    pub fn ratios(&self, s: usize) -> Vec<Option<f64>> {
        self.times
            .iter()
            .map(|row| {
                let best = row.iter().flatten().cloned().fold(f64::INFINITY, f64::min);
                row[s].map(|t| t / best)
            })
            .collect()
    }

    /// `ρ_s(τ)`: fraction of problems with ratio ≤ `2^τ`.
    pub fn rho(&self, s: usize, tau: f64) -> f64 {
        let bound = 2.0f64.powf(tau);
        let hits = self
            .ratios(s)
            .iter()
            .flatten()
            .filter(|&&r| r <= bound + 1e-12)
            .count();
        hits as f64 / self.num_problems().max(1) as f64
    }

    /// Samples every solver's profile at `points` evenly spaced τ values
    /// in `[0, tau_max]`; returns `(taus, curves[s][k])`.
    pub fn curves(&self, tau_max: f64, points: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        let taus: Vec<f64> = (0..points)
            .map(|k| tau_max * k as f64 / (points - 1).max(1) as f64)
            .collect();
        let curves = (0..self.solver_names.len())
            .map(|s| taus.iter().map(|&t| self.rho(s, t)).collect())
            .collect();
        (taus, curves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PerformanceProfile {
        let mut p = PerformanceProfile::new(vec!["A", "B"]);
        p.add_problem(vec![Some(1.0), Some(2.0)]); // A best
        p.add_problem(vec![Some(4.0), Some(1.0)]); // B best, A 4x
        p.add_problem(vec![None, Some(3.0)]); // A fails
        p
    }

    #[test]
    fn rho_at_zero_counts_wins() {
        let p = sample();
        // A wins problem 1 only → 1/3; B wins problems 2 and 3 → 2/3.
        assert!((p.rho(0, 0.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((p.rho(1, 0.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rho_is_monotone_and_saturates() {
        let p = sample();
        let (_, curves) = p.curves(4.0, 9);
        for c in &curves {
            for w in c.windows(2) {
                assert!(w[1] >= w[0] - 1e-12);
            }
        }
        // B succeeds everywhere → reaches 1; A fails once → caps at 2/3.
        assert!((curves[1].last().unwrap() - 1.0).abs() < 1e-12);
        assert!((curves[0].last().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratios_relative_to_best() {
        let p = sample();
        let r = p.ratios(0);
        assert_eq!(r[0], Some(1.0));
        assert_eq!(r[1], Some(4.0));
        assert_eq!(r[2], None);
    }

    #[test]
    #[should_panic(expected = "times must be positive")]
    fn rejects_nonpositive_times() {
        let mut p = PerformanceProfile::new(vec!["A"]);
        p.add_problem(vec![Some(0.0)]);
    }
}
