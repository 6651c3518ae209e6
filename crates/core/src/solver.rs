//! End-to-end solver pipeline: ordering → symbolic → numeric → solve.
//!
//! [`CholeskySolver`] is the one-shot convenience entry point: it runs
//! [`CholeskySolver::analyze`] (ordering, symbolic analysis, engine
//! resolution — producing a [`SymbolicCholesky`] handle) and
//! [`SymbolicCholesky::factor_with`] in one call, and keeps a reusable
//! [`SolveWorkspace`] so its permutation-transparent solves allocate
//! only their output vectors. Workloads that re-factor a fixed pattern
//! with new values should hold the [`SymbolicCholesky`] handle directly
//! and use `factor_with`/`refactor`/`solve_into` — see
//! [`crate::staged`].

use rlchol_ordering::OrderingMethod;
use rlchol_sparse::{Permutation, SymCsc};
use rlchol_symbolic::{SymbolicFactor, SymbolicOptions};

use std::sync::Mutex;

use crate::engine::{GpuOptions, Method};
use crate::error::FactorError;
use crate::registry::FactorInfo;
use crate::staged::{Factorization, SolveWorkspace, SymbolicCholesky};
use crate::storage::FactorData;

/// Options for [`CholeskySolver::factor`] / [`CholeskySolver::analyze`].
#[derive(Debug, Clone)]
pub struct SolverOptions {
    /// Fill-reducing ordering (paper: METIS nested dissection).
    pub ordering: OrderingMethod,
    /// Symbolic pipeline options (merging, partition refinement).
    pub symbolic: SymbolicOptions,
    /// Numeric engine.
    pub method: Method,
    /// GPU engine options (ignored by the CPU methods).
    pub gpu: GpuOptions,
    /// Lanes of the CPU tree executor, which runs every CPU method;
    /// `0` means `RLCHOL_THREADS` / available parallelism, and `1` pins
    /// the one-lane sweep. The factor is bit-identical at every lane
    /// count. Below a flop cutoff, or while another factorization's tree
    /// is running, the executor takes one lane whatever this says.
    /// Ignored by the GPU methods.
    pub threads: usize,
    /// Workspace lanes of the staged handle: how many `factor_with` /
    /// `refactor` calls may run **concurrently** on one shared
    /// [`SymbolicCholesky`] (each lane owns an independent engine
    /// workspace; lanes are created lazily, so unused capacity costs
    /// nothing). `0` means automatic: `RLCHOL_FACTOR_LANES` if set, else
    /// the pool default. The lane count never affects results — every
    /// lane's factor is bit-identical to the serial path.
    pub factor_lanes: usize,
    /// Lanes for the thread-parallel symbolic analysis (column counts,
    /// relative indices, value map). `0` means automatic:
    /// `RLCHOL_ANALYZE_THREADS` if set, else the pool default with a
    /// small-system serial cutoff. `1` forces the serial pipeline,
    /// `> 1` forces the parallel one. The analysis is bit-identical at
    /// every lane count — only the analyze wall clock changes.
    pub analyze_threads: usize,
    /// Engines to degrade to (in order) when the primary engine fails
    /// with a device-side error. Empty (the default) surfaces the typed
    /// error instead; [`FallbackChain::recommended`] builds the
    /// stay-in-family GPU → CPU path.
    pub fallback: crate::resilience::FallbackChain,
    /// Bounded retries for device faults marked transient (default:
    /// none).
    pub retry: crate::resilience::RetryPolicy,
    /// Wall-clock / simulated-seconds budget per factorization (default:
    /// unlimited). Expiry surfaces as
    /// [`FactorError::DeadlineExceeded`](crate::FactorError::DeadlineExceeded).
    pub deadline: crate::resilience::Deadline,
    /// Deterministic fault-injection plan for the simulated device
    /// (testing). `None` defers to [`GpuOptions::faults`], then the
    /// `RLCHOL_FAULTS` environment variable, resolved once at handle
    /// construction.
    pub faults: Option<rlchol_gpu::FaultPlan>,
    /// How long a `factor_with`/`refactor` call may wait for a free
    /// workspace lane before failing with
    /// [`FactorError::LanesExhausted`](crate::FactorError::LanesExhausted).
    /// `None` resolves to `RLCHOL_LANE_WAIT_MS`, else a generous 30 s —
    /// long enough for any real factorization to return a lane, short
    /// enough that a wedged lane cannot hang a service forever.
    pub lane_wait: Option<std::time::Duration>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            ordering: OrderingMethod::NestedDissection,
            symbolic: SymbolicOptions::default(),
            method: Method::RlCpu,
            gpu: GpuOptions::with_threshold(usize::MAX),
            threads: 0,
            factor_lanes: 0,
            analyze_threads: 0,
            fallback: crate::resilience::FallbackChain::none(),
            retry: crate::resilience::RetryPolicy::default(),
            deadline: crate::resilience::Deadline::none(),
            faults: None,
            lane_wait: None,
        }
    }
}

/// A factored SPD system ready for repeated solves.
///
/// Thin wrapper over the staged path: holds the [`SymbolicCholesky`]
/// handle, one [`Factorization`], and a reusable [`SolveWorkspace`].
pub struct CholeskySolver {
    staged: SymbolicCholesky,
    fact: Factorization,
    solve_ws: Mutex<SolveWorkspace>,
    /// Simulated seconds of the factorization (GPU engines only).
    pub sim_seconds: Option<f64>,
    /// Supernodes computed on the (simulated) GPU.
    pub sn_on_gpu: usize,
}

impl CholeskySolver {
    /// Orders and analyzes `a`, returning the staged handle for
    /// analyze-once / factor-many workloads. Runs no numeric
    /// factorization.
    pub fn analyze(a: &SymCsc, opts: &SolverOptions) -> SymbolicCholesky {
        SymbolicCholesky::new(a, opts)
    }

    /// Orders, analyzes and factors `a` in one shot.
    pub fn factor(a: &SymCsc, opts: &SolverOptions) -> Result<Self, FactorError> {
        let staged = Self::analyze(a, opts);
        let fact = staged.factor_with(a)?;
        Ok(CholeskySolver {
            sim_seconds: fact.info().sim_seconds,
            sn_on_gpu: fact.info().sn_on_gpu,
            staged,
            fact,
            solve_ws: Mutex::new(SolveWorkspace::new()),
        })
    }

    /// The staged handle (permutation, symbolic factor, engine).
    pub fn staged(&self) -> &SymbolicCholesky {
        &self.staged
    }

    /// The held factorization.
    pub fn factorization(&self) -> &Factorization {
        &self.fact
    }

    /// The engine's uniform report for this factorization.
    pub fn info(&self) -> &FactorInfo {
        self.fact.info()
    }

    /// The symbolic factor (structure, counts, supernodes).
    pub fn symbolic(&self) -> &SymbolicFactor {
        self.staged.symbolic()
    }

    /// The numeric factor values.
    pub fn factor_data(&self) -> &FactorData {
        self.fact.data()
    }

    /// The composed permutation from the input ordering to factor order.
    pub fn permutation(&self) -> &Permutation {
        self.staged.permutation()
    }

    /// Factor nonzeros (including amalgamation padding).
    pub fn factor_nnz(&self) -> u64 {
        self.staged.factor_nnz()
    }

    /// Solves `A x = b` with `b` in the original ordering. Internal
    /// scratch comes from the solver's reusable workspace; only the
    /// returned vector is allocated.
    ///
    /// # Panics
    /// When `b.len()` does not match the system dimension — use
    /// [`SymbolicCholesky::solve_into`] for the typed
    /// [`SolveError`](crate::error::SolveError) instead.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; b.len()];
        let result = match self.solve_ws.try_lock() {
            Ok(mut ws) => self.staged.solve_into(&self.fact, b, &mut x, &mut ws),
            // Contended (or poisoned) workspace: solve with a local one
            // — the cost of the old allocating path, no serialization.
            Err(_) => {
                let mut ws = SolveWorkspace::new();
                self.staged.solve_into(&self.fact, b, &mut x, &mut ws)
            }
        };
        result.unwrap_or_else(|e| panic!("{e}"));
        x
    }

    /// Solves with iterative refinement; returns `(x, final_residual_inf)`.
    ///
    /// # Panics
    /// When `b.len()` does not match the system dimension — use
    /// [`SymbolicCholesky::solve_refined`] for the typed
    /// [`SolveError`](crate::error::SolveError) instead.
    pub fn solve_refined(&self, a: &SymCsc, b: &[f64], max_iters: usize) -> (Vec<f64>, f64) {
        let mut x = vec![0.0; b.len()];
        let resid = match self.solve_ws.try_lock() {
            Ok(mut ws) => self
                .staged
                .solve_refined(&self.fact, a, b, &mut x, max_iters, &mut ws),
            Err(_) => {
                let mut ws = SolveWorkspace::new();
                self.staged
                    .solve_refined(&self.fact, a, b, &mut x, max_iters, &mut ws)
            }
        };
        (x, resid.unwrap_or_else(|e| panic!("{e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rlchol_matgen::{grid3d, laplace2d, Stencil};

    fn check_pipeline(method: Method, gpu: GpuOptions) {
        let a = grid3d(5, 5, 4, Stencil::Star7, 1, 77);
        let opts = SolverOptions {
            method,
            gpu,
            ..SolverOptions::default()
        };
        let solver = CholeskySolver::factor(&a, &opts).unwrap();
        let n = a.n();
        let x_true: Vec<f64> = (0..n).map(|i| (i % 7) as f64 - 3.0).collect();
        let mut b = vec![0.0; n];
        a.matvec(&x_true, &mut b);
        let x = solver.solve(&b);
        let err = x
            .iter()
            .zip(&x_true)
            .fold(0.0f64, |m, (&p, &q)| m.max((p - q).abs()));
        assert!(err < 1e-8, "{method:?}: error {err}");
    }

    #[test]
    fn all_methods_solve_correctly() {
        for method in Method::ALL {
            let threshold = if method.is_gpu() { 200 } else { usize::MAX };
            // The pipelined engines resolve streams from RLCHOL_STREAMS
            // here (streams: 0), so the CI matrix exercises both
            // degenerate and multi-stream configurations through this
            // test.
            check_pipeline(method, GpuOptions::with_threshold(threshold));
        }
    }

    #[test]
    fn orderings_reduce_fill_on_grids() {
        let a = laplace2d(20, 5);
        let natural = CholeskySolver::factor(
            &a,
            &SolverOptions {
                ordering: OrderingMethod::Natural,
                ..SolverOptions::default()
            },
        )
        .unwrap();
        let nd = CholeskySolver::factor(&a, &SolverOptions::default()).unwrap();
        assert!(
            nd.factor_nnz() < natural.factor_nnz(),
            "ND {} vs natural {}",
            nd.factor_nnz(),
            natural.factor_nnz()
        );
    }

    #[test]
    fn refinement_improves_or_keeps_residual() {
        let a = laplace2d(12, 6);
        let solver = CholeskySolver::factor(&a, &SolverOptions::default()).unwrap();
        let n = a.n();
        let b: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        let (x, resid) = solver.solve_refined(&a, &b, 3);
        assert!(resid < 1e-9, "refined residual {resid}");
        assert_eq!(x.len(), n);
    }

    #[test]
    fn gpu_method_reports_sim_time() {
        let a = laplace2d(10, 7);
        let opts = SolverOptions {
            method: Method::RlGpu,
            gpu: GpuOptions::with_threshold(0),
            ..SolverOptions::default()
        };
        let s = CholeskySolver::factor(&a, &opts).unwrap();
        assert!(s.sim_seconds.unwrap() > 0.0);
        assert_eq!(s.sn_on_gpu, s.symbolic().nsup());
        // The uniform report carries the same numbers plus device stats.
        assert_eq!(s.info().sim_seconds, s.sim_seconds);
        assert!(s.info().gpu.as_ref().unwrap().kernel_launches > 0);
    }

    #[test]
    fn analyze_then_factor_matches_one_shot() {
        let a = laplace2d(11, 4);
        let opts = SolverOptions::default();
        let handle = CholeskySolver::analyze(&a, &opts);
        let fact = handle.factor_with(&a).unwrap();
        let one_shot = CholeskySolver::factor(&a, &opts).unwrap();
        assert_eq!(fact.data(), one_shot.factor_data());
    }
}
