//! Errors of the numeric factorization engines.

use rlchol_gpu::{DeviceError, GpuError};
use std::fmt;
use std::time::Duration;

/// Failure modes of a numeric factorization.
#[derive(Debug, Clone, PartialEq)]
pub enum FactorError {
    /// A diagonal pivot was not strictly positive (matrix not SPD).
    NotPositiveDefinite { column: usize },
    /// A matrix handed to `factor_with`/`refactor` does not share the
    /// sparsity pattern the [`SymbolicCholesky`](crate::SymbolicCholesky)
    /// handle was analyzed for.
    PatternMismatch {
        /// First column whose pattern differs (for a dimension mismatch,
        /// the smaller dimension).
        column: usize,
        /// Lower-triangle nonzeros the analyzed pattern has.
        expected_nnz: usize,
        /// Lower-triangle nonzeros the offending matrix has.
        found_nnz: usize,
    },
    /// The device could not satisfy the engine's memory demand — the
    /// paper's Table I failure mode for nlpkkt120 under RL.
    GpuOutOfMemory {
        requested_bytes: u64,
        capacity_bytes: u64,
    },
    /// Any other device-side failure.
    Gpu(String),
    /// An injected device fault struck the factorization (the
    /// fault-injection harness; see [`rlchol_gpu::FaultPlan`]).
    DeviceFault(DeviceError),
    /// The factorization ran past its [`Deadline`](crate::resilience::Deadline)
    /// — real wall time and/or simulated device seconds, whichever
    /// budget expired.
    DeadlineExceeded {
        /// The expired wall-clock budget, if that is what tripped.
        wall: Option<Duration>,
        /// The expired simulated-seconds budget, if that is what tripped.
        sim_seconds: Option<f64>,
    },
    /// The factorization was cancelled via its
    /// [`CancelToken`](crate::resilience::CancelToken).
    Cancelled,
    /// Every workspace lane stayed busy past the checkout wait budget —
    /// the admission-control signal: shed the request instead of
    /// queueing it forever.
    LanesExhausted {
        /// The handle's lane cap.
        cap: usize,
        /// How long the checkout waited before giving up.
        waited: Duration,
    },
}

impl FactorError {
    /// True for device-side failures a different engine could avoid —
    /// the class the [`FallbackChain`](crate::resilience::FallbackChain)
    /// reacts to. Data errors (not-SPD, pattern mismatch) and
    /// control-flow errors (deadline, cancellation, lane exhaustion) are
    /// terminal: every engine would agree on them.
    pub fn is_device(&self) -> bool {
        matches!(
            self,
            FactorError::DeviceFault(_) | FactorError::Gpu(_) | FactorError::GpuOutOfMemory { .. }
        )
    }

    /// True when the failure was marked transient by the fault plan — a
    /// retry on the same engine may succeed
    /// ([`RetryPolicy`](crate::resilience::RetryPolicy)).
    pub fn is_transient(&self) -> bool {
        matches!(self, FactorError::DeviceFault(d) if d.transient)
    }
}

impl fmt::Display for FactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FactorError::NotPositiveDefinite { column } => {
                write!(f, "matrix is not positive definite at column {column}")
            }
            FactorError::PatternMismatch {
                column,
                expected_nnz,
                found_nnz,
            } => write!(
                f,
                "sparsity pattern differs from the analyzed pattern at column {column} \
                 (expected {expected_nnz} lower-triangle nonzeros, found {found_nnz})"
            ),
            FactorError::GpuOutOfMemory {
                requested_bytes,
                capacity_bytes,
            } => write!(
                f,
                "GPU out of memory: need {requested_bytes} B, capacity {capacity_bytes} B"
            ),
            FactorError::Gpu(msg) => write!(f, "GPU failure: {msg}"),
            FactorError::DeviceFault(e) => write!(f, "device fault: {e}"),
            FactorError::DeadlineExceeded { wall, sim_seconds } => {
                write!(f, "factorization deadline exceeded:")?;
                if let Some(w) = wall {
                    write!(f, " wall budget {} ms", w.as_millis())?;
                }
                if let Some(s) = sim_seconds {
                    write!(f, " simulated budget {s} s")?;
                }
                Ok(())
            }
            FactorError::Cancelled => write!(f, "factorization cancelled"),
            FactorError::LanesExhausted { cap, waited } => write!(
                f,
                "all {cap} workspace lanes busy after waiting {} ms",
                waited.as_millis()
            ),
        }
    }
}

impl std::error::Error for FactorError {}

/// Dimension errors of the staged solve entry points
/// (`solve_into`/`solve_many`/`solve_refined`): a right-hand-side or
/// solution buffer whose length does not match the analyzed system.
/// Typed (rather than an assert) because serving loops feed solves with
/// caller-supplied buffers and should reject a bad request, not abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// The right-hand-side block's length is not `n × k`.
    RhsDimension {
        /// Expected length (`n` for single-RHS entry points, `n × k`
        /// for blocked ones).
        expected: usize,
        /// Length actually supplied.
        found: usize,
    },
    /// The solution block's length is not `n × k`.
    SolutionDimension {
        /// Expected length.
        expected: usize,
        /// Length actually supplied.
        found: usize,
    },
    /// The matrix handed to `solve_refined` for residual computation
    /// has a different dimension than the analyzed system.
    MatrixDimension {
        /// The analyzed system's dimension.
        expected: usize,
        /// Dimension of the matrix actually supplied.
        found: usize,
    },
    /// `solve_refined` computed a NaN/Inf residual — the inputs (or the
    /// factor) contain non-finite values, and further refinement
    /// iterations cannot converge.
    NonFinite {
        /// The refinement iteration that produced the non-finite
        /// residual (0 is the initial solve's residual).
        iteration: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::RhsDimension { expected, found } => write!(
                f,
                "right-hand side has {found} entries, system expects {expected}"
            ),
            SolveError::SolutionDimension { expected, found } => write!(
                f,
                "solution buffer has {found} entries, system expects {expected}"
            ),
            SolveError::MatrixDimension { expected, found } => write!(
                f,
                "matrix has dimension {found}, analyzed system has {expected}"
            ),
            SolveError::NonFinite { iteration } => {
                write!(f, "non-finite residual at refinement iteration {iteration}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

impl From<GpuError> for FactorError {
    fn from(e: GpuError) -> Self {
        match e {
            GpuError::OutOfMemory {
                requested_bytes,
                capacity_bytes,
                ..
            } => FactorError::GpuOutOfMemory {
                requested_bytes,
                capacity_bytes,
            },
            GpuError::Fault(e) => FactorError::DeviceFault(e),
            other => FactorError::Gpu(other.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant of both error types, with distinctive payloads.
    /// Keeping the lists here (rather than sampling one variant) makes
    /// adding a variant without a Display arm a compile error and
    /// without a payload check a test failure.
    fn factor_variants() -> Vec<(FactorError, &'static [&'static str])> {
        vec![
            (
                FactorError::NotPositiveDefinite { column: 17 },
                &["positive definite", "17"],
            ),
            (
                FactorError::PatternMismatch {
                    column: 3,
                    expected_nnz: 41,
                    found_nnz: 39,
                },
                &["pattern", "column 3", "41", "39"],
            ),
            (
                FactorError::GpuOutOfMemory {
                    requested_bytes: 1_000_000,
                    capacity_bytes: 65_536,
                },
                &["out of memory", "1000000", "65536"],
            ),
            (
                FactorError::Gpu("stream 2 failed".to_string()),
                &["GPU", "stream 2 failed"],
            ),
            (
                FactorError::DeviceFault(rlchol_gpu::DeviceError {
                    kind: rlchol_gpu::FaultKind::KernelFault,
                    index: 7,
                    transient: true,
                }),
                &["device fault", "kernel", "7", "transient"],
            ),
            (
                FactorError::DeadlineExceeded {
                    wall: Some(Duration::from_millis(250)),
                    sim_seconds: Some(1.5),
                },
                &["deadline", "250", "1.5"],
            ),
            (FactorError::Cancelled, &["cancelled"]),
            (
                FactorError::LanesExhausted {
                    cap: 4,
                    waited: Duration::from_millis(3000),
                },
                &["lanes", "4", "3000"],
            ),
        ]
    }

    fn solve_variants() -> Vec<(SolveError, &'static [&'static str])> {
        vec![
            (
                SolveError::RhsDimension {
                    expected: 100,
                    found: 99,
                },
                &["right-hand side", "100", "99"],
            ),
            (
                SolveError::SolutionDimension {
                    expected: 100,
                    found: 0,
                },
                &["solution", "100", "0"],
            ),
            (
                SolveError::MatrixDimension {
                    expected: 100,
                    found: 7,
                },
                &["matrix", "100", "7"],
            ),
            (
                SolveError::NonFinite { iteration: 2 },
                &["non-finite", "iteration 2"],
            ),
        ]
    }

    /// Every variant's Display output carries its payload — the context
    /// a `batch_factor` caller (or anyone boxing the error) relies on.
    #[test]
    fn every_variant_formats_with_full_context() {
        for (err, needles) in factor_variants() {
            let msg = format!("{err}");
            for needle in needles {
                assert!(msg.contains(needle), "{err:?}: `{msg}` lacks `{needle}`");
            }
            // Context survives type erasure (Box<dyn Error>, the shape
            // errors take when bubbled out of a serving loop).
            let boxed: Box<dyn std::error::Error> = Box::new(err.clone());
            assert_eq!(boxed.to_string(), msg);
        }
        for (err, needles) in solve_variants() {
            let msg = format!("{err}");
            for needle in needles {
                assert!(msg.contains(needle), "{err:?}: `{msg}` lacks `{needle}`");
            }
            let boxed: Box<dyn std::error::Error> = Box::new(err);
            assert_eq!(boxed.to_string(), msg);
        }
    }

    #[test]
    fn gpu_errors_convert_without_losing_detail() {
        let oom: FactorError = GpuError::OutOfMemory {
            requested_bytes: 9,
            capacity_bytes: 5,
            used_bytes: 4,
        }
        .into();
        assert_eq!(
            oom,
            FactorError::GpuOutOfMemory {
                requested_bytes: 9,
                capacity_bytes: 5
            }
        );
        let bounds: FactorError = GpuError::OutOfBounds {
            id: 2,
            offset: 12,
            len: 3,
            buffer_len: 14,
        }
        .into();
        assert!(format!("{bounds}").contains("offset 12, len 3"));
        let fault: FactorError = GpuError::Fault(rlchol_gpu::DeviceError {
            kind: rlchol_gpu::FaultKind::TransferFail,
            index: 3,
            transient: false,
        })
        .into();
        assert!(matches!(fault, FactorError::DeviceFault(_)));
    }

    /// The classification the degradation policy keys on: device errors
    /// fall back, transient device faults retry, everything else is
    /// terminal.
    #[test]
    fn degradation_classes_partition_the_variants() {
        for (err, _) in factor_variants() {
            let device = err.is_device();
            match &err {
                FactorError::DeviceFault(d) => {
                    assert!(device);
                    assert_eq!(err.is_transient(), d.transient);
                }
                FactorError::Gpu(_) | FactorError::GpuOutOfMemory { .. } => {
                    assert!(device);
                    assert!(!err.is_transient());
                }
                _ => {
                    assert!(!device, "{err:?} must be terminal");
                    assert!(!err.is_transient());
                }
            }
        }
    }
}
