//! Graceful degradation: fallback chains, retries, deadlines, cancel
//! tokens, and the recovery log.
//!
//! The staged handle ([`SymbolicCholesky`](crate::SymbolicCholesky))
//! composes these around every factorization it runs:
//!
//! 1. a device-side failure marked **transient** is retried on the same
//!    engine up to [`RetryPolicy::max_retries`] times (with optional
//!    backoff);
//! 2. a persistent device failure moves to the next engine of the
//!    [`FallbackChain`], reusing the lane's scattered values;
//! 3. a [`Deadline`] (real wall time and/or simulated seconds) and a
//!    [`CancelToken`] are threaded through the tree executors as a
//!    [`RunCtl`], so a stalled stream aborts with
//!    [`FactorError::DeadlineExceeded`] instead of hanging.
//!
//! Every recovery step is recorded as a [`RecoveryEvent`] in
//! [`FactorInfo::recovery`](crate::registry::FactorInfo::recovery).
//! Data errors ([`FactorError::NotPositiveDefinite`],
//! [`FactorError::PatternMismatch`]) are **terminal**: every engine
//! agrees on them, so neither retry nor fallback applies.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::Method;
use crate::error::FactorError;

/// Engines to try, in order, after the primary engine fails with a
/// device-side error. An empty chain means "no fallback": the typed
/// error is returned to the caller.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FallbackChain {
    /// Successor engines in degradation order.
    pub methods: Vec<Method>,
}

impl FallbackChain {
    /// No fallback (the default): device errors surface typed.
    pub fn none() -> Self {
        Self::default()
    }

    /// A chain through the given successors.
    pub fn new(methods: Vec<Method>) -> Self {
        FallbackChain { methods }
    }

    /// The recommended degradation path for `primary`: pipelined GPU →
    /// single-stream GPU → the CPU executor, ending on one CPU step (CPU
    /// engines raise no device error, so a second could never run), and
    /// staying in the same algorithm family (RL or RLB) so the recovered
    /// factor is bit-identical to the family's CPU engine. CPU engines have no
    /// device failure modes, so their chain is empty.
    pub fn recommended(primary: Method) -> Self {
        let methods = match primary {
            Method::RlGpuPipe => vec![Method::RlGpu, Method::RlCpu],
            Method::RlbGpuPipe => vec![Method::RlbGpuV2, Method::RlbCpu],
            Method::RlGpu => vec![Method::RlCpu],
            Method::RlbGpuV1 | Method::RlbGpuV2 => vec![Method::RlbCpu],
            _ => Vec::new(),
        };
        FallbackChain { methods }
    }

    /// True when no fallback engines are configured.
    pub fn is_empty(&self) -> bool {
        self.methods.is_empty()
    }
}

impl std::str::FromStr for FallbackChain {
    type Err = String;

    /// Parses `a>b>c` where each element is an engine CLI name or paper
    /// label (e.g. `rlb-gpu-pipe>rlb-gpu>rlb`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut methods = Vec::new();
        for (index, part) in s.split('>').enumerate() {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            methods.push(part.parse::<Method>().map_err(|e| {
                format!(
                    "fallback chain element {} (`{part}`): {e}; \
                     chain syntax is `engine>engine>...`",
                    index + 1
                )
            })?);
        }
        Ok(FallbackChain { methods })
    }
}

/// Bounded retries for transient device faults (persistent faults skip
/// straight to the fallback chain — retrying a deterministic failure
/// cannot help).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryPolicy {
    /// Retries per engine after the initial attempt (default 0).
    pub max_retries: u32,
    /// Real-time pause between attempts (default none; the simulated
    /// device needs no settling time, but a service retrying a real
    /// device would).
    pub backoff: Duration,
}

impl RetryPolicy {
    /// Up to `max_retries` immediate retries.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            backoff: Duration::ZERO,
        }
    }

    /// The same policy with a pause between attempts.
    pub fn with_backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }
}

/// A bound on how long a factorization may run. `wall` is real time;
/// `sim_seconds` bounds the simulated device clock, which is what an
/// injected [`StreamStall`](rlchol_gpu::FaultKind::StreamStall) inflates
/// — so stalled-stream tests abort deterministically without waiting
/// out real seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Deadline {
    /// Real wall-clock budget, spanning retries and fallbacks.
    pub wall: Option<Duration>,
    /// Simulated-seconds budget, checked per attempt against
    /// [`Gpu::elapsed`](rlchol_gpu::Gpu::elapsed).
    pub sim_seconds: Option<f64>,
}

impl Deadline {
    /// No limits (the default).
    pub fn none() -> Self {
        Self::default()
    }

    /// A real wall-clock budget.
    pub fn wall(limit: Duration) -> Self {
        Deadline {
            wall: Some(limit),
            sim_seconds: None,
        }
    }

    /// A simulated-seconds budget.
    pub fn sim(limit: f64) -> Self {
        Deadline {
            wall: None,
            sim_seconds: Some(limit),
        }
    }

    /// True when neither budget is set.
    pub fn is_unlimited(&self) -> bool {
        self.wall.is_none() && self.sim_seconds.is_none()
    }
}

/// A shared cancellation flag: clone it anywhere, flip it once, and
/// every in-flight factorization checking a [`RunCtl`] built from it
/// aborts with [`FactorError::Cancelled`] at its next check point (and
/// `batch_factor` skips slots it has not started).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation was requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    /// Clears the flag so the token can gate further work.
    pub fn reset(&self) {
        self.0.store(false, Ordering::Relaxed);
    }
}

/// What a recovery step did.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// The same engine was retried (the error was transient).
    Retried,
    /// The factorization moved to the next engine of the chain.
    FellBack {
        /// The engine that took over.
        to: Method,
    },
    /// The workspace lane was quarantined (rebuilt on next checkout).
    LaneQuarantined,
}

/// One recorded recovery step, kept in
/// [`FactorInfo::recovery`](crate::registry::FactorInfo::recovery).
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryEvent {
    /// The engine that failed.
    pub method: Method,
    /// Zero-based attempt ordinal on that engine.
    pub attempt: u32,
    /// How the failure was handled.
    pub action: RecoveryAction,
    /// The error recovered from.
    pub error: FactorError,
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.action {
            RecoveryAction::Retried => write!(
                f,
                "{} attempt {} retried: {}",
                self.method.label(),
                self.attempt,
                self.error
            ),
            RecoveryAction::FellBack { to } => write!(
                f,
                "{} fell back to {}: {}",
                self.method.label(),
                to.label(),
                self.error
            ),
            RecoveryAction::LaneQuarantined => write!(
                f,
                "{} lane quarantined: {}",
                self.method.label(),
                self.error
            ),
        }
    }
}

/// The deadline/cancellation control threaded through the executors via
/// [`EngineWorkspace::ctl`](crate::registry::EngineWorkspace). Unarmed
/// (the default) it is a no-op — direct engine calls pay nothing; the
/// staged handle arms it once per factorization, so the wall budget
/// spans retries and fallbacks while the simulated budget applies per
/// attempt (each attempt builds a fresh device clock). Arming and
/// cloning are allocation-free: the only shared state is the cancel
/// flag, which lives behind the token's own `Arc`.
#[derive(Debug, Clone, Default)]
pub struct RunCtl {
    armed: Option<CtlState>,
}

#[derive(Debug, Clone)]
struct CtlState {
    cancel: CancelToken,
    started: Instant,
    wall: Option<Duration>,
    sim: Option<f64>,
}

impl RunCtl {
    /// An armed control: `deadline` counts from now, `cancel` is checked
    /// at every checkpoint.
    pub fn armed(deadline: Deadline, cancel: CancelToken) -> Self {
        RunCtl {
            armed: Some(CtlState {
                cancel,
                started: Instant::now(),
                wall: deadline.wall,
                sim: deadline.sim_seconds,
            }),
        }
    }

    /// Wall budget left: `None` when unarmed or without a wall limit,
    /// zero once it has run out.
    pub(crate) fn wall_left(&self) -> Option<Duration> {
        let state = self.armed.as_ref()?;
        Some(state.wall?.saturating_sub(state.started.elapsed()))
    }

    /// Errors when cancelled or past the wall deadline. Executors call
    /// this once per supernode.
    #[inline]
    pub fn check(&self) -> Result<(), FactorError> {
        let Some(state) = &self.armed else {
            return Ok(());
        };
        if state.cancel.is_cancelled() {
            return Err(FactorError::Cancelled);
        }
        if let Some(limit) = state.wall {
            if state.started.elapsed() > limit {
                return Err(FactorError::DeadlineExceeded {
                    wall: Some(limit),
                    sim_seconds: None,
                });
            }
        }
        Ok(())
    }

    /// [`check`](Self::check) plus the simulated-seconds budget against
    /// the device clock `sim`.
    #[inline]
    pub fn check_sim(&self, sim: f64) -> Result<(), FactorError> {
        self.check()?;
        if let Some(state) = &self.armed {
            if let Some(limit) = state.sim {
                if sim > limit {
                    return Err(FactorError::DeadlineExceeded {
                        wall: None,
                        sim_seconds: Some(limit),
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_chains_stay_in_family_and_end_on_cpu() {
        for m in Method::ALL {
            let chain = FallbackChain::recommended(m);
            if m.is_gpu() {
                let last = *chain.methods.last().unwrap();
                assert!(!last.is_gpu(), "{m:?} chain must end on CPU");
                let cpu_steps = chain.methods.iter().filter(|c| !c.is_gpu()).count();
                assert_eq!(cpu_steps, 1, "{m:?} chain must end on one CPU step");
                assert!(!chain.methods.contains(&m), "{m:?} must not self-chain");
            } else {
                assert!(chain.is_empty(), "{m:?} needs no fallback");
            }
        }
        assert_eq!(
            FallbackChain::recommended(Method::RlbGpuPipe).methods,
            vec![Method::RlbGpuV2, Method::RlbCpu]
        );
        assert_eq!(
            FallbackChain::recommended(Method::RlGpuPipe).methods,
            vec![Method::RlGpu, Method::RlCpu]
        );
        assert_eq!(
            FallbackChain::recommended(Method::RlGpu).methods,
            vec![Method::RlCpu]
        );
        for m in [Method::RlbGpuV1, Method::RlbGpuV2] {
            assert_eq!(FallbackChain::recommended(m).methods, vec![Method::RlbCpu]);
        }
    }

    #[test]
    fn chain_parses_cli_names() {
        let chain: FallbackChain = "rlb-gpu-pipe>rlb-gpu>rlb".parse().unwrap();
        assert_eq!(
            chain.methods,
            vec![Method::RlbGpuPipe, Method::RlbGpuV2, Method::RlbCpu]
        );
        // The error identifies the failing element (position and text),
        // lists the valid engine names, and reminds the chain syntax.
        let err = "rlb-gpu>bogus".parse::<FallbackChain>().unwrap_err();
        assert!(err.contains("element 2"), "{err}");
        assert!(err.contains("`bogus`"), "{err}");
        assert!(err.contains("unknown method"), "{err}");
        assert!(err.contains("rlb-gpu-pipe"), "{err}");
        assert!(err.contains("engine>engine"), "{err}");
        assert!("".parse::<FallbackChain>().unwrap().is_empty());
    }

    #[test]
    fn unarmed_ctl_is_a_no_op() {
        let ctl = RunCtl::default();
        assert!(ctl.check().is_ok());
        assert!(ctl.check_sim(f64::INFINITY).is_ok());
    }

    #[test]
    fn cancel_token_trips_the_ctl() {
        let token = CancelToken::new();
        let ctl = RunCtl::armed(Deadline::none(), token.clone());
        assert!(ctl.check().is_ok());
        token.cancel();
        assert_eq!(ctl.check(), Err(FactorError::Cancelled));
        token.reset();
        assert!(ctl.check().is_ok());
    }

    #[test]
    fn wall_deadline_expires() {
        let ctl = RunCtl::armed(Deadline::wall(Duration::ZERO), CancelToken::new());
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            ctl.check(),
            Err(FactorError::DeadlineExceeded { wall: Some(_), .. })
        ));
    }

    #[test]
    fn sim_deadline_compares_device_clock() {
        let ctl = RunCtl::armed(Deadline::sim(1.5), CancelToken::new());
        assert!(ctl.check_sim(1.0).is_ok());
        assert_eq!(
            ctl.check_sim(2.0),
            Err(FactorError::DeadlineExceeded {
                wall: None,
                sim_seconds: Some(1.5)
            })
        );
    }

    #[test]
    fn recovery_events_display_their_story() {
        let e = RecoveryEvent {
            method: Method::RlbGpuPipe,
            attempt: 0,
            action: RecoveryAction::FellBack { to: Method::RlbCpu },
            error: FactorError::Gpu("boom".into()),
        };
        let s = e.to_string();
        assert!(s.contains("RLB_G(pipe)"), "{s}");
        assert!(s.contains("RLB_C"), "{s}");
        assert!(s.contains("boom"), "{s}");
    }
}
