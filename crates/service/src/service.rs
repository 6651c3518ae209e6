//! The in-process service: admission control, handle cache, and request
//! dispatch onto the staged-solver API.
//!
//! [`Service::submit`] is the whole contract: it never queues
//! unboundedly (the admission gate sheds with a typed
//! [`ServiceError::Overloaded`] once `queue_depth` requests are in
//! flight), never runs past a request deadline silently (the remaining
//! budget is threaded into the engine's `Deadline` machinery), and
//! reports per-request [`RequestMetrics`] alongside every payload.
//!
//! Same-pattern requests share one cached [`SymbolicCholesky`] handle,
//! whose workspace lanes run their factorizations side by side, each
//! bit-identical to a solo one; a [`RequestOp::Batch`] fans many value
//! sets of one pattern across those lanes in a single
//! [`SymbolicCholesky::batch_factor_ctl`] call.
//!
//! # Configuration precedence
//!
//! Explicit [`ServiceConfig`] field > `RLCHOL_*` environment variable >
//! built-in default, resolved **once** in [`Service::new`]:
//!
//! | knob | explicit | env | default |
//! |------|----------|-----|---------|
//! | cache budget | `cache_bytes > 0` | `RLCHOL_CACHE_BYTES` | 256 MiB |
//! | admission depth | `queue_depth > 0` | `RLCHOL_QUEUE_DEPTH` | 2 × factor lanes |
//!
//! (factor lanes themselves resolve `options.factor_lanes` >
//! `RLCHOL_FACTOR_LANES` > pool width, mirroring the staged API.)

use crate::cache::{CacheOutcome, CacheStats, HandleCache};
use crate::error::ServiceError;
use crate::fingerprint::PatternFingerprint;
use rlchol_core::json::{factor_info_json, JsonObj};
use rlchol_core::solver::SolverOptions;
use rlchol_core::staged::lanes;
use rlchol_core::{CancelToken, Deadline, FactorError, Method, SolveWorkspace, SymbolicCholesky};
use rlchol_dense::pool::env_positive;
use rlchol_sparse::SymCsc;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Default cache budget when neither config nor env specify one.
pub const DEFAULT_CACHE_BYTES: u64 = 256 << 20;

/// Service construction knobs. `0` / `None` means "resolve from the
/// environment, then the default" (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ServiceConfig {
    /// Solver options shared by every request (a request may override
    /// the engine method).
    pub options: SolverOptions,
    /// Symbolic-handle cache budget in bytes (`0` → env → 256 MiB).
    pub cache_bytes: u64,
    /// Admission limit: max requests in flight (`0` → env → 2 × lanes).
    pub queue_depth: usize,
    /// Deadline applied to requests that carry none of their own.
    pub default_deadline: Option<Duration>,
}

/// What one request asks for.
#[derive(Debug, Clone)]
pub enum RequestOp {
    /// Symbolic analysis only — warms the cache, reports sizes.
    Analyze,
    /// Numeric factorization; the factor is recycled after reporting.
    Factor,
    /// Factor + triangular solve for one right-hand side.
    Solve(Vec<f64>),
    /// Factor many value sets of the same pattern across the lanes.
    Batch(Vec<Vec<f64>>),
}

/// One service request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The matrix (pattern + values, lower triangle).
    pub matrix: SymCsc,
    /// The operation.
    pub op: RequestOp,
    /// Engine override; `None` uses the service's configured method.
    pub method: Option<Method>,
    /// Wall-clock budget; `None` uses the service default (if any).
    pub deadline: Option<Duration>,
}

impl Request {
    /// An analyze request with service-default method and deadline.
    pub fn analyze(matrix: SymCsc) -> Self {
        Request {
            matrix,
            op: RequestOp::Analyze,
            method: None,
            deadline: None,
        }
    }

    /// A factor request.
    pub fn factor(matrix: SymCsc) -> Self {
        Request {
            op: RequestOp::Factor,
            ..Request::analyze(matrix)
        }
    }

    /// A factor-and-solve request.
    pub fn solve(matrix: SymCsc, rhs: Vec<f64>) -> Self {
        Request {
            op: RequestOp::Solve(rhs),
            ..Request::analyze(matrix)
        }
    }

    /// A batched refactorization request.
    pub fn batch(matrix: SymCsc, value_sets: Vec<Vec<f64>>) -> Self {
        Request {
            op: RequestOp::Batch(value_sets),
            ..Request::analyze(matrix)
        }
    }
}

/// Timings and provenance for one completed request.
#[derive(Debug, Clone, Copy)]
pub struct RequestMetrics {
    /// The engine that served the request (the request's explicit
    /// method, else the service default).
    pub method: rlchol_core::Method,
    /// Time from submit to the start of numeric work, excluding any
    /// analysis this request ran itself (admission and cache lookup).
    pub queue_wait: Duration,
    /// How the handle lookup resolved.
    pub cache: CacheOutcome,
    /// Symbolic-analysis wall time (zero on hits and coalesced misses).
    pub analyze_wall: Duration,
    /// Numeric factorization wall time (zero for `Analyze`).
    pub factor_wall: Duration,
    /// Triangular-solve wall time (zero unless `Solve`).
    pub solve_wall: Duration,
    /// Recovery events (retries/fallbacks) the engine logged.
    pub recovery_events: usize,
    /// Per-stage breakdown of the analysis this request ran itself
    /// (`None` on hits and coalesced misses — those paid no analysis).
    /// Same schema as the CLI's `analyze` report, so a service operator
    /// can see *which* symbolic stage a cache-miss spike is spending its
    /// wall in and how many lanes the analysis ran on.
    pub analyze_stages: Option<rlchol_core::AnalyzeBreakdown>,
}

/// The answer to one request.
#[derive(Debug, Clone)]
pub enum ResponsePayload {
    /// Sizes of the analyzed pattern.
    Analyzed {
        /// Matrix dimension.
        n: usize,
        /// Factor nonzeros (lower triangle).
        factor_nnz: u64,
        /// Supernodes after amalgamation.
        supernodes: usize,
        /// Resident bytes the handle is charged in the cache.
        memory_bytes: u64,
    },
    /// Factorization report (the factor itself was recycled).
    Factored {
        /// Factor nonzeros.
        factor_nnz: u64,
        /// [`factor_info_json`] report.
        info_json: String,
    },
    /// Solution vector plus the factorization report.
    Solved {
        /// `x` solving `A x = b`, original ordering.
        x: Vec<f64>,
        /// [`factor_info_json`] report.
        info_json: String,
    },
    /// Per-slot outcomes of a batched refactorization.
    Batched {
        /// `Ok(())` per factored value set, typed error otherwise.
        outcomes: Vec<Result<(), FactorError>>,
    },
}

/// Payload + metrics for one completed request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The operation's result.
    pub payload: ResponsePayload,
    /// Per-request timings.
    pub metrics: RequestMetrics,
}

/// Point-in-time service counters.
#[derive(Debug, Clone, Copy)]
pub struct ServiceStats {
    /// Requests submitted (including sheds).
    pub submitted: u64,
    /// Requests that returned a payload.
    pub completed: u64,
    /// Requests shed by the admission gate.
    pub shed_overload: u64,
    /// Requests shed by deadline expiry (before or during work).
    pub shed_deadline: u64,
    /// Requests that failed with a non-shed error.
    pub failed: u64,
    /// Requests currently inside the admission gate.
    pub in_flight: usize,
    /// The admission limit.
    pub queue_depth: usize,
    /// Cache counters.
    pub cache: CacheStats,
}

#[derive(Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    shed_overload: u64,
    shed_deadline: u64,
    failed: u64,
}

/// The solver service. Cheap to share (`Arc<Service>`); every method
/// takes `&self` and is safe to call from many threads.
pub struct Service {
    options: SolverOptions,
    queue_depth: usize,
    default_deadline: Option<Duration>,
    cache: HandleCache,
    in_flight: Mutex<usize>,
    counters: Mutex<Counters>,
    cancel: CancelToken,
    shutdown: AtomicBool,
}

/// Admission-gate slot; decrements `in_flight` on drop (including
/// unwind), so a panicking request cannot leak capacity.
struct AdmissionSlot<'a> {
    service: &'a Service,
}

impl Drop for AdmissionSlot<'_> {
    fn drop(&mut self) {
        *self.service.in_flight.lock().unwrap() -= 1;
    }
}

thread_local! {
    static SOLVE_WS: RefCell<SolveWorkspace> = RefCell::new(SolveWorkspace::new());
}

impl Service {
    /// Builds a service, resolving every knob once (see module docs).
    pub fn new(cfg: ServiceConfig) -> Self {
        let cache_bytes = if cfg.cache_bytes > 0 {
            cfg.cache_bytes
        } else {
            env_positive("RLCHOL_CACHE_BYTES").map_or(DEFAULT_CACHE_BYTES, |v| v as u64)
        };
        let queue_depth = if cfg.queue_depth > 0 {
            cfg.queue_depth
        } else {
            // The admission gate is sized by the lane cap the cached
            // handles will get — the staged layer's own ladder.
            env_positive("RLCHOL_QUEUE_DEPTH")
                .unwrap_or_else(|| 2 * lanes::resolved_cap(cfg.options.factor_lanes))
        };
        Service {
            options: cfg.options,
            queue_depth,
            default_deadline: cfg.default_deadline,
            cache: HandleCache::new(cache_bytes),
            in_flight: Mutex::new(0),
            counters: Mutex::new(Counters::default()),
            cancel: CancelToken::default(),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The resolved admission limit.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// The solver options every request starts from.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// The handle cache (stats and test hooks).
    pub fn cache(&self) -> &HandleCache {
        &self.cache
    }

    /// Current counters.
    pub fn stats(&self) -> ServiceStats {
        let c = self.counters.lock().unwrap();
        ServiceStats {
            submitted: c.submitted,
            completed: c.completed,
            shed_overload: c.shed_overload,
            shed_deadline: c.shed_deadline,
            failed: c.failed,
            in_flight: *self.in_flight.lock().unwrap(),
            queue_depth: self.queue_depth,
            cache: self.cache.stats(),
        }
    }

    /// Stops accepting requests and cancels in-flight engine work.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.cancel.cancel();
    }

    /// True once [`shutdown`](Self::shutdown) has been called.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Runs one request to completion (or a typed error). Never blocks
    /// behind more than `queue_depth - 1` other requests; never exceeds
    /// the request's deadline without saying so.
    pub fn submit(&self, req: Request) -> Result<Response, ServiceError> {
        let t0 = Instant::now();
        self.counters.lock().unwrap().submitted += 1;
        let result = self.run(req, t0);
        let mut c = self.counters.lock().unwrap();
        match &result {
            Ok(_) => c.completed += 1,
            Err(ServiceError::Overloaded { .. }) => c.shed_overload += 1,
            Err(e) if e.is_shed() => c.shed_deadline += 1,
            Err(_) => c.failed += 1,
        }
        result
    }

    fn admit(&self) -> Result<AdmissionSlot<'_>, ServiceError> {
        let mut n = self.in_flight.lock().unwrap();
        if *n >= self.queue_depth {
            return Err(ServiceError::Overloaded {
                in_flight: *n,
                limit: self.queue_depth,
            });
        }
        *n += 1;
        Ok(AdmissionSlot { service: self })
    }

    fn run(&self, req: Request, t0: Instant) -> Result<Response, ServiceError> {
        if self.is_shutdown() {
            return Err(ServiceError::ShuttingDown);
        }
        let _slot = self.admit()?;

        let mut opts = self.options.clone();
        if let Some(m) = req.method {
            opts.method = m;
        }
        let key = PatternFingerprint::of_request(&req.matrix, &opts);

        let mut analyze_wall = Duration::ZERO;
        let (handle, outcome) = self.cache.get_or_analyze(key, || {
            let t = Instant::now();
            let h = SymbolicCholesky::new(&req.matrix, &opts);
            analyze_wall = t.elapsed();
            h
        });
        let queue_wait = t0.elapsed().saturating_sub(analyze_wall);

        // Remaining wall budget after admission + analysis; an already
        // expired budget sheds before any numeric work starts.
        let budget = req.deadline.or(self.default_deadline);
        let deadline = match budget {
            Some(b) => {
                let spent = t0.elapsed();
                if spent >= b {
                    return Err(ServiceError::DeadlineExceeded { waited: spent });
                }
                Deadline::wall(b - spent)
            }
            None => opts.deadline,
        };

        let mut metrics = RequestMetrics {
            method: handle.method(),
            queue_wait,
            cache: outcome,
            analyze_wall,
            factor_wall: Duration::ZERO,
            solve_wall: Duration::ZERO,
            recovery_events: 0,
            // Only the request that actually ran the analysis reports
            // the stage breakdown; hits and coalesced misses paid
            // nothing and claim nothing.
            analyze_stages: (analyze_wall > Duration::ZERO).then(|| handle.analyze_breakdown()),
        };

        let payload = match req.op {
            RequestOp::Analyze => ResponsePayload::Analyzed {
                n: handle.n(),
                factor_nnz: handle.factor_nnz(),
                supernodes: handle.symbolic().nsup(),
                memory_bytes: handle.memory_bytes(),
            },
            op @ (RequestOp::Factor | RequestOp::Solve(_)) => {
                let fact = handle.factor_with_ctl(&req.matrix, deadline, &self.cancel)?;
                metrics.factor_wall = fact.info().wall;
                metrics.recovery_events = fact.info().recovery.len();
                let info_json = factor_info_json(fact.info());
                let solved = match op {
                    RequestOp::Solve(rhs) => {
                        let mut x = vec![0.0; rhs.len()];
                        let t = Instant::now();
                        let r = SOLVE_WS.with(|ws| {
                            handle.solve_into(&fact, &rhs, &mut x, &mut ws.borrow_mut())
                        });
                        metrics.solve_wall = t.elapsed();
                        Some(r.map(|()| x))
                    }
                    _ => None,
                };
                handle.recycle(fact);
                match solved {
                    Some(x) => ResponsePayload::Solved { x: x?, info_json },
                    None => ResponsePayload::Factored {
                        factor_nnz: handle.factor_nnz(),
                        info_json,
                    },
                }
            }
            RequestOp::Batch(value_sets) => {
                let nnz = req.matrix.nnz_lower();
                for (i, set) in value_sets.iter().enumerate() {
                    if set.len() != nnz {
                        return Err(ServiceError::BadRequest(format!(
                            "batch value set {i} has {} values, pattern has {nnz}",
                            set.len()
                        )));
                    }
                }
                let mats: Vec<SymCsc> = value_sets
                    .iter()
                    .map(|set| {
                        let mut m = req.matrix.clone();
                        m.values_mut().copy_from_slice(set);
                        m
                    })
                    .collect();
                let refs: Vec<&SymCsc> = mats.iter().collect();
                let t = Instant::now();
                let results = handle.batch_factor_ctl(&refs, deadline, &self.cancel);
                metrics.factor_wall = t.elapsed();
                let outcomes = results
                    .into_iter()
                    .map(|r| {
                        r.map(|fact| {
                            metrics.recovery_events += fact.info().recovery.len();
                            handle.recycle(fact);
                        })
                    })
                    .collect();
                ResponsePayload::Batched { outcomes }
            }
        };

        Ok(Response { payload, metrics })
    }
}

/// JSON rendering of [`ServiceStats`] — shared by the wire protocol's
/// `stats` op and the bench report.
pub fn stats_json(stats: &ServiceStats) -> String {
    let cache = JsonObj::new()
        .u64("hits", stats.cache.hits)
        .u64("misses", stats.cache.misses)
        .u64("coalesced", stats.cache.coalesced)
        .u64("evictions", stats.cache.evictions)
        .u64("entries", stats.cache.entries as u64)
        .u64("bytes", stats.cache.bytes)
        .u64("peak_bytes", stats.cache.peak_bytes)
        .u64("budget_bytes", stats.cache.budget_bytes)
        .finish();
    JsonObj::new()
        .u64("submitted", stats.submitted)
        .u64("completed", stats.completed)
        .u64("shed_overload", stats.shed_overload)
        .u64("shed_deadline", stats.shed_deadline)
        .u64("failed", stats.failed)
        .u64("in_flight", stats.in_flight as u64)
        .u64("queue_depth", stats.queue_depth as u64)
        .raw("cache", &cache)
        .finish()
}
