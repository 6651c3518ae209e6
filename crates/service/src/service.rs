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
//! # Cross-request batching
//!
//! Real service traffic is many small same-pattern systems (MPC /
//! time-stepping clients re-factoring one structure with fresh values).
//! With a batch window configured, deadline-free factor and solve
//! requests whose pattern fingerprints match and that arrive within
//! `batch_window_us` of each other are **coalesced into one
//! [`SymbolicCholesky::batch_factor_ctl`] fan-out** across the handle's
//! workspace lanes: the first request in becomes the group leader,
//! collects joiners for the window, then factors every member's values
//! in one batch call. Results are bit-identical to individual
//! submission (the batch runs the same per-matrix engine under the same
//! options), and every member's [`RequestMetrics`] records the realized
//! [`batch_size`](RequestMetrics::batch_size) and
//! [`coalesce_wait`](RequestMetrics::coalesce_wait). Requests carrying
//! an explicit deadline (or running under a service default deadline)
//! bypass the window — a latency budget is a promise not to sit in a
//! coalescing buffer.
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
//! | batch window | `batch_window_us > 0` | `RLCHOL_BATCH_WINDOW_US` | 0 (off) |
//!
//! (factor lanes themselves resolve `options.factor_lanes` >
//! `RLCHOL_FACTOR_LANES` > pool width, mirroring the staged API.)

use crate::cache::{CacheOutcome, CacheStats, HandleCache};
use crate::error::ServiceError;
use crate::fingerprint::PatternFingerprint;
use rlchol_core::json::{factor_info_json, JsonObj};
use rlchol_core::solver::SolverOptions;
use rlchol_core::staged::lanes;
use rlchol_core::{
    CancelToken, Deadline, FactorError, Factorization, Method, SolveWorkspace, SymbolicCholesky,
};
use rlchol_dense::pool::env_positive;
use rlchol_sparse::SymCsc;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Cross-request batching window in microseconds (`0` → env → off):
    /// deadline-free factor/solve requests on one pattern arriving
    /// within this window are factored in a single
    /// [`SymbolicCholesky::batch_factor_ctl`] fan-out.
    pub batch_window_us: u64,
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
    /// analysis this request ran itself (admission + coalesce wait).
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
    /// Members in the coalesced factor fan-out this request rode
    /// (1 = it ran alone; >1 = cross-request batching kicked in).
    pub batch_size: usize,
    /// Time spent in the coalescing buffer before the batch launched
    /// (zero when batching is off or the request was ineligible).
    pub coalesce_wait: Duration,
    /// Per-stage breakdown of the analysis this request ran itself
    /// (`None` on hits and coalesced misses — those paid no analysis).
    /// Same schema as the CLI's `analyze` report, so a service operator
    /// can see *which* symbolic stage a cache-miss spike is spending its
    /// wall in and whether `RLCHOL_ANALYZE_THREADS` is taking effect.
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
    /// Coalesced factor fan-outs executed with ≥ 2 members.
    pub coalesced_batches: u64,
    /// Requests that rode those fan-outs (sum of their batch sizes).
    pub coalesced_requests: u64,
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
    coalesced_batches: u64,
    coalesced_requests: u64,
}

/// The solver service. Cheap to share (`Arc<Service>`); every method
/// takes `&self` and is safe to call from many threads.
pub struct Service {
    options: SolverOptions,
    queue_depth: usize,
    default_deadline: Option<Duration>,
    batch_window: Option<Duration>,
    cache: HandleCache,
    coalescer: Coalescer,
    in_flight: Mutex<usize>,
    counters: Mutex<Counters>,
    cancel: CancelToken,
    shutdown: AtomicBool,
}

// ---------------------------------------------------------------------
// Cross-request factor coalescing
// ---------------------------------------------------------------------

/// Open coalescing groups, keyed by pattern fingerprint. A group exists
/// only while its leader is collecting joiners; the leader removes it
/// from the map (and closes it) before launching the batch, so a
/// request can never join a batch that already launched.
#[derive(Default)]
struct Coalescer {
    groups: Mutex<HashMap<PatternFingerprint, Arc<Group>>>,
}

#[derive(Default)]
struct Group {
    state: Mutex<GroupState>,
    cv: Condvar,
}

#[derive(Default)]
struct GroupState {
    /// Set (under the map lock) when the leader stops accepting
    /// joiners; a would-be joiner observing it retries the map.
    closed: bool,
    /// Member matrices in join order; index 0 is the leader's.
    matrices: Vec<SymCsc>,
    outcome: Option<GroupOutcome>,
}

/// What the leader publishes to every member once the batch ran.
struct GroupOutcome {
    /// When the batch launched — members derive their coalesce wait
    /// from it.
    exec_start: Instant,
    batch_size: usize,
    /// Per-member factorization results; each member takes its own slot
    /// (`None` once taken, or if the leader died before publishing).
    facts: Vec<Option<Result<Factorization, FactorError>>>,
}

/// Publishes an empty outcome on unwind so a panicking leader can never
/// strand its members on the condvar.
struct PublishGuard<'a> {
    group: &'a Group,
    members: usize,
    published: bool,
}

impl Drop for PublishGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            let mut st = self.group.state.lock().unwrap();
            st.outcome = Some(GroupOutcome {
                exec_start: Instant::now(),
                batch_size: self.members,
                facts: (0..self.members).map(|_| None).collect(),
            });
            drop(st);
            self.group.cv.notify_all();
        }
    }
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
        let batch_window_us = if cfg.batch_window_us > 0 {
            cfg.batch_window_us
        } else {
            env_positive("RLCHOL_BATCH_WINDOW_US").map_or(0, |v| v as u64)
        };
        Service {
            options: cfg.options,
            queue_depth,
            default_deadline: cfg.default_deadline,
            batch_window: (batch_window_us > 0).then(|| Duration::from_micros(batch_window_us)),
            cache: HandleCache::new(cache_bytes),
            coalescer: Coalescer::default(),
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

    /// The resolved cross-request batching window (`None` = batching
    /// off).
    pub fn batch_window(&self) -> Option<Duration> {
        self.batch_window
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
            coalesced_batches: c.coalesced_batches,
            coalesced_requests: c.coalesced_requests,
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
            batch_size: 1,
            coalesce_wait: Duration::ZERO,
            // Only the request that actually ran the analysis reports
            // the stage breakdown; hits and coalesced misses paid
            // nothing and claim nothing.
            analyze_stages: (analyze_wall > Duration::ZERO).then(|| handle.analyze_breakdown()),
        };

        // Deadline-free factor/solve traffic goes through the
        // cross-request coalescing window when one is configured; a
        // request with a latency budget never sits in the buffer.
        let coalesce = self.batch_window.is_some()
            && req.deadline.is_none()
            && self.default_deadline.is_none()
            && matches!(req.op, RequestOp::Factor | RequestOp::Solve(_));

        let payload = match req.op {
            RequestOp::Analyze => ResponsePayload::Analyzed {
                n: handle.n(),
                factor_nnz: handle.factor_nnz(),
                supernodes: handle.symbolic().nsup(),
                memory_bytes: handle.memory_bytes(),
            },
            RequestOp::Factor if coalesce => {
                self.run_coalesced(key, req.matrix, None, &handle, deadline, &mut metrics)?
            }
            RequestOp::Solve(rhs) if coalesce => {
                self.run_coalesced(key, req.matrix, Some(rhs), &handle, deadline, &mut metrics)?
            }
            RequestOp::Factor => {
                let fact = handle.factor_with_ctl(&req.matrix, deadline, &self.cancel)?;
                metrics.factor_wall = fact.info().wall;
                metrics.recovery_events = fact.info().recovery.len();
                let info_json = factor_info_json(fact.info());
                handle.recycle(fact);
                ResponsePayload::Factored {
                    factor_nnz: handle.factor_nnz(),
                    info_json,
                }
            }
            RequestOp::Solve(rhs) => {
                let fact = handle.factor_with_ctl(&req.matrix, deadline, &self.cancel)?;
                metrics.factor_wall = fact.info().wall;
                metrics.recovery_events = fact.info().recovery.len();
                let mut x = vec![0.0; rhs.len()];
                let t = Instant::now();
                let solved = SOLVE_WS
                    .with(|ws| handle.solve_into(&fact, &rhs, &mut x, &mut ws.borrow_mut()));
                metrics.solve_wall = t.elapsed();
                let info_json = factor_info_json(fact.info());
                handle.recycle(fact);
                solved?;
                ResponsePayload::Solved { x, info_json }
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

    /// Runs one factor/solve request through the coalescing window: the
    /// first request on a pattern becomes the group leader, sleeps the
    /// window collecting joiners, then factors every member's values in
    /// one [`SymbolicCholesky::batch_factor_ctl`] fan-out and hands each
    /// member its own [`Factorization`]. Followers block until the
    /// leader publishes; each member then reports, solves (if asked),
    /// and recycles its factor on its own thread. Bit-identical to solo
    /// submission: the batch runs the same per-matrix engine under the
    /// same options and deadline.
    fn run_coalesced(
        &self,
        key: PatternFingerprint,
        matrix: SymCsc,
        rhs: Option<Vec<f64>>,
        handle: &SymbolicCholesky,
        deadline: Deadline,
        metrics: &mut RequestMetrics,
    ) -> Result<ResponsePayload, ServiceError> {
        let window = self.batch_window.expect("caller checked eligibility");
        let t_join = Instant::now();
        enum Role {
            Leader(Arc<Group>),
            Follower(Arc<Group>, usize),
        }
        let mut matrix = Some(matrix);
        let role = loop {
            let mut groups = self.coalescer.groups.lock().unwrap();
            match groups.get(&key) {
                Some(g) => {
                    let g = Arc::clone(g);
                    drop(groups);
                    let mut st = g.state.lock().unwrap();
                    if st.closed {
                        // The leader is draining this group; it is about
                        // to leave the map — retry and start a new one.
                        continue;
                    }
                    st.matrices.push(matrix.take().expect("joined once"));
                    let idx = st.matrices.len() - 1;
                    drop(st);
                    break Role::Follower(g, idx);
                }
                None => {
                    let g = Arc::new(Group::default());
                    g.state
                        .lock()
                        .unwrap()
                        .matrices
                        .push(matrix.take().expect("led once"));
                    groups.insert(key, Arc::clone(&g));
                    break Role::Leader(g);
                }
            }
        };
        match role {
            Role::Leader(g) => {
                std::thread::sleep(window);
                // Close the window: out of the map first, then `closed`
                // under the state lock, so no joiner can slip into a
                // batch that already launched.
                let matrices = {
                    let mut groups = self.coalescer.groups.lock().unwrap();
                    groups.remove(&key);
                    let mut st = g.state.lock().unwrap();
                    st.closed = true;
                    std::mem::take(&mut st.matrices)
                };
                let mut publish = PublishGuard {
                    group: &g,
                    members: matrices.len(),
                    published: false,
                };
                let exec_start = Instant::now();
                metrics.coalesce_wait = exec_start.saturating_duration_since(t_join);
                metrics.batch_size = matrices.len();
                let refs: Vec<&SymCsc> = matrices.iter().collect();
                let results = handle.batch_factor_ctl(&refs, deadline, &self.cancel);
                let mut facts: Vec<Option<Result<Factorization, FactorError>>> =
                    results.into_iter().map(Some).collect();
                let mine = facts[0].take().expect("leader owns slot 0");
                if matrices.len() > 1 {
                    let mut c = self.counters.lock().unwrap();
                    c.coalesced_batches += 1;
                    c.coalesced_requests += matrices.len() as u64;
                }
                {
                    let mut st = g.state.lock().unwrap();
                    st.outcome = Some(GroupOutcome {
                        exec_start,
                        batch_size: facts.len(),
                        facts,
                    });
                }
                publish.published = true;
                g.cv.notify_all();
                self.finish_member(handle, mine, rhs, metrics)
            }
            Role::Follower(g, idx) => {
                let (fact, exec_start, batch_size) = {
                    let mut st = g.state.lock().unwrap();
                    while st.outcome.is_none() {
                        st = g.cv.wait(st).unwrap();
                    }
                    let o = st.outcome.as_mut().expect("loop exited on Some");
                    (o.facts[idx].take(), o.exec_start, o.batch_size)
                };
                metrics.batch_size = batch_size;
                metrics.coalesce_wait = exec_start.saturating_duration_since(t_join);
                // A `None` slot means the leader unwound before
                // publishing real results; surface it as a cancelled
                // factorization (typed, shed-classified) rather than
                // hanging or panicking a second thread.
                let fact = fact.ok_or(FactorError::Cancelled)?;
                self.finish_member(handle, fact, rhs, metrics)
            }
        }
    }

    /// Post-batch per-member work: report, optional solve against the
    /// member's own right-hand side, recycle the factor storage.
    fn finish_member(
        &self,
        handle: &SymbolicCholesky,
        fact: Result<Factorization, FactorError>,
        rhs: Option<Vec<f64>>,
        metrics: &mut RequestMetrics,
    ) -> Result<ResponsePayload, ServiceError> {
        let fact = fact?;
        metrics.factor_wall = fact.info().wall;
        metrics.recovery_events = fact.info().recovery.len();
        let info_json = factor_info_json(fact.info());
        match rhs {
            None => {
                handle.recycle(fact);
                Ok(ResponsePayload::Factored {
                    factor_nnz: handle.factor_nnz(),
                    info_json,
                })
            }
            Some(rhs) => {
                let mut x = vec![0.0; rhs.len()];
                let t = Instant::now();
                let solved = SOLVE_WS
                    .with(|ws| handle.solve_into(&fact, &rhs, &mut x, &mut ws.borrow_mut()));
                metrics.solve_wall = t.elapsed();
                handle.recycle(fact);
                solved?;
                Ok(ResponsePayload::Solved { x, info_json })
            }
        }
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
        .u64("coalesced_batches", stats.coalesced_batches)
        .u64("coalesced_requests", stats.coalesced_requests)
        .raw("cache", &cache)
        .finish()
}
