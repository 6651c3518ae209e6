//! The staged solver API: analyze **once**, factor **many**, solve
//! **many**.
//!
//! Workloads that re-factor a fixed sparsity pattern with new values —
//! interior-point iterations, time stepping, parameter sweeps — pay the
//! ordering + symbolic-analysis cost only once:
//!
//! ```text
//! let handle = CholeskySolver::analyze(&a, &opts);   // order + analyze
//! let mut fact = handle.factor_with(&a)?;            // numeric factor
//! loop {
//!     a.values_mut()...;                             // same pattern, new values
//!     handle.refactor(&mut fact, &a)?;               // reuses factor storage
//!     handle.solve_into(&fact, &b, &mut x, &mut ws); // zero allocation
//! }
//! ```
//!
//! * [`SymbolicCholesky`] owns the composed permutation, the symbolic
//!   factor, and the engine-resolved resources
//!   ([`EngineWorkspace`](crate::registry::EngineWorkspace): pool lanes,
//!   GPU stream pairs, recycled factor storage, per-engine scratch).
//! * [`SymbolicCholesky::factor_with`] /
//!   [`SymbolicCholesky::refactor`] accept any matrix with the analyzed
//!   pattern (a different pattern is the typed
//!   [`FactorError::PatternMismatch`]); `refactor` reuses the
//!   [`Factorization`]'s storage — no re-ordering, no re-analysis, no
//!   factor reallocation — and produces values bit-identical to a fresh
//!   one-shot factorization with the same engine.
//! * [`SymbolicCholesky::solve_into`] / [`solve_many`] /
//!   [`solve_refined`](SymbolicCholesky::solve_refined) run in caller
//!   buffers over a reusable [`SolveWorkspace`]: zero heap allocations
//!   per call once the workspace is warm.
//! * The handle is **`Send + Sync` and takes `&self` everywhere**, so an
//!   `Arc<SymbolicCholesky>` (or a scoped borrow) serves many threads at
//!   once: engine resources live in a [`lanes`] pool of independent
//!   workspaces (`factor_lanes` of them, see
//!   [`SolverOptions::factor_lanes`]), so concurrent
//!   `factor_with`/`refactor` calls run truly in parallel — each
//!   bit-identical to the serial path — and
//!   [`batch_factor`](SymbolicCholesky::batch_factor) fans a whole batch
//!   of value sets across the lanes on [`rlchol_dense::pool`].

pub mod lanes;

use std::time::Instant;

use rlchol_ordering::order;
use rlchol_sparse::{Permutation, SymCsc};
use rlchol_symbolic::{analyze_instrumented, SymbolicFactor};

use crate::engine::Method;
use crate::error::{FactorError, SolveError};
use crate::registry::{engine_for, FactorInfo, NumericEngine};
use crate::resilience::{
    CancelToken, Deadline, RecoveryAction, RecoveryEvent, RetryPolicy, RunCtl,
};
use crate::solve::{self, SolveInfo, SolvePlan};
use crate::solver::SolverOptions;
use crate::storage::FactorData;

use lanes::{Lane, LaneStats, WorkspaceLanes};

/// A numeric factor produced by [`SymbolicCholesky::factor_with`] and
/// refreshed in place by [`SymbolicCholesky::refactor`].
#[derive(Debug)]
pub struct Factorization {
    data: FactorData,
    info: FactorInfo,
    /// Cleared when a failed `refactor` consumes the storage; an
    /// explicit flag (rather than inspecting `data`) so a legitimately
    /// factored degenerate system stays valid.
    valid: bool,
}

impl Factorization {
    /// The numeric factor values.
    pub fn data(&self) -> &FactorData {
        &self.data
    }

    /// The engine's uniform report for the most recent (re)factorization.
    pub fn info(&self) -> &FactorInfo {
        &self.info
    }

    /// False after a numerically failed [`SymbolicCholesky::refactor`]
    /// consumed this factorization's storage: the handle stays usable
    /// (the next successful `refactor` revalidates it), but solving
    /// against an invalidated factorization is a caller bug and panics
    /// with this message. Callers that need the *previous* factor as a
    /// fallback after a failed update should `factor_with` into a
    /// separate [`Factorization`] instead of refactoring in place.
    pub fn is_valid(&self) -> bool {
        self.valid
    }
}

/// Reusable scratch for the permutation-transparent solves. One
/// workspace serves any number of sequential solves against any
/// [`Factorization`] of the same handle; buffers grow to the largest
/// request seen and are never shrunk, so steady-state calls allocate
/// nothing.
#[derive(Debug, Default)]
pub struct SolveWorkspace {
    /// Permuted right-hand side / solution block (`n × k` capacity).
    perm: Vec<f64>,
    /// Residual in original ordering (iterative refinement).
    resid: Vec<f64>,
    /// Correction in original ordering (iterative refinement).
    corr: Vec<f64>,
}

impl SolveWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        SolveWorkspace::default()
    }

    /// Pre-grows the buffers for `n`-sized systems with up to `k`
    /// simultaneous right-hand sides, so even the first solve allocates
    /// nothing.
    pub fn warm(n: usize, k: usize) -> Self {
        SolveWorkspace {
            perm: vec![0.0; n * k.max(1)],
            resid: vec![0.0; n],
            corr: vec![0.0; n],
        }
    }
}

/// Grows `buf` to at least `len` entries (never shrinks).
fn ensure_len(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Resolves the solve lane count once, at handle construction: an
/// explicit option wins, else `RLCHOL_SOLVE_THREADS`, else the pool
/// default. Returns `(lanes, forced)` — `forced` marks the first two
/// sources, which bypass the automatic small-system serial cutoff.
fn resolve_solve_threads(option: usize) -> (usize, bool) {
    if option > 0 {
        return (option, true);
    }
    match solve::env_solve_threads() {
        Some(t) => (t, true),
        None => (rlchol_dense::pool::default_threads(), false),
    }
}

/// Resolves the analyze lane count, same precedence as the solve lanes:
/// an explicit [`SolverOptions::analyze_threads`] wins, else
/// `RLCHOL_ANALYZE_THREADS`, else the pool default. `forced` marks the
/// first two sources, which bypass the small-system serial cutoff.
fn resolve_analyze_threads(option: usize) -> (usize, bool) {
    if option > 0 {
        return (option, true);
    }
    match rlchol_dense::pool::env_positive("RLCHOL_ANALYZE_THREADS") {
        Some(t) => (t, true),
        None => (rlchol_dense::pool::default_threads(), false),
    }
}

/// Below these sizes an automatically-sized analysis stays serial: the
/// pool dispatch and per-thread scratch cost more than the stages save.
/// A forced lane count (explicit option or environment) skips the
/// cutoff, which is what the bit-identity tests rely on.
const ANALYZE_PAR_MIN_N: usize = 1024;
const ANALYZE_PAR_MIN_NNZ: usize = 16_384;

/// Wall-clock breakdown of one symbolic analysis, stage by stage — the
/// instrumentation behind `rlchol analyze` and the service's cache-miss
/// metrics. All stages sum to (just under) the analyze wall: `ordering`
/// is the fill-reducing ordering and the permute that applies it;
/// `etree` through `relind` come from
/// [`rlchol_symbolic::analyze_instrumented`]; `solve_plan` and
/// `value_map` are the handle-construction stages added on top of the
/// symbolic factor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AnalyzeBreakdown {
    /// Fill-reducing ordering ([`SolverOptions::ordering`]) plus the
    /// symmetric permute that applies it (serial).
    pub ordering: std::time::Duration,
    /// Elimination tree + postorder + permutation (serial, fused).
    pub etree: std::time::Duration,
    /// Column counts via row-subtree traversal.
    pub colcount: std::time::Duration,
    /// Supernode detection, amalgamation, partition refinement.
    pub merge: std::time::Duration,
    /// Per-supernode row structures and relative-index blocks.
    pub relind: std::time::Duration,
    /// Level sets + gather segments for the tree-parallel sweeps.
    pub solve_plan: std::time::Duration,
    /// The input → factor-order value scatter map.
    pub value_map: std::time::Duration,
    /// The lane count the analysis actually ran with (after the
    /// automatic cutoff).
    pub threads: usize,
}

impl AnalyzeBreakdown {
    /// Sum of all instrumented stages.
    pub fn total(&self) -> std::time::Duration {
        self.ordering
            + self.etree
            + self.colcount
            + self.merge
            + self.relind
            + self.solve_plan
            + self.value_map
    }
}

/// Precomputes where each input value lands in factor order: entry
/// `(i, j)` of the input lower triangle becomes `(pi, pj)` sorted so the
/// larger index is the row — exactly what `permute` does.
///
/// With `threads > 1` the destination of every input entry is computed
/// first, into disjoint per-column-chunk slices on the pool, and the
/// map is then scattered serially. The map is a bijection (each factor
/// position receives exactly one input position), so the scatter's
/// result is independent of the chunking and identical to the serial
/// loop.
fn build_value_map(
    a: &SymCsc,
    a_fact: &SymCsc,
    total_perm: &Permutation,
    threads: usize,
) -> Vec<usize> {
    let n = a.n();
    let colptr = a.colptr();
    let nnz = a.nnz_lower();
    let mut value_map = vec![0usize; nnz];
    // Destination of input entry (i, j): the factor-order position of
    // the permuted entry.
    let dst_of = |j: usize, i: usize| -> usize {
        let pj = total_perm.new_of(j);
        let pi = total_perm.new_of(i);
        let (r, c) = if pi >= pj { (pi, pj) } else { (pj, pi) };
        let pos = a_fact
            .col_rows(c)
            .binary_search(&r)
            .expect("permuted entry exists in permuted pattern");
        a_fact.colptr()[c] + pos
    };
    if threads <= 1 || n < 2 * threads {
        for j in 0..n {
            for (off, &i) in a.col_rows(j).iter().enumerate() {
                value_map[dst_of(j, i)] = colptr[j] + off;
            }
        }
        return value_map;
    }
    // Phase 1 (parallel): per-entry destinations into `dst`, chunked at
    // nnz-balanced column boundaries so each task owns a disjoint slice.
    let mut dst = vec![0usize; nnz];
    let mut bounds = Vec::with_capacity(threads + 1);
    bounds.push(0usize);
    for t in 1..threads {
        let target = colptr[n] * t / threads;
        let cut = colptr.partition_point(|&p| p < target).min(n);
        bounds.push((*bounds.last().unwrap()).max(cut));
    }
    bounds.push(n);
    {
        let dst_of = &dst_of;
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(threads);
        let mut rest = dst.as_mut_slice();
        let mut consumed = 0usize;
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if lo == hi {
                continue;
            }
            let take = colptr[hi] - consumed;
            let (mine, tail) = rest.split_at_mut(take);
            rest = tail;
            let base = consumed;
            consumed = colptr[hi];
            tasks.push(Box::new(move || {
                for j in lo..hi {
                    for (off, &i) in a.col_rows(j).iter().enumerate() {
                        mine[colptr[j] + off - base] = dst_of(j, i);
                    }
                }
            }));
        }
        rlchol_dense::pool::global().run(tasks);
    }
    // Phase 2 (serial): scatter. Exactly the serial loop's writes, in a
    // different order over a bijection — same map.
    for (k, &d) in dst.iter().enumerate() {
        value_map[d] = k;
    }
    value_map
}

/// The analyzed half of the pipeline: composed permutation, symbolic
/// factor, resolved numeric engine, and the resources reused across
/// repeated factorizations. Produced by [`CholeskySolver::analyze`]
/// (`CholeskySolver` in [`crate::solver`]).
pub struct SymbolicCholesky {
    sym: SymbolicFactor,
    /// Original ordering → factor ordering.
    total_perm: Permutation,
    method: Method,
    engine: &'static dyn NumericEngine,
    /// Level sets + gather segments for the tree-parallel sweeps,
    /// computed once here (pattern-only) and consulted on every solve.
    plan: SolvePlan,
    /// Resolved solve lane count and whether it was forced (explicit
    /// [`SolverOptions::solve_threads`] or `RLCHOL_SOLVE_THREADS`)
    /// rather than derived from the pool default. Resolved **once** at
    /// construction (or [`set_solve_threads`](Self::set_solve_threads)):
    /// an environment read allocates, and the solve hot path must not.
    solve_lanes: usize,
    solve_forced: bool,
    /// The analyzed pattern (lower triangle of the *input* matrix), kept
    /// to reject same-handle calls with a different pattern.
    pattern_colptr: Vec<usize>,
    pattern_rowind: Vec<usize>,
    /// `a_fact.values[k] = a.values[value_map[k]]` — the precomputed
    /// scatter that moves input values into factor order without
    /// re-permuting the structure.
    value_map: Vec<usize>,
    /// The pool of independent engine workspaces (each with its own
    /// factor-ordered matrix) that lets `factor_with(&self, ..)` run
    /// concurrently from shared borrows — see [`lanes`].
    lanes: WorkspaceLanes,
    /// Fallback engines (degradation order), resolved once from
    /// [`SolverOptions::fallback`] — the registry lookup must not run on
    /// the recovery path.
    chain: Vec<(Method, &'static dyn NumericEngine)>,
    /// Bounded retries for transient device faults.
    retry: RetryPolicy,
    /// Per-factorization wall / simulated-seconds budget.
    deadline: Deadline,
    /// Handle-wide cancellation flag; armed into every factorization's
    /// [`RunCtl`] and checked by `batch_factor` before starting a slot.
    cancel: CancelToken,
    /// Stage-by-stage wall breakdown of the analysis that built this
    /// handle (see [`AnalyzeBreakdown`]).
    analyze_stages: AnalyzeBreakdown,
}

impl SymbolicCholesky {
    /// Orders and analyzes the pattern of `a`, resolving the engine and
    /// its resources from `opts`. Runs no numeric factorization.
    ///
    /// Resource precedence: explicit [`SolverOptions::threads`] /
    /// [`GpuOptions::streams`](crate::engine::GpuOptions::streams) win;
    /// a `0` in either defers to the `RLCHOL_THREADS` /
    /// `RLCHOL_STREAMS` environment variables (read at use), which in
    /// turn default to the machine's parallelism / the runtime default.
    pub fn new(a: &SymCsc, opts: &SolverOptions) -> Self {
        // Analyze lane count: explicit option / environment force it;
        // an automatic count stays serial below the cutoff, where the
        // pool dispatch costs more than the stages save.
        let (analyze_opt, analyze_forced) = resolve_analyze_threads(opts.analyze_threads);
        let analyze_lanes =
            if analyze_forced || a.n() >= ANALYZE_PAR_MIN_N || a.nnz_lower() >= ANALYZE_PAR_MIN_NNZ
            {
                analyze_opt.max(1)
            } else {
                1
            };

        let t = Instant::now();
        let fill = order(a, opts.ordering);
        let a_fill = a.permute(&fill);
        let ordering = t.elapsed();
        let (sym, sym_stages) = analyze_instrumented(&a_fill, &opts.symbolic, analyze_lanes);
        let total_perm = sym.perm.compose(&fill);
        let a_fact = a_fill.permute(&sym.perm);

        let mut analyze_stages = AnalyzeBreakdown {
            ordering,
            etree: sym_stages.etree,
            colcount: sym_stages.colcount,
            merge: sym_stages.merge,
            relind: sym_stages.relind,
            threads: analyze_lanes,
            ..AnalyzeBreakdown::default()
        };

        let t = Instant::now();
        let value_map = build_value_map(a, &a_fact, &total_perm, analyze_lanes);
        analyze_stages.value_map = t.elapsed();

        let engine = engine_for(opts.method);
        // Fault plans flow down: an explicit GpuOptions plan wins, else
        // the solver-level plan, else (inside the lane pool, resolved
        // once) the RLCHOL_FAULTS environment variable.
        let mut gpu = opts.gpu.clone();
        if gpu.faults.is_none() {
            gpu.faults = opts.faults.clone();
        }
        let lanes =
            WorkspaceLanes::new(opts.factor_lanes, opts.threads, gpu, a_fact, opts.lane_wait);
        let chain = opts
            .fallback
            .methods
            .iter()
            .map(|&m| (m, engine_for(m)))
            .collect();
        let t = Instant::now();
        let plan = SolvePlan::build_par(&sym, analyze_lanes);
        analyze_stages.solve_plan = t.elapsed();
        let (solve_lanes, solve_forced) = resolve_solve_threads(opts.solve_threads);
        SymbolicCholesky {
            sym,
            total_perm,
            method: opts.method,
            engine,
            plan,
            solve_lanes,
            solve_forced,
            pattern_colptr: a.colptr().to_vec(),
            pattern_rowind: a.rowind().to_vec(),
            value_map,
            lanes,
            chain,
            retry: opts.retry,
            deadline: opts.deadline,
            cancel: CancelToken::new(),
            analyze_stages,
        }
    }

    /// The symbolic factor (structure, counts, supernodes).
    pub fn symbolic(&self) -> &SymbolicFactor {
        &self.sym
    }

    /// Stage-by-stage wall breakdown of the analysis that built this
    /// handle, including the lane count it actually ran with.
    pub fn analyze_breakdown(&self) -> AnalyzeBreakdown {
        self.analyze_stages
    }

    /// True when `other` encodes the identical analysis: symbolic
    /// factor, composed permutation, solve plan, value map and analyzed
    /// pattern all compare equal. Engine resources, lane counts and
    /// stage timings are ignored — this is the handle-level statement of
    /// "the analysis is bit-identical", which the parallel-analyze tests
    /// assert across thread counts.
    pub fn analysis_eq(&self, other: &SymbolicCholesky) -> bool {
        self.sym == other.sym
            && self.total_perm == other.total_perm
            && self.plan == other.plan
            && self.value_map == other.value_map
            && self.pattern_colptr == other.pattern_colptr
            && self.pattern_rowind == other.pattern_rowind
    }

    /// The composed permutation from the input ordering to factor order.
    pub fn permutation(&self) -> &Permutation {
        &self.total_perm
    }

    /// The numeric engine this handle dispatches to.
    pub fn method(&self) -> Method {
        self.method
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.sym.n
    }

    /// Factor nonzeros (including amalgamation padding).
    pub fn factor_nnz(&self) -> u64 {
        self.sym.nnz
    }

    /// Estimated resident bytes of this handle: the symbolic structure,
    /// the cached solve plan, the retained pattern copy and value map,
    /// plus a worst-case workspace estimate for every lane the pool may
    /// create ([`factor_lanes`](Self::factor_lanes) ×
    /// [`lane_memory_bytes`](Self::lane_memory_bytes) — lanes are built
    /// lazily, so a lightly used handle occupies less; a cache evicting
    /// on this number never under-accounts). Counts element storage, not
    /// allocator slack.
    pub fn memory_bytes(&self) -> u64 {
        let usz = std::mem::size_of::<usize>() as u64;
        self.sym.memory_bytes()
            + self.plan.memory_bytes()
            + 2 * self.sym.n as u64 * usz // total_perm: old_of + new_of
            + (self.pattern_colptr.len() + self.pattern_rowind.len() + self.value_map.len())
                as u64
                * usz
            + self.factor_lanes() as u64 * self.lane_memory_bytes()
    }

    /// Worst-case heap bytes of one workspace lane: its private
    /// factor-ordered matrix plus the engine's factor storage, the
    /// dense update-matrix scratch (RL forms one `r × r` update per
    /// supernode), and the diagonal-block scratch.
    pub fn lane_memory_bytes(&self) -> u64 {
        let f64b = std::mem::size_of::<f64>() as u64;
        let max_diag = (0..self.sym.nsup())
            .map(|s| self.sym.sn_ncols(s) * self.sym.sn_ncols(s))
            .max()
            .unwrap_or(0) as u64;
        self.lanes.template_bytes()
            + self.sym.total_storage_entries() * f64b
            + self.sym.max_update_matrix_entries() as u64 * f64b
            + max_diag * f64b
    }

    /// Checks that `a` has exactly the analyzed sparsity pattern.
    fn check_pattern(&self, a: &SymCsc) -> Result<(), FactorError> {
        let expected_nnz = self.pattern_rowind.len();
        let mismatch = |column: usize| FactorError::PatternMismatch {
            column,
            expected_nnz,
            found_nnz: a.nnz_lower(),
        };
        let n = self.pattern_colptr.len() - 1;
        if a.n() != n {
            return Err(mismatch(a.n().min(n)));
        }
        if a.colptr() != self.pattern_colptr.as_slice()
            || a.rowind() != self.pattern_rowind.as_slice()
        {
            // Locate the first differing column for the error report.
            for j in 0..n {
                let lo = self.pattern_colptr[j];
                let hi = self.pattern_colptr[j + 1];
                if a.colptr()[j] != lo
                    || a.colptr()[j + 1] != hi
                    || a.col_rows(j) != &self.pattern_rowind[lo..hi]
                {
                    return Err(mismatch(j));
                }
            }
            return Err(mismatch(n));
        }
        Ok(())
    }

    /// Factors `a` — any matrix with the analyzed pattern — reusing the
    /// symbolic structure. Returns a new [`Factorization`]; to reuse an
    /// existing one's storage, call [`refactor`](Self::refactor) (or
    /// hand finished factorizations back with [`recycle`](Self::recycle)
    /// so later `factor_with` calls reuse their storage).
    ///
    /// Takes `&self`: up to [`factor_lanes`](Self::factor_lanes) calls
    /// run concurrently on independent workspace lanes, each producing a
    /// factor bit-identical to a serial call with the same engine;
    /// beyond that, callers block until a lane frees up — at most the
    /// handle's wait budget ([`SolverOptions::lane_wait`]), after which
    /// the call sheds with [`FactorError::LanesExhausted`].
    ///
    /// Device-side failures degrade per the handle's
    /// [`RetryPolicy`]/[`FallbackChain`](crate::resilience::FallbackChain)
    /// (each step recorded in [`FactorInfo::recovery`]); a factorization
    /// that still ends in a device error **quarantines its lane** — the
    /// possibly-poisoned workspace is torn down and rebuilt fresh on the
    /// next checkout.
    pub fn factor_with(&self, a: &SymCsc) -> Result<Factorization, FactorError> {
        self.factor_with_ctl(a, self.deadline, &self.cancel)
    }

    /// [`factor_with`](Self::factor_with) with a per-call [`Deadline`]
    /// and [`CancelToken`] overriding the handle defaults — the entry
    /// point a serving front end arms per request, so one shared handle
    /// can enforce a different remaining budget for every caller without
    /// re-analyzing. The deadline spans the whole call including
    /// retries/fallbacks, exactly like the handle-wide one.
    pub fn factor_with_ctl(
        &self,
        a: &SymCsc,
        deadline: Deadline,
        cancel: &CancelToken,
    ) -> Result<Factorization, FactorError> {
        self.check_pattern(a)?;
        let mut guard = self.lanes.checkout()?;
        let result = self.run_engine(guard.lane(), a, deadline, cancel);
        if let Err(e) = &result {
            if e.is_device() {
                guard.quarantine();
            }
        }
        result
    }

    /// Factors a batch of same-pattern value sets, fanning the work
    /// across the workspace lanes on [`rlchol_dense::pool`]. Results
    /// come back in input order, each independently `Ok` or `Err` — one
    /// indefinite matrix fails its own slot and nothing else. With `L`
    /// lanes and a pool of `t` threads, `min(L, t)` factorizations are
    /// in flight at a time. Cancelling the handle's
    /// [`cancel_token`](Self::cancel_token) fails not-yet-started slots
    /// with [`FactorError::Cancelled`] (in-flight ones abort at their
    /// next executor checkpoint).
    pub fn batch_factor(&self, batch: &[&SymCsc]) -> Vec<Result<Factorization, FactorError>> {
        self.batch_factor_ctl(batch, self.deadline, &self.cancel)
    }

    /// [`batch_factor`](Self::batch_factor) with a per-call [`Deadline`]
    /// and [`CancelToken`] overriding the handle defaults: every slot of
    /// the batch runs under the caller's budget, so a serving front end
    /// can bound a whole batch request without touching the shared
    /// handle's configuration.
    pub fn batch_factor_ctl(
        &self,
        batch: &[&SymCsc],
        deadline: Deadline,
        cancel: &CancelToken,
    ) -> Vec<Result<Factorization, FactorError>> {
        let mut out: Vec<Option<Result<Factorization, FactorError>>> =
            (0..batch.len()).map(|_| None).collect();
        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = batch
            .iter()
            .zip(out.iter_mut())
            .map(|(&a, slot)| {
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    *slot = Some(if cancel.is_cancelled() {
                        Err(FactorError::Cancelled)
                    } else {
                        self.factor_with_ctl(a, deadline, cancel)
                    });
                });
                task
            })
            .collect();
        rlchol_dense::pool::global().run(tasks);
        out.into_iter()
            .map(|r| r.expect("every batch task ran"))
            .collect()
    }

    /// Re-factors into `fact`, reusing both the symbolic structure and
    /// the factorization's storage: no re-ordering, no re-analysis, no
    /// factor reallocation. On [`FactorError::PatternMismatch`] the old
    /// factor is left untouched; on a numeric error (e.g.
    /// [`FactorError::NotPositiveDefinite`]) the storage was already
    /// consumed by the failed attempt, so `fact` is **invalidated**
    /// ([`Factorization::is_valid`] turns false and its stale `info` is
    /// cleared) until the next successful `refactor` — callers that
    /// need the previous factor as a fallback should `factor_with` into
    /// a separate [`Factorization`] instead.
    pub fn refactor(&self, fact: &mut Factorization, a: &SymCsc) -> Result<(), FactorError> {
        self.check_pattern(a)?;
        let mut guard = self.lanes.checkout()?;
        let lane = guard.lane();
        lane.ws.recycle(std::mem::take(&mut fact.data));
        // The replaced report's trace buffer feeds the new recording, so
        // a steady refactor loop never regrows it.
        if let Some(trace) = fact.info.trace.take() {
            lane.ws.recycle_trace(trace);
        }
        match self.run_engine(lane, a, self.deadline, &self.cancel) {
            Ok(fresh) => {
                *fact = fresh;
                Ok(())
            }
            Err(e) => {
                // Don't let stale data or a stale report masquerade as
                // the (failed) current state.
                fact.info = FactorInfo::default();
                fact.valid = false;
                if e.is_device() {
                    guard.quarantine();
                }
                Err(e)
            }
        }
    }

    /// Returns a finished [`Factorization`]'s storage (and trace buffer)
    /// to the lane pool, so subsequent [`factor_with`](Self::factor_with)
    /// calls reuse it instead of allocating. A serving loop of
    /// `factor_with` + `recycle` touches the heap only during warm-up —
    /// the factorization-side analogue of the zero-alloc solves.
    pub fn recycle(&self, fact: Factorization) {
        let Factorization { data, mut info, .. } = fact;
        let trace_ops = info.trace.take().map(|t| t.ops);
        self.lanes.recycle_parts(data, trace_ops);
    }

    /// Maximum concurrent factorizations this handle admits (the lane
    /// cap — precedence: [`SolverOptions::factor_lanes`] >
    /// `RLCHOL_FACTOR_LANES` > the pool default).
    pub fn factor_lanes(&self) -> usize {
        self.lanes.cap()
    }

    /// Usage counters of the workspace lane pool (lanes created, peak
    /// concurrency, contended checkouts, quarantined lanes).
    pub fn lane_stats(&self) -> LaneStats {
        self.lanes.stats()
    }

    /// The handle's cancellation token: clone it to any thread, call
    /// [`cancel`](CancelToken::cancel), and every in-flight
    /// factorization aborts with [`FactorError::Cancelled`] at its next
    /// executor checkpoint ([`batch_factor`](Self::batch_factor) also
    /// skips slots it has not started). [`reset`](CancelToken::reset)
    /// re-opens the handle for further work.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Scatters `a`'s values into the lane's factor-ordered matrix and
    /// runs the engine under the degradation policy: transient device
    /// faults retry on the same engine (bounded by the handle's
    /// [`RetryPolicy`]), persistent device failures move down the
    /// fallback chain reusing the already-scattered values, and data or
    /// control errors surface immediately. Every step lands in
    /// [`FactorInfo::recovery`].
    fn run_engine(
        &self,
        lane: &mut Lane,
        a: &SymCsc,
        deadline: Deadline,
        cancel: &CancelToken,
    ) -> Result<Factorization, FactorError> {
        let Lane { ws, a_fact } = lane;
        let src = a.values();
        for (dst, &from) in a_fact.values_mut().iter_mut().zip(&self.value_map) {
            *dst = src[from];
        }
        // One arming per factorization: the wall budget spans retries
        // and fallbacks (the attempts are one user-visible call), while
        // the simulated budget is checked per attempt against each
        // attempt's fresh device clock.
        ws.ctl = RunCtl::armed(deadline, cancel.clone());
        let mut recovery: Vec<RecoveryEvent> = Vec::new();
        let mut step = 0usize; // 0 = primary engine, 1.. = chain index
        let run = 'chain: loop {
            let (method, engine) = if step == 0 {
                (self.method, self.engine)
            } else {
                self.chain[step - 1]
            };
            let mut attempt = 0u32;
            loop {
                // Deadline/cancel strike between attempts too, so a
                // retry/fallback loop over CPU engines (which have no
                // internal checkpoints) still honors the budget.
                if let Err(e) = ws.ctl.check() {
                    break 'chain Err(e);
                }
                let err = match engine.factor(&self.sym, a_fact, ws) {
                    Ok(run) => break 'chain Ok(run),
                    Err(e) => e,
                };
                if err.is_transient() && attempt < self.retry.max_retries {
                    recovery.push(RecoveryEvent {
                        method,
                        attempt,
                        action: RecoveryAction::Retried,
                        error: err,
                    });
                    attempt += 1;
                    if !self.retry.backoff.is_zero() {
                        std::thread::sleep(self.retry.backoff);
                    }
                    continue;
                }
                if err.is_device() && step < self.chain.len() {
                    recovery.push(RecoveryEvent {
                        method,
                        attempt,
                        action: RecoveryAction::FellBack {
                            to: self.chain[step].0,
                        },
                        error: err,
                    });
                    step += 1;
                    continue 'chain;
                }
                break 'chain Err(err);
            }
        };
        let mut run = run?;
        run.info.recovery = recovery;
        Ok(Factorization {
            data: run.factor,
            info: run.info,
            valid: true,
        })
    }

    /// Overrides the handle's solve lane count (`0` restores the
    /// `RLCHOL_SOLVE_THREADS` / automatic resolution). Lets one analyzed
    /// handle serve configurations with different solve parallelism —
    /// e.g. a thread-sweep benchmark — without re-analyzing.
    pub fn set_solve_threads(&mut self, threads: usize) {
        let (lanes, forced) = resolve_solve_threads(threads);
        self.solve_lanes = lanes;
        self.solve_forced = forced;
    }

    /// How this handle's solves will run: plan shape (levels, width)
    /// plus the resolved thread count and selected path. The solve-side
    /// analogue of [`FactorInfo`].
    pub fn solve_info(&self) -> SolveInfo {
        let (threads, level_set) = self.solve_path();
        SolveInfo {
            levels: self.plan.num_levels(),
            max_width: self.plan.max_width(),
            threads,
            level_set,
            async_dispatch: false,
        }
    }

    /// The cached solve plan (level sets, gather segments).
    pub fn solve_plan(&self) -> &SolvePlan {
        &self.plan
    }

    /// Serial/parallel selection. The level-set path needs lanes *and*
    /// level width to pay for its barriers; under automatic resolution
    /// small systems stay serial too ([`solve::AUTO_MIN_N`]), while a
    /// forced thread count trusts the caller. Selection never affects
    /// results — the paths are bit-identical — only wall clock.
    fn solve_path(&self) -> (usize, bool) {
        let threads = self.solve_lanes;
        let wide = self.plan.max_width() > 1;
        let level_set =
            threads > 1 && wide && (self.solve_forced || self.sym.n >= solve::AUTO_MIN_N);
        (threads, level_set)
    }

    /// Runs the planned forward + backward sweeps on the factor-ordered
    /// block `bp` (`n × k`, column-major).
    fn run_sweeps(&self, fact: &Factorization, bp: &mut [f64], k: usize) {
        let (threads, level_set) = self.solve_path();
        if level_set {
            solve::solve_forward_level_set(&self.sym, &self.plan, &fact.data, bp, k, threads);
            solve::solve_backward_level_set(&self.sym, &self.plan, &fact.data, bp, k, threads);
        } else if k == 1 {
            solve::solve_forward(&self.sym, &fact.data, bp);
            solve::solve_backward(&self.sym, &fact.data, bp);
        } else {
            solve::solve_forward_multi(&self.sym, &fact.data, bp, k);
            solve::solve_backward_multi(&self.sym, &fact.data, bp, k);
        }
    }

    /// Checks one buffer's length against `n × k`.
    fn check_dim(
        &self,
        len: usize,
        k: usize,
        mk: fn(usize, usize) -> SolveError,
    ) -> Result<(), SolveError> {
        let expected = self.sym.n * k;
        if len != expected {
            return Err(mk(expected, len));
        }
        Ok(())
    }

    /// Solves `A x = b` (original ordering) into the caller's `x`,
    /// drawing scratch from `ws` — zero heap allocations once `ws` is
    /// warm. Takes the level-set path when the handle's solve plan
    /// selected it (see [`solve_info`](Self::solve_info)); results are
    /// bit-identical either way.
    pub fn solve_into(
        &self,
        fact: &Factorization,
        b: &[f64],
        x: &mut [f64],
        ws: &mut SolveWorkspace,
    ) -> Result<(), SolveError> {
        self.solve_perm(fact, b, x, &mut ws.perm)
    }

    /// Inner single-RHS solve against an explicit permutation scratch
    /// (lets refinement use the other workspace fields simultaneously).
    fn solve_perm(
        &self,
        fact: &Factorization,
        b: &[f64],
        x: &mut [f64],
        scratch: &mut Vec<f64>,
    ) -> Result<(), SolveError> {
        assert!(
            fact.is_valid(),
            "factorization was invalidated by a failed refactor; \
             refactor successfully before solving"
        );
        self.check_dim(b.len(), 1, |expected, found| SolveError::RhsDimension {
            expected,
            found,
        })?;
        self.check_dim(x.len(), 1, |expected, found| {
            SolveError::SolutionDimension { expected, found }
        })?;
        let n = self.sym.n;
        ensure_len(scratch, n);
        let bp = &mut scratch[..n];
        self.total_perm.apply_into(b, bp);
        self.run_sweeps(fact, bp, 1);
        self.total_perm.apply_inv_into(bp, x);
        Ok(())
    }

    /// Solves `A X = B` for `k` right-hand sides stored column-major in
    /// `b` (an `n × k` block, leading dimension `n`), writing the
    /// solutions into `x` with the same layout. The forward/backward
    /// sweeps are blocked over the supernodes (each panel is read once
    /// per sweep, not once per RHS) and take the level-set path when
    /// selected; zero heap allocations once `ws` is warm. `k == 0` is a
    /// valid empty request.
    pub fn solve_many(
        &self,
        fact: &Factorization,
        b: &[f64],
        x: &mut [f64],
        k: usize,
        ws: &mut SolveWorkspace,
    ) -> Result<(), SolveError> {
        assert!(
            fact.is_valid(),
            "factorization was invalidated by a failed refactor; \
             refactor successfully before solving"
        );
        self.check_dim(b.len(), k, |expected, found| SolveError::RhsDimension {
            expected,
            found,
        })?;
        self.check_dim(x.len(), k, |expected, found| {
            SolveError::SolutionDimension { expected, found }
        })?;
        if k == 0 || self.sym.n == 0 {
            return Ok(());
        }
        let n = self.sym.n;
        ensure_len(&mut ws.perm, n * k);
        let bp = &mut ws.perm[..n * k];
        for rhs in 0..k {
            self.total_perm
                .apply_into(&b[rhs * n..(rhs + 1) * n], &mut bp[rhs * n..(rhs + 1) * n]);
        }
        self.run_sweeps(fact, bp, k);
        for rhs in 0..k {
            self.total_perm
                .apply_inv_into(&bp[rhs * n..(rhs + 1) * n], &mut x[rhs * n..(rhs + 1) * n]);
        }
        Ok(())
    }

    /// Solves with iterative refinement on the in-place path, writing
    /// the solution into `x`; returns the final `‖b − A x‖∞`. Stops
    /// early when the residual stops improving (keeping the best
    /// iterate) or hits exactly zero; a NaN/Inf residual is the typed
    /// [`SolveError::NonFinite`] — non-finite inputs (or a corrupted
    /// factor) cannot converge, and a serving loop should reject the
    /// request rather than return a silently poisoned solution. Zero
    /// heap allocations once `ws` is warm.
    pub fn solve_refined(
        &self,
        fact: &Factorization,
        a: &SymCsc,
        b: &[f64],
        x: &mut [f64],
        max_iters: usize,
        ws: &mut SolveWorkspace,
    ) -> Result<f64, SolveError> {
        let n = self.sym.n;
        if a.n() != n {
            return Err(SolveError::MatrixDimension {
                expected: n,
                found: a.n(),
            });
        }
        let SolveWorkspace { perm, resid, corr } = ws;
        ensure_len(resid, n);
        ensure_len(corr, n);
        let resid = &mut resid[..n];
        let corr = &mut corr[..n];
        self.solve_perm(fact, b, x, perm)?;
        let mut last = f64::INFINITY;
        for iteration in 0..max_iters {
            a.matvec(x, resid);
            for i in 0..n {
                resid[i] = b[i] - resid[i];
            }
            // `f64::max` ignores NaN, so an all-NaN residual would fold
            // to 0.0 and read as converged; sum the absolute values
            // first (NaN-propagating) to catch any non-finite entry.
            if !resid.iter().map(|v| v.abs()).sum::<f64>().is_finite() {
                return Err(SolveError::NonFinite { iteration });
            }
            let norm = resid.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
            if norm >= last || norm == 0.0 {
                last = norm.min(last);
                break;
            }
            last = norm;
            self.solve_perm(fact, resid, corr, perm)
                .expect("workspace buffers are sized to n");
            for i in 0..n {
                x[i] += corr[i];
            }
        }
        Ok(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::CholeskySolver;
    use rlchol_matgen::{grid3d, laplace2d, Stencil};

    fn staged_default(a: &SymCsc) -> (SymbolicCholesky, Factorization) {
        let sc = SymbolicCholesky::new(a, &SolverOptions::default());
        let fact = sc.factor_with(a).unwrap();
        (sc, fact)
    }

    #[test]
    fn factor_with_matches_one_shot() {
        let a = grid3d(5, 4, 3, Stencil::Star7, 1, 9);
        let (sc, fact) = staged_default(&a);
        let one_shot = CholeskySolver::factor(&a, &SolverOptions::default()).unwrap();
        assert_eq!(fact.data(), one_shot.factor_data());
        assert_eq!(sc.factor_nnz(), one_shot.factor_nnz());
    }

    #[test]
    fn refactor_reuses_storage_bit_identically() {
        let a1 = laplace2d(9, 21);
        let a2 = laplace2d(9, 22); // same pattern, different values
        let (sc, mut fact) = staged_default(&a1);
        let ptr = fact.data().sn[0].as_ptr();
        sc.refactor(&mut fact, &a2).unwrap();
        assert_eq!(
            fact.data().sn[0].as_ptr(),
            ptr,
            "refactor must reuse the factor storage"
        );
        let fresh = CholeskySolver::factor(&a2, &SolverOptions::default()).unwrap();
        assert_eq!(fact.data(), fresh.factor_data());
    }

    #[test]
    fn pattern_mismatch_is_typed_and_leaves_factor_intact() {
        let a = laplace2d(8, 3);
        let other = laplace2d(9, 3);
        let (sc, mut fact) = staged_default(&a);
        let before = fact.data().clone();
        match sc.factor_with(&other) {
            Err(FactorError::PatternMismatch { .. }) => {}
            r => panic!("expected PatternMismatch, got {r:?}"),
        }
        match sc.refactor(&mut fact, &other) {
            Err(FactorError::PatternMismatch { .. }) => {}
            r => panic!("expected PatternMismatch, got {r:?}"),
        }
        assert_eq!(fact.data(), &before);
        // Same nnz but shifted pattern must also be rejected.
        let mut t = rlchol_sparse::TripletMatrix::new(a.n(), a.n());
        for j in 0..a.n() {
            t.push(j, j, 4.0);
        }
        let diag = SymCsc::from_lower_triplets(&t).unwrap();
        assert!(matches!(
            sc.factor_with(&diag),
            Err(FactorError::PatternMismatch { .. })
        ));
    }

    #[test]
    fn solve_into_and_many_match_allocating_path() {
        let a = grid3d(4, 4, 4, Stencil::Star7, 1, 5);
        let n = a.n();
        let (sc, fact) = staged_default(&a);
        let solver = CholeskySolver::factor(&a, &SolverOptions::default()).unwrap();
        let mut ws = SolveWorkspace::new();
        let k = 3;
        let b: Vec<f64> = (0..n * k).map(|i| ((i * 13) % 31) as f64 - 15.0).collect();
        let mut x = vec![0.0; n];
        let mut xs = vec![0.0; n * k];
        sc.solve_many(&fact, &b, &mut xs, k, &mut ws).unwrap();
        for rhs in 0..k {
            let col = &b[rhs * n..(rhs + 1) * n];
            sc.solve_into(&fact, col, &mut x, &mut ws).unwrap();
            let reference = solver.solve(col);
            for i in 0..n {
                assert_eq!(x[i], reference[i], "solve_into rhs {rhs} entry {i}");
                assert_eq!(
                    xs[rhs * n + i],
                    reference[i],
                    "solve_many rhs {rhs} entry {i}"
                );
            }
        }
    }

    #[test]
    fn solve_refined_reduces_residual_in_place() {
        let a = laplace2d(12, 6);
        let n = a.n();
        let (sc, fact) = staged_default(&a);
        let b: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 - 8.0).collect();
        let mut x = vec![0.0; n];
        let mut ws = SolveWorkspace::warm(n, 1);
        let resid = sc.solve_refined(&fact, &a, &b, &mut x, 3, &mut ws).unwrap();
        assert!(resid < 1e-9, "refined residual {resid}");
    }

    #[test]
    fn solve_dimension_mismatches_are_typed() {
        let a = laplace2d(6, 3);
        let n = a.n();
        let (sc, fact) = staged_default(&a);
        let mut ws = SolveWorkspace::new();
        let long = vec![1.0; n + 1];
        let mut x = vec![0.0; n];
        assert_eq!(
            sc.solve_into(&fact, &long, &mut x, &mut ws),
            Err(SolveError::RhsDimension {
                expected: n,
                found: n + 1
            })
        );
        let b = vec![1.0; n];
        let mut short = vec![0.0; n - 1];
        assert_eq!(
            sc.solve_into(&fact, &b, &mut short, &mut ws),
            Err(SolveError::SolutionDimension {
                expected: n,
                found: n - 1
            })
        );
        // Blocked entry point: the expected length scales with k.
        let mut x2 = vec![0.0; 2 * n];
        assert_eq!(
            sc.solve_many(&fact, &b, &mut x2, 2, &mut ws),
            Err(SolveError::RhsDimension {
                expected: 2 * n,
                found: n
            })
        );
        assert_eq!(
            sc.solve_refined(&fact, &a, &long, &mut x, 2, &mut ws),
            Err(SolveError::RhsDimension {
                expected: n,
                found: n + 1
            })
        );
        // A wrong-dimension matrix is rejected before any sweep runs.
        let other = laplace2d(7, 3);
        assert_eq!(
            sc.solve_refined(&fact, &other, &b, &mut x, 2, &mut ws),
            Err(SolveError::MatrixDimension {
                expected: n,
                found: other.n()
            })
        );
        // A failed call leaves the buffers usable for a correct one.
        sc.solve_into(&fact, &b, &mut x, &mut ws).unwrap();
    }

    #[test]
    fn zero_rhs_and_empty_system_solve_cleanly() {
        // k = 0: a valid empty request, not an assertion failure.
        let a = laplace2d(5, 2);
        let (sc, fact) = staged_default(&a);
        let mut ws = SolveWorkspace::new();
        sc.solve_many(&fact, &[], &mut [], 0, &mut ws).unwrap();
        // n = 0: an empty SPD system end to end — analyze, factor,
        // every solve entry point.
        let t = rlchol_sparse::TripletMatrix::new(0, 0);
        let empty = SymCsc::from_lower_triplets(&t).unwrap();
        let (sc0, fact0) = staged_default(&empty);
        sc0.solve_into(&fact0, &[], &mut [], &mut ws).unwrap();
        sc0.solve_many(&fact0, &[], &mut [], 3, &mut ws).unwrap();
        let r = sc0
            .solve_refined(&fact0, &empty, &[], &mut [], 2, &mut ws)
            .unwrap();
        assert_eq!(r, 0.0);
        let info = sc0.solve_info();
        assert_eq!(info.levels, 0);
        assert!(!info.level_set);
    }

    #[test]
    fn solve_info_reports_plan_and_forced_path() {
        let a = grid3d(6, 6, 5, Stencil::Star7, 1, 31);
        let mut sc = SymbolicCholesky::new(
            &a,
            &SolverOptions {
                solve_threads: 4,
                ..SolverOptions::default()
            },
        );
        let info = sc.solve_info();
        assert!(info.levels > 1);
        assert!(info.max_width > 1, "ND-ordered 3-D grid has level width");
        assert_eq!(info.threads, 4);
        assert!(
            info.level_set,
            "explicit threads > 1 force the level-set path"
        );
        sc.set_solve_threads(1);
        assert!(!sc.solve_info().level_set, "1 thread forces serial");
    }

    #[test]
    fn handle_is_send_sync_and_reports_lane_usage() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SymbolicCholesky>();

        let a = laplace2d(6, 2);
        let sc = SymbolicCholesky::new(
            &a,
            &SolverOptions {
                factor_lanes: 3,
                ..SolverOptions::default()
            },
        );
        assert_eq!(sc.factor_lanes(), 3);
        let f = sc.factor_with(&a).unwrap();
        let st = sc.lane_stats();
        assert_eq!(
            (st.cap, st.created, st.in_use, st.checkouts),
            (3, 1, 0, 1),
            "one serial call creates exactly one lane and returns it"
        );
        // Recycled storage is reused by the next factorization.
        let ptr = f.data().sn[0].as_ptr();
        sc.recycle(f);
        let f2 = sc.factor_with(&a).unwrap();
        assert_eq!(
            f2.data().sn[0].as_ptr(),
            ptr,
            "factor_with must pick up recycled storage"
        );
    }

    #[test]
    fn batch_factor_matches_serial_and_isolates_errors() {
        let a0 = laplace2d(9, 4);
        let mut sets: Vec<SymCsc> = (5..9).map(|s| laplace2d(9, s)).collect();
        // Same pattern, indefinite values in slot 2 only.
        let dpos = sets[2].colptr()[4];
        sets[2].values_mut()[dpos] = -40.0;
        let sc = SymbolicCholesky::new(
            &a0,
            &SolverOptions {
                factor_lanes: 2,
                ..SolverOptions::default()
            },
        );
        let refs: Vec<&SymCsc> = sets.iter().collect();
        let results = sc.batch_factor(&refs);
        assert_eq!(results.len(), sets.len());
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                assert!(
                    matches!(r, Err(FactorError::NotPositiveDefinite { .. })),
                    "indefinite slot must fail alone, got {r:?}"
                );
            } else {
                let fresh = CholeskySolver::factor(&sets[i], &SolverOptions::default()).unwrap();
                assert_eq!(
                    r.as_ref().unwrap().data(),
                    fresh.factor_data(),
                    "batch slot {i} differs from serial"
                );
            }
        }
        assert!(sc.lane_stats().peak_in_use <= 2, "lane cap respected");
        // An empty batch is a valid empty request.
        assert!(sc.batch_factor(&[]).is_empty());
    }

    #[test]
    fn memory_bytes_scales_with_lanes_and_covers_the_factor() {
        let a = grid3d(5, 4, 3, Stencil::Star7, 1, 2);
        let lanes = |n: usize| SolverOptions {
            factor_lanes: n,
            ..SolverOptions::default()
        };
        let one = SymbolicCholesky::new(&a, &lanes(1));
        let four = SymbolicCholesky::new(&a, &lanes(4));
        let base = one.memory_bytes();
        assert!(base > 0);
        // The per-lane estimate includes at least the lane's private
        // factor-ordered matrix copy.
        assert!(one.lane_memory_bytes() >= a.memory_bytes());
        // The estimate is linear in the lane cap beyond the shared part.
        assert_eq!(four.memory_bytes(), base + 3 * one.lane_memory_bytes());
        // It covers the real factor storage a lane ends up holding.
        let fact = one.factor_with(&a).unwrap();
        let stored: u64 = fact.data().sn.iter().map(|v| v.len() as u64 * 8).sum();
        assert!(
            one.lane_memory_bytes() >= stored,
            "estimate {} under-counts factor storage {stored}",
            one.lane_memory_bytes()
        );
    }

    #[test]
    fn per_request_ctl_overrides_handle_defaults() {
        let a = grid3d(4, 4, 3, Stencil::Star7, 1, 3);
        let sc = SymbolicCholesky::new(&a, &SolverOptions::default());
        // An already-expired per-request wall budget trips the first
        // checkpoint without touching the handle's (unlimited) default.
        let r = sc.factor_with_ctl(
            &a,
            Deadline::wall(std::time::Duration::ZERO),
            &CancelToken::new(),
        );
        assert!(
            matches!(r, Err(FactorError::DeadlineExceeded { .. })),
            "{r:?}"
        );
        assert!(sc.factor_with(&a).is_ok(), "handle default unaffected");
        // A per-request cancel token aborts only its own request.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert!(matches!(
            sc.factor_with_ctl(&a, Deadline::none(), &cancelled),
            Err(FactorError::Cancelled)
        ));
        let by_batch = sc.batch_factor_ctl(&[&a, &a], Deadline::none(), &cancelled);
        assert!(by_batch
            .iter()
            .all(|r| matches!(r, Err(FactorError::Cancelled))));
        assert!(sc.factor_with(&a).is_ok(), "handle token still open");
    }

    #[test]
    fn non_pd_refactor_reports_error_and_handle_recovers() {
        let a = laplace2d(7, 2);
        let (sc, mut fact) = staged_default(&a);
        // Same pattern, indefinite values: negate a diagonal entry.
        let mut bad = a.clone();
        let dpos = bad.colptr()[3];
        bad.values_mut()[dpos] = -50.0;
        assert!(matches!(
            sc.refactor(&mut fact, &bad),
            Err(FactorError::NotPositiveDefinite { .. })
        ));
        // The failed refactor consumed the storage: the factorization is
        // invalidated (no stale data/info), not silently half-written.
        assert!(!fact.is_valid());
        assert!(fact.info().trace.is_none());
        // The handle stays usable: a good refactor matches one-shot.
        sc.refactor(&mut fact, &a).unwrap();
        assert!(fact.is_valid());
        let fresh = CholeskySolver::factor(&a, &SolverOptions::default()).unwrap();
        assert_eq!(fact.data(), fresh.factor_data());
    }
}
