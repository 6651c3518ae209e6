//! The numeric-engine registry: one trait, nine engines, and the only
//! public way to run one.
//!
//! Inside the crate each engine family reports through its own shape
//! (`CpuRun` with a trace, `GpuRun` with simulated seconds and device
//! counters); neither those nor the per-engine `factor_*_ws` functions
//! are visible outside it. Every caller — the staged handle, the CLI,
//! the `paper` bin, benches, examples and tests — goes through one
//! interface:
//!
//! * [`NumericEngine`] — `factor(sym, a, ws)` produces an [`EngineRun`]:
//!   the factor plus a uniform [`FactorInfo`] (wall time, simulated
//!   seconds, supernodes on GPU, stream count, per-stream device stats,
//!   CPU trace).
//! * [`EngineWorkspace`] — the engine-resolved resources a
//!   [`SymbolicCholesky`](crate::SymbolicCholesky) handle owns across
//!   repeated factorizations: pool lanes, GPU options (threshold,
//!   stream pairs), recycled factor storage, and the serial engines'
//!   scratch buffers. Refactoring a same-pattern matrix reuses all of
//!   it — no factor reallocation, no scratch regrowth.
//! * [`engine_for`] — the registry lookup keyed by [`Method`]. Every
//!   variant of [`Method::ALL`] is registered; the exhaustiveness test
//!   below keeps the two lists in lock-step.

use std::time::Duration;

use rlchol_gpu::GpuStats;
use rlchol_perfmodel::{Trace, TraceOp};
use rlchol_sparse::SymCsc;
use rlchol_symbolic::SymbolicFactor;

use crate::engine::{CpuRun, GpuOptions, GpuRun, Method, RetireMode};
use crate::error::FactorError;
use crate::storage::FactorData;

/// Uniform per-factorization report, shared by every engine.
#[derive(Debug, Clone, Default)]
pub struct FactorInfo {
    /// Real wall-clock duration of the factorization.
    pub wall: Duration,
    /// Simulated end-to-end seconds on the paper platform (GPU engines
    /// only).
    pub sim_seconds: Option<f64>,
    /// Supernodes whose BLAS ran on the (simulated) device.
    pub sn_on_gpu: usize,
    /// Compute/copy stream pairs used (0 for the CPU engines; the
    /// pipelined engines may shed pairs to fit device memory).
    pub streams_used: usize,
    /// Device counters, including the per-stream kernel/transfer
    /// breakdown (GPU engines only).
    pub gpu: Option<GpuStats>,
    /// Retirement discipline the pipelined executor ran under
    /// (pipelined GPU engines only).
    pub retire: Option<RetireMode>,
    /// Final out-of-order lookahead window (0 when in-order or not a
    /// pipelined GPU engine; under adaptive lookahead this is the
    /// window's closing value).
    pub lookahead: usize,
    /// Host-to-device pattern-metadata transfers skipped because the
    /// staged handle kept the previous factorization's uploads resident
    /// (0 on cold runs and for non-pipelined engines).
    pub transfers_saved: u64,
    /// Operation trace, replayable under the performance model (CPU
    /// engines only).
    pub trace: Option<Trace>,
    /// Recovery steps the staged handle took to produce this factor
    /// (retries, fallbacks, lane quarantines); empty on a clean run.
    pub recovery: Vec<crate::resilience::RecoveryEvent>,
}

/// What an engine hands back: the numeric factor plus its report.
#[derive(Debug)]
pub struct EngineRun {
    /// The numeric factor.
    pub factor: FactorData,
    /// The uniform report.
    pub info: FactorInfo,
}

impl EngineRun {
    fn from_cpu(run: CpuRun) -> Self {
        EngineRun {
            factor: run.factor,
            info: FactorInfo {
                wall: run.wall,
                trace: Some(run.trace),
                ..FactorInfo::default()
            },
        }
    }

    fn from_gpu(run: GpuRun) -> Self {
        EngineRun {
            factor: run.factor,
            info: FactorInfo {
                wall: run.wall,
                sim_seconds: Some(run.sim_seconds),
                sn_on_gpu: run.sn_on_gpu,
                streams_used: run.streams_used,
                gpu: Some(run.stats),
                retire: Some(run.retire),
                lookahead: run.lookahead,
                transfers_saved: run.transfers_saved,
                ..FactorInfo::default()
            },
        }
    }
}

/// Engine-resolved resources, owned by a
/// [`SymbolicCholesky`](crate::SymbolicCholesky) handle and threaded
/// through every factorization it runs.
#[derive(Debug, Default)]
pub struct EngineWorkspace {
    /// Pool lanes for the task-parallel CPU engines; `0` resolves to
    /// `RLCHOL_THREADS` / available parallelism at use.
    pub lanes: usize,
    /// GPU engine options (threshold, machine model, stream pairs).
    /// `streams == 0` resolves to `RLCHOL_STREAMS` / its default.
    pub gpu: Option<GpuOptions>,
    /// Factor storage recycled from a previous same-pattern
    /// factorization; [`take_factor`](Self::take_factor) reuses it
    /// instead of reallocating.
    recycle: Option<FactorData>,
    /// RL's preallocated update-matrix workspace (§II-A), kept across
    /// refactorizations.
    pub(crate) upd: Vec<f64>,
    /// Diagonal-block copy scratch shared by the serial panel kernels.
    pub(crate) l11: Vec<f64>,
    /// Recycled trace buffer: [`take_trace`](Self::take_trace) hands it
    /// to the engine, the lane pool restocks it from factorizations
    /// returned through `SymbolicCholesky::recycle` — so the serial CPU
    /// engines' trace recording allocates nothing at steady state.
    pub(crate) trace_ops: Vec<TraceOp>,
    /// Deadline/cancellation control the `Frontier` executors check per
    /// supernode. Unarmed (a no-op) by default; the staged handle arms
    /// it per factorization.
    pub ctl: crate::resilience::RunCtl,
    /// Simulated device session (streams, per-lane buffers, uploaded
    /// pattern metadata) kept alive between same-pattern refactorizations
    /// by the pipelined engines. Only populated when
    /// [`residency_enabled`](Self::residency_enabled) is set.
    pub(crate) residency: Option<crate::sched::gpu::GpuResidency>,
    /// Whether the pipelined engines may keep their device session
    /// resident across calls. Off by default (one-shot `factor_*` calls
    /// get a fresh device each time, preserving allocation-ordinal
    /// determinism); the staged handle turns it on for its lanes.
    pub residency_enabled: bool,
}

impl EngineWorkspace {
    /// Workspace with explicitly resolved resources.
    pub fn new(lanes: usize, gpu: GpuOptions) -> Self {
        EngineWorkspace {
            lanes,
            gpu: Some(gpu),
            ..EngineWorkspace::default()
        }
    }

    /// Resolved lane count for the task-parallel engines.
    pub fn resolved_lanes(&self) -> usize {
        if self.lanes == 0 {
            rlchol_dense::pool::default_threads()
        } else {
            self.lanes
        }
    }

    /// Resolved GPU options (defaults to an everything-on-CPU threshold
    /// when none were provided).
    pub fn resolved_gpu(&self) -> GpuOptions {
        self.gpu
            .clone()
            .unwrap_or_else(|| GpuOptions::with_threshold(usize::MAX))
    }

    /// Hands storage for a factorization of `a`: the recycled factor
    /// when its shape matches `sym` (zeroed and reloaded in place),
    /// fresh storage otherwise.
    pub fn take_factor(&mut self, sym: &SymbolicFactor, a: &SymCsc) -> FactorData {
        match self.recycle.take() {
            Some(mut data) if data.shape_matches(sym) => {
                data.reload(sym, a);
                data
            }
            _ => FactorData::load(sym, a),
        }
    }

    /// Returns factor storage for reuse by the next
    /// [`take_factor`](Self::take_factor) call.
    pub fn recycle(&mut self, data: FactorData) {
        self.recycle = Some(data);
    }

    /// Whether recycled factor storage is already staged (the lane pool
    /// skips restocking from its shared bin when it is).
    pub fn has_recycled_factor(&self) -> bool {
        self.recycle.is_some()
    }

    /// Removes and returns the staged recycled storage, if any (the
    /// lane pool salvages it from overflow lanes before dropping them).
    pub fn take_recycled(&mut self) -> Option<FactorData> {
        self.recycle.take()
    }

    /// An empty [`Trace`] backed by the workspace's recycled buffer, so
    /// steady-state trace recording performs no heap allocation. The
    /// trace leaves with the engine's run; its buffer flows back through
    /// [`recycle_trace`](Self::recycle_trace) or the lane pool's bin.
    pub fn take_trace(&mut self) -> Trace {
        let mut ops = std::mem::take(&mut self.trace_ops);
        ops.clear();
        Trace { ops }
    }

    /// Returns a trace's buffer for reuse by the next
    /// [`take_trace`](Self::take_trace) call (keeps the larger of the
    /// two buffers).
    pub fn recycle_trace(&mut self, trace: Trace) {
        if trace.ops.capacity() > self.trace_ops.capacity() {
            self.trace_ops = trace.ops;
        }
    }

    /// Grows (never shrinks) the RL update workspace to `entries`.
    pub(crate) fn upd_mut(&mut self, entries: usize) -> &mut [f64] {
        if self.upd.len() < entries {
            self.upd.resize(entries, 0.0);
        }
        &mut self.upd
    }
}

/// A numeric factorization engine, dispatchable by [`Method`].
pub trait NumericEngine: Sync {
    /// The [`Method`] this engine implements (the registry key).
    fn method(&self) -> Method;

    /// Factors `a` (already permuted into factor order) for the
    /// structure `sym`, drawing storage and resources from `ws`.
    fn factor(
        &self,
        sym: &SymbolicFactor,
        a: &SymCsc,
        ws: &mut EngineWorkspace,
    ) -> Result<EngineRun, FactorError>;
}

macro_rules! cpu_engine {
    ($name:ident, $method:expr, $call:expr) => {
        struct $name;
        impl NumericEngine for $name {
            fn method(&self) -> Method {
                $method
            }
            fn factor(
                &self,
                sym: &SymbolicFactor,
                a: &SymCsc,
                ws: &mut EngineWorkspace,
            ) -> Result<EngineRun, FactorError> {
                #[allow(clippy::redundant_closure_call)]
                ($call)(sym, a, ws).map(EngineRun::from_cpu)
            }
        }
    };
}

macro_rules! gpu_engine {
    ($name:ident, $method:expr, $call:expr) => {
        struct $name;
        impl NumericEngine for $name {
            fn method(&self) -> Method {
                $method
            }
            fn factor(
                &self,
                sym: &SymbolicFactor,
                a: &SymCsc,
                ws: &mut EngineWorkspace,
            ) -> Result<EngineRun, FactorError> {
                let opts = ws.resolved_gpu();
                #[allow(clippy::redundant_closure_call)]
                ($call)(sym, a, &opts, ws).map(EngineRun::from_gpu)
            }
        }
    };
}

cpu_engine!(RlCpuEngine, Method::RlCpu, crate::rl::factor_rl_cpu_ws);
cpu_engine!(RlbCpuEngine, Method::RlbCpu, crate::rlb::factor_rlb_cpu_ws);
cpu_engine!(
    RlCpuParEngine,
    Method::RlCpuPar,
    |sym: &SymbolicFactor, a: &SymCsc, ws: &mut EngineWorkspace| {
        let lanes = ws.resolved_lanes();
        crate::sched::cpu::factor_rl_cpu_par_ws(sym, a, lanes, ws)
    }
);
cpu_engine!(
    RlbCpuParEngine,
    Method::RlbCpuPar,
    |sym: &SymbolicFactor, a: &SymCsc, ws: &mut EngineWorkspace| {
        let lanes = ws.resolved_lanes();
        crate::sched::cpu::factor_rlb_cpu_par_ws(sym, a, lanes, ws)
    }
);
gpu_engine!(RlGpuEngine, Method::RlGpu, crate::gpu_rl::factor_rl_gpu_ws);
gpu_engine!(
    RlbGpuV1Engine,
    Method::RlbGpuV1,
    |sym: &SymbolicFactor, a: &SymCsc, opts: &GpuOptions, ws: &mut EngineWorkspace| {
        crate::gpu_rlb::factor_rlb_gpu_ws(sym, a, opts, crate::gpu_rlb::RlbGpuVersion::V1, ws)
    }
);
gpu_engine!(
    RlbGpuV2Engine,
    Method::RlbGpuV2,
    |sym: &SymbolicFactor, a: &SymCsc, opts: &GpuOptions, ws: &mut EngineWorkspace| {
        crate::gpu_rlb::factor_rlb_gpu_ws(sym, a, opts, crate::gpu_rlb::RlbGpuVersion::V2, ws)
    }
);
gpu_engine!(
    RlGpuPipeEngine,
    Method::RlGpuPipe,
    crate::sched::gpu::factor_rl_gpu_pipe_ws
);
gpu_engine!(
    RlbGpuPipeEngine,
    Method::RlbGpuPipe,
    crate::sched::gpu::factor_rlb_gpu_pipe_ws
);

/// The registry, in [`Method::ALL`] order.
static ENGINES: [&dyn NumericEngine; 9] = [
    &RlCpuEngine,
    &RlbCpuEngine,
    &RlCpuParEngine,
    &RlbCpuParEngine,
    &RlGpuEngine,
    &RlbGpuV1Engine,
    &RlbGpuV2Engine,
    &RlGpuPipeEngine,
    &RlbGpuPipeEngine,
];

/// Looks up the engine registered for `method`.
pub fn engine_for(method: Method) -> &'static dyn NumericEngine {
    ENGINES
        .iter()
        .copied()
        .find(|e| e.method() == method)
        .expect("every Method variant is registered")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_method() {
        for m in Method::ALL {
            assert_eq!(engine_for(m).method(), m);
        }
        assert_eq!(ENGINES.len(), Method::ALL.len());
    }

    #[test]
    fn workspace_recycles_matching_storage() {
        use rlchol_matgen::laplace2d;
        use rlchol_symbolic::{analyze, SymbolicOptions};

        let a = laplace2d(6, 3);
        let sym = analyze(&a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        let mut ws = EngineWorkspace::default();
        let first = ws.take_factor(&sym, &ap);
        let ptr = first.sn[0].as_ptr();
        ws.recycle(first);
        let second = ws.take_factor(&sym, &ap);
        assert_eq!(second.sn[0].as_ptr(), ptr, "storage must be reused");
        assert_eq!(second, FactorData::load(&sym, &ap));
        // A shape mismatch falls back to fresh allocation.
        let b = laplace2d(7, 3);
        let sym_b = analyze(&b, &SymbolicOptions::default());
        let bp = b.permute(&sym_b.perm);
        ws.recycle(second);
        let third = ws.take_factor(&sym_b, &bp);
        assert_eq!(third, FactorData::load(&sym_b, &bp));
    }
}
