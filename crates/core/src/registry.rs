//! The numeric-engine registry: one trait, eight engines, and the only
//! public way to run one.
//!
//! Every method computes its factor on the CPU tree executor
//! (`sched::cpu::factor_cpu_ws`, reporting a `CpuRun`). A device method
//! first runs its simulation, a clock over shapes that reports a
//! `GpuRun` with simulated seconds and device counters and fails typed
//! (device fault, out of memory, simulated deadline) before any
//! numerics; the factor then takes the update forms the simulation
//! priced. Neither report nor entry point is visible outside the crate.
//! Every caller — the staged handle, the CLI,
//! the `paper` bin, benches, examples and tests — goes through one
//! interface:
//!
//! * [`NumericEngine`] — `factor(sym, data, ws)` factors `data`, the
//!   matrix's values already loaded into supernodal storage
//!   ([`FactorData::load`] for a one-shot call), in place and produces an
//!   [`EngineRun`]: the factor plus a uniform [`FactorInfo`] (wall time,
//!   simulated seconds, supernodes on GPU, stream count, per-stream
//!   device stats, CPU trace).
//! * [`EngineWorkspace`] — the engine-resolved resources a
//!   [`SymbolicCholesky`](crate::SymbolicCholesky) handle owns across
//!   repeated factorizations, one per workspace lane: pool lanes, GPU
//!   options (threshold, stream pairs), the CPU executor's scratch
//!   buffers and a trace buffer. Refactoring a same-pattern matrix
//!   reuses all of it — no scratch regrowth. Factor storage is not part
//!   of it: the caller hands it in.
//! * [`engine_for`] — the registry lookup keyed by [`Method`]. Every
//!   variant of [`Method::ALL`] is registered; the exhaustiveness test
//!   below keeps the two lists in lock-step.

use std::time::Duration;

use rlchol_gpu::GpuStats;
use rlchol_perfmodel::{Trace, TraceOp};
use rlchol_symbolic::SymbolicFactor;

use crate::engine::{CpuRun, GpuOptions, Method, RetireMode, Variant};
use crate::error::FactorError;
use crate::storage::FactorData;

/// Uniform per-factorization report, shared by every engine.
#[derive(Debug, Clone, Default)]
pub struct FactorInfo {
    /// Real wall-clock duration of the numeric factorization on the CPU
    /// tree executor (a device method's simulation runs before it and is
    /// not counted).
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
    /// Peak bytes of RL update matrices alive at once on the CPU tree
    /// executor (0 for RLB, which updates in place and forms its strips
    /// one at a time). At most `lanes ×` the largest update matrix.
    pub peak_held_bytes: usize,
    /// Lanes the CPU tree executor started, for every method (1: the
    /// one-lane sweep, which it runs below its flop cutoff or beside
    /// another CPU factorization).
    pub lanes: usize,
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
    /// The executor's run, with what a simulation (device methods) or a
    /// trace (CPU methods) adds to its report.
    fn new(run: CpuRun, info: FactorInfo) -> Self {
        EngineRun {
            factor: run.factor,
            info: FactorInfo {
                wall: run.wall,
                peak_held_bytes: run.peak_held_bytes,
                lanes: run.lanes,
                ..info
            },
        }
    }
}

/// `lanes`, with `0` meaning `RLCHOL_THREADS` / available parallelism.
pub(crate) fn resolve_lanes(lanes: usize) -> usize {
    if lanes == 0 {
        rlchol_dense::pool::default_threads()
    } else {
        lanes
    }
}

/// Engine-resolved resources, owned by a
/// [`SymbolicCholesky`](crate::SymbolicCholesky) handle and threaded
/// through every factorization it runs.
#[derive(Debug, Default)]
pub struct EngineWorkspace {
    /// Lanes of the CPU tree executor; `0` resolves to
    /// `RLCHOL_THREADS` / available parallelism at use.
    pub lanes: usize,
    /// GPU engine options (threshold, machine model, stream pairs).
    /// `streams == 0` resolves to `RLCHOL_STREAMS` / its default.
    pub gpu: Option<GpuOptions>,
    /// The CPU executor's lane scratch and RL update-matrix buffers,
    /// kept across refactorizations.
    pub(crate) cpu: crate::sched::cpu::CpuScratch,
    /// Recycled trace buffer: [`take_trace`](Self::take_trace) hands it
    /// to the engine, the lane pool restocks it from factorizations
    /// returned through `SymbolicCholesky::recycle` — so the CPU
    /// executor's trace recording allocates nothing at steady state.
    pub(crate) trace_ops: Vec<TraceOp>,
    /// Deadline/cancellation control the tree executors check per
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

    /// Resolved lane count for the CPU tree executor.
    pub fn resolved_lanes(&self) -> usize {
        resolve_lanes(self.lanes)
    }

    /// Resolved GPU options (defaults to an everything-on-CPU threshold
    /// when none were provided).
    pub fn resolved_gpu(&self) -> GpuOptions {
        self.gpu
            .clone()
            .unwrap_or_else(|| GpuOptions::with_threshold(usize::MAX))
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
}

/// A numeric factorization engine, dispatchable by [`Method`].
pub trait NumericEngine: Sync {
    /// The [`Method`] this engine implements (the registry key).
    fn method(&self) -> Method;

    /// Factors in place the matrix whose values (in factor order) `data`
    /// holds, for the structure `sym`, drawing scratch and resources from
    /// `ws`. `data` must have `sym`'s length
    /// ([`FactorData::shape_matches`]); [`FactorData::load`] builds it
    /// from a permuted matrix. The factor comes back in
    /// [`EngineRun::factor`].
    fn factor(
        &self,
        sym: &SymbolicFactor,
        data: FactorData,
        ws: &mut EngineWorkspace,
    ) -> Result<EngineRun, FactorError>;
}

/// A CPU method: the one tree executor on its update variant.
struct CpuEngine(Method, Variant);

impl NumericEngine for CpuEngine {
    fn method(&self) -> Method {
        self.0
    }

    fn factor(
        &self,
        sym: &SymbolicFactor,
        data: FactorData,
        ws: &mut EngineWorkspace,
    ) -> Result<EngineRun, FactorError> {
        assert!(data.shape_matches(sym), "factor storage shape mismatch");
        let run = crate::sched::cpu::factor_cpu_ws(sym, data, self.1.into(), ws)?;
        let trace = Some(crate::sched::cpu::trace(sym, self.1, ws));
        Ok(EngineRun::new(
            run,
            FactorInfo {
                trace,
                ..FactorInfo::default()
            },
        ))
    }
}

/// A device method: its simulation, then the factor on the CPU tree
/// executor, in the update forms the simulation priced — RL everywhere,
/// or for RLB the strips on the offloaded supernodes and the direct
/// update on the rest.
struct GpuEngine(Method, Variant);

impl NumericEngine for GpuEngine {
    fn method(&self) -> Method {
        self.0
    }

    fn factor(
        &self,
        sym: &SymbolicFactor,
        data: FactorData,
        ws: &mut EngineWorkspace,
    ) -> Result<EngineRun, FactorError> {
        use crate::gpu_rlb::RlbGpuVersion::{V1, V2};
        use crate::sched::cpu::Plan;
        assert!(data.shape_matches(sym), "factor storage shape mismatch");
        let opts = ws.resolved_gpu();
        let sim = match self.0 {
            Method::RlGpu => crate::gpu_rl::simulate(sym, &data, &opts, ws),
            Method::RlbGpuV1 => crate::gpu_rlb::simulate(sym, &data, &opts, V1, ws),
            Method::RlbGpuV2 => crate::gpu_rlb::simulate(sym, &data, &opts, V2, ws),
            Method::RlGpuPipe | Method::RlbGpuPipe => {
                crate::sched::gpu::simulate(sym, &data, &opts, self.1, ws)
            }
            cpu => unreachable!("{cpu:?} is not a device method"),
        }?;
        let plan = match self.1 {
            Variant::Rl => Plan::Rl,
            Variant::Rlb => Plan::Strips {
                offloaded: &sim.offloaded,
                chunk: sim.strip_rows,
            },
        };
        let run = crate::sched::cpu::factor_cpu_ws(sym, data, plan, ws);
        // The executor's buffers (up to lanes × the largest update
        // matrix) go with the run: a device handle keeps its device
        // session between runs, not host scratch, so a process holding
        // many handles does not hold one slab each. A resident device
        // survives only clean runs.
        ws.cpu = Default::default();
        if run.is_err() {
            ws.residency = None;
        }
        let run = run?;
        let info = FactorInfo {
            sim_seconds: Some(sim.sim_seconds),
            sn_on_gpu: sim.offloaded.iter().filter(|&&b| b).count(),
            streams_used: sim.streams_used,
            gpu: Some(sim.stats),
            retire: Some(sim.retire),
            lookahead: sim.lookahead,
            transfers_saved: sim.transfers_saved,
            ..FactorInfo::default()
        };
        Ok(EngineRun::new(run, info))
    }
}

/// The registry, in [`Method::ALL`] order. `RlCpuPar` is a synonym of
/// `RlCpu`: every method runs the one tree executor.
static ENGINES: [&dyn NumericEngine; 8] = [
    &CpuEngine(Method::RlCpu, Variant::Rl),
    &CpuEngine(Method::RlbCpu, Variant::Rlb),
    &CpuEngine(Method::RlCpuPar, Variant::Rl),
    &GpuEngine(Method::RlGpu, Variant::Rl),
    &GpuEngine(Method::RlbGpuV1, Variant::Rlb),
    &GpuEngine(Method::RlbGpuV2, Variant::Rlb),
    &GpuEngine(Method::RlGpuPipe, Variant::Rl),
    &GpuEngine(Method::RlbGpuPipe, Variant::Rlb),
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
}
