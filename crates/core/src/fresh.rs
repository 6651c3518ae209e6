//! Test support: each method through the registry on a fresh workspace,
//! so unit tests stay one-liners.

use rlchol_sparse::SymCsc;
use rlchol_symbolic::SymbolicFactor;

use crate::engine::{GpuOptions, Method};
use crate::error::FactorError;
use crate::gpu_rlb::RlbGpuVersion;
use crate::registry::{engine_for, EngineRun, EngineWorkspace};
use crate::storage::FactorData;

type Run = Result<EngineRun, FactorError>;

fn run(method: Method, sym: &SymbolicFactor, a: &SymCsc, opts: Option<&GpuOptions>) -> Run {
    let mut ws = EngineWorkspace {
        gpu: opts.cloned(),
        ..EngineWorkspace::default()
    };
    engine_for(method).factor(sym, FactorData::load(sym, a), &mut ws)
}

pub(crate) fn factor_rl_cpu(sym: &SymbolicFactor, a: &SymCsc) -> Run {
    run(Method::RlCpu, sym, a, None)
}

pub(crate) fn factor_rlb_cpu(sym: &SymbolicFactor, a: &SymCsc) -> Run {
    run(Method::RlbCpu, sym, a, None)
}

pub(crate) fn factor_rl_gpu(sym: &SymbolicFactor, a: &SymCsc, opts: &GpuOptions) -> Run {
    run(Method::RlGpu, sym, a, Some(opts))
}

pub(crate) fn factor_rlb_gpu(
    sym: &SymbolicFactor,
    a: &SymCsc,
    opts: &GpuOptions,
    version: RlbGpuVersion,
) -> Run {
    let method = match version {
        RlbGpuVersion::V1 => Method::RlbGpuV1,
        RlbGpuVersion::V2 => Method::RlbGpuV2,
    };
    run(method, sym, a, Some(opts))
}

pub(crate) fn factor_rl_gpu_pipe(sym: &SymbolicFactor, a: &SymCsc, opts: &GpuOptions) -> Run {
    run(Method::RlGpuPipe, sym, a, Some(opts))
}

pub(crate) fn factor_rlb_gpu_pipe(sym: &SymbolicFactor, a: &SymCsc, opts: &GpuOptions) -> Run {
    run(Method::RlbGpuPipe, sym, a, Some(opts))
}

/// A device method's counters.
pub(crate) fn stats(run: &EngineRun) -> &rlchol_gpu::GpuStats {
    run.info
        .gpu
        .as_ref()
        .expect("device methods report counters")
}

/// A CPU method's trace.
pub(crate) fn trace(run: &EngineRun) -> &rlchol_perfmodel::Trace {
    run.info.trace.as_ref().expect("CPU methods record a trace")
}
