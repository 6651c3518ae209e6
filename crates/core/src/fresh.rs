//! Test support: each engine's crate-private entry on a fresh workspace,
//! so unit tests that probe `CpuRun` / `GpuRun` directly stay one-liners.
//! (Everything outside the crate goes through `engine_for`.)

use rlchol_sparse::SymCsc;
use rlchol_symbolic::SymbolicFactor;

use crate::engine::{CpuRun, GpuOptions, GpuRun, Variant};
use crate::error::FactorError;
use crate::gpu_rlb::RlbGpuVersion;
use crate::registry::EngineWorkspace;

type Cpu = Result<CpuRun, FactorError>;
type Gpu = Result<GpuRun, FactorError>;

fn ws() -> EngineWorkspace {
    EngineWorkspace::default()
}

pub(crate) fn factor_rl_cpu(sym: &SymbolicFactor, a: &SymCsc) -> Cpu {
    crate::sched::cpu::factor_cpu_ws(sym, a, Variant::Rl, &mut ws())
}

pub(crate) fn factor_rlb_cpu(sym: &SymbolicFactor, a: &SymCsc) -> Cpu {
    crate::sched::cpu::factor_cpu_ws(sym, a, Variant::Rlb, &mut ws())
}

pub(crate) fn factor_rl_gpu(sym: &SymbolicFactor, a: &SymCsc, opts: &GpuOptions) -> Gpu {
    crate::gpu_rl::factor_rl_gpu_ws(sym, a, opts, &mut ws())
}

pub(crate) fn factor_rlb_gpu(
    sym: &SymbolicFactor,
    a: &SymCsc,
    opts: &GpuOptions,
    version: RlbGpuVersion,
) -> Gpu {
    crate::gpu_rlb::factor_rlb_gpu_ws(sym, a, opts, version, &mut ws())
}

pub(crate) fn factor_rl_gpu_pipe(sym: &SymbolicFactor, a: &SymCsc, opts: &GpuOptions) -> Gpu {
    crate::sched::gpu::factor_rl_gpu_pipe_ws(sym, a, opts, &mut ws())
}

pub(crate) fn factor_rlb_gpu_pipe(sym: &SymbolicFactor, a: &SymCsc, opts: &GpuOptions) -> Gpu {
    crate::sched::gpu::factor_rlb_gpu_pipe_ws(sym, a, opts, &mut ws())
}
