//! Shared engine types and helpers.

use std::time::Duration;

use rlchol_dense::{potrf, trsm_rlt};
use rlchol_gpu::GpuStats;
use rlchol_perfmodel::{MachineModel, Trace, TraceOp};
use rlchol_symbolic::SymbolicFactor;

use crate::error::FactorError;
use crate::storage::FactorData;

/// The factorization engines of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Right-looking, CPU only (`RL_C` in Figure 3), run over the
    /// elimination tree by the CPU tree executor at
    /// [`SolverOptions::threads`](crate::SolverOptions::threads) lanes.
    RlCpu,
    /// Right-looking blocked, CPU only (`RLB_C`), on the same executor.
    RlbCpu,
    /// A synonym of [`Method::RlCpu`]: the same executor and the same
    /// bits. The name stays because the benchmark and the CLI use it.
    RlCpuPar,
    /// A synonym of [`Method::RlbCpu`], as [`Method::RlCpuPar`] is of
    /// [`Method::RlCpu`].
    RlbCpuPar,
    /// GPU-accelerated RL (`RL_G`).
    RlGpu,
    /// GPU-accelerated RLB, batched update transfer (first version, §III).
    RlbGpuV1,
    /// GPU-accelerated RLB, per-block transfers (second version, §III).
    RlbGpuV2,
    /// Pipelined multi-stream GPU-RL over the elimination-tree frontier.
    RlGpuPipe,
    /// Pipelined multi-stream GPU-RLB over the elimination-tree frontier.
    RlbGpuPipe,
}

impl Method {
    /// Every engine, in registry order. The CLI help text, the engine
    /// registry and the cross-engine tests all iterate this — adding a
    /// variant here is the single registration step.
    pub const ALL: [Method; 9] = [
        Method::RlCpu,
        Method::RlbCpu,
        Method::RlCpuPar,
        Method::RlbCpuPar,
        Method::RlGpu,
        Method::RlbGpuV1,
        Method::RlbGpuV2,
        Method::RlGpuPipe,
        Method::RlbGpuPipe,
    ];

    /// Short display name matching the paper's Figure 3 labels.
    pub fn label(&self) -> &'static str {
        match self {
            Method::RlCpu => "RL_C",
            Method::RlbCpu => "RLB_C",
            Method::RlCpuPar => "RL_C(par)",
            Method::RlbCpuPar => "RLB_C(par)",
            Method::RlGpu => "RL_G",
            Method::RlbGpuV1 => "RLB_G(v1)",
            Method::RlbGpuV2 => "RLB_G",
            Method::RlGpuPipe => "RL_G(pipe)",
            Method::RlbGpuPipe => "RLB_G(pipe)",
        }
    }

    /// True for the (simulated-)device engines — the ones
    /// [`GpuOptions`] applies to. Lets tests and harnesses pick
    /// per-engine configuration without a hand-maintained variant list.
    pub fn is_gpu(&self) -> bool {
        matches!(
            self,
            Method::RlGpu
                | Method::RlbGpuV1
                | Method::RlbGpuV2
                | Method::RlGpuPipe
                | Method::RlbGpuPipe
        )
    }

    /// Stable kebab-case name used on the command line (`--method`).
    pub fn cli_name(&self) -> &'static str {
        match self {
            Method::RlCpu => "rl",
            Method::RlbCpu => "rlb",
            Method::RlCpuPar => "rl-par",
            Method::RlbCpuPar => "rlb-par",
            Method::RlGpu => "rl-gpu",
            Method::RlbGpuV1 => "rlb-gpu-v1",
            Method::RlbGpuV2 => "rlb-gpu",
            Method::RlGpuPipe => "rl-gpu-pipe",
            Method::RlbGpuPipe => "rlb-gpu-pipe",
        }
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    /// Parses either the CLI name (`rlb-gpu`) or the paper label
    /// (`RLB_G`); both round-trip through [`Method::ALL`].
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Method::ALL
            .iter()
            .find(|m| m.cli_name() == s || m.label() == s)
            .copied()
            .ok_or_else(|| {
                let names: Vec<&str> = Method::ALL.iter().map(|m| m.cli_name()).collect();
                let labels: Vec<&str> = Method::ALL.iter().map(|m| m.label()).collect();
                format!(
                    "unknown method `{s}` (expected one of: {}; or a paper label: {})",
                    names.join(", "),
                    labels.join(", ")
                )
            })
    }
}

/// Which update formulation an engine applies after the panel step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Variant {
    /// One coarse SYRK forms the full update matrix, which is scattered
    /// into the ancestors (RL, §II-A).
    Rl,
    /// Per-block SYRK/GEMM updates straight into the ancestors (RLB,
    /// §II-B).
    Rlb,
}

/// Result of a CPU-only factorization.
#[derive(Debug)]
pub(crate) struct CpuRun {
    /// The numeric factor.
    pub factor: FactorData,
    /// Operation trace (replayable under any thread count).
    pub trace: Trace,
    /// Real wall-clock duration of this process's execution.
    pub wall: Duration,
    /// Peak bytes of RL update matrices alive at once (0 for RLB).
    pub peak_held_bytes: usize,
    /// Lanes the executor started (1: the one-lane sweep).
    pub lanes: usize,
}

/// How the pipelined engines retire host-side effects (staged-update
/// assembly, CPU-path supernodes, frontier releases).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetireMode {
    /// Retire in ascending supernode order (the default). The host
    /// waits on supernode `s`'s D2H before touching `s + 1`, even when
    /// a later supernode's staging landed long ago.
    InOrder,
    /// Retire out of order: land each supernode as soon as its D2H
    /// completes, applying updates into every target in the fixed
    /// ascending-source order via per-target sequence counters. Same
    /// kernels on the same operands in the same per-target order as the
    /// serial engines, so the factor stays bit-identical; only the
    /// host-wait interleaving (and thus the simulated clock) changes.
    Ooo,
}

impl RetireMode {
    /// Parses the `RLCHOL_RETIRE` environment variable: `inorder` or
    /// `ooo`; anything else (or unset) is `None`.
    pub fn from_env() -> Option<RetireMode> {
        match std::env::var("RLCHOL_RETIRE") {
            Ok(v) => match v.trim() {
                "inorder" => Some(RetireMode::InOrder),
                "ooo" => Some(RetireMode::Ooo),
                _ => None,
            },
            Err(_) => None,
        }
    }

    /// Stable lowercase name (the `RLCHOL_RETIRE` spelling).
    pub fn name(&self) -> &'static str {
        match self {
            RetireMode::InOrder => "inorder",
            RetireMode::Ooo => "ooo",
        }
    }
}

/// Options for the GPU-accelerated engines.
#[derive(Debug, Clone)]
pub struct GpuOptions {
    /// Machine model (CPU side + device).
    pub machine: MachineModel,
    /// Supernode-size threshold (columns × length): supernodes strictly
    /// below stay on the CPU (paper: 600 000 for RL, 750 000 for RLB at
    /// full scale). `0` reproduces the "GPU only" runs of §IV-B.
    pub threshold: usize,
    /// Allow the asynchronous copy-back to overlap host work (on by
    /// default; off is the ablation `paper threshold_sweep` runs).
    pub overlap: bool,
    /// Compute/copy stream pairs for the pipelined engines
    /// ([`Method::RlGpuPipe`], [`Method::RlbGpuPipe`]); `0` resolves to
    /// `RLCHOL_STREAMS` / its default (see
    /// [`rlchol_gpu::default_streams`]). The single-stream engines
    /// ignore it.
    pub streams: usize,
    /// Deterministic fault-injection plan installed on every device the
    /// engines build ([`rlchol_gpu::FaultPlan`]); `None` resolves to
    /// `RLCHOL_FAULTS` (see [`resolved_faults`](Self::resolved_faults)),
    /// usually absent — no faults.
    pub faults: Option<rlchol_gpu::FaultPlan>,
    /// Retirement mode for the pipelined engines; `None` resolves to
    /// `RLCHOL_RETIRE`, defaulting to [`RetireMode::InOrder`]. Either
    /// mode yields the same factor bits; out-of-order retirement only
    /// reorders host waits across *different* targets.
    pub retire: Option<RetireMode>,
}

impl GpuOptions {
    /// GPU engine options with the given threshold on the paper platform.
    pub fn with_threshold(threshold: usize) -> Self {
        GpuOptions {
            machine: MachineModel::perlmutter(16),
            threshold,
            overlap: true,
            streams: 0,
            faults: None,
            retire: None,
        }
    }

    /// The same options with an explicit stream-pair count.
    pub fn with_streams(mut self, streams: usize) -> Self {
        self.streams = streams;
        self
    }

    /// The same options with an explicit retirement mode.
    pub fn with_retire(mut self, retire: RetireMode) -> Self {
        self.retire = Some(retire);
        self
    }

    /// The stream-pair count with the fallback chain applied: an
    /// explicit nonzero [`streams`](Self::streams) wins, else
    /// `RLCHOL_STREAMS`, else the runtime default. The staged handle's
    /// workspace lanes call this once at construction so every lane
    /// carries explicit, stable stream options (environment reads
    /// allocate, and concurrent lanes must not re-resolve mid-flight).
    pub fn resolved_streams(&self) -> usize {
        if self.streams > 0 {
            self.streams
        } else {
            rlchol_gpu::default_streams()
        }
    }

    /// The retirement mode with the fallback chain applied:
    /// [`retire`](Self::retire), else `RLCHOL_RETIRE`, else in-order.
    /// Resolved per lane like
    /// [`resolved_streams`](Self::resolved_streams).
    pub fn resolved_retire(&self) -> RetireMode {
        self.retire
            .or_else(RetireMode::from_env)
            .unwrap_or(RetireMode::InOrder)
    }

    /// The fault plan with the fallback chain applied: an explicit
    /// [`faults`](Self::faults) wins, else a parseable non-empty
    /// `RLCHOL_FAULTS`, else none. Resolved once per lane like
    /// [`resolved_streams`](Self::resolved_streams), so explicit plans
    /// (the fault-sweep suite) are immune to the environment and the
    /// hot path never re-reads it. A malformed variable is reported on
    /// stderr rather than silently injecting nothing.
    pub fn resolved_faults(&self) -> Option<rlchol_gpu::FaultPlan> {
        if self.faults.is_some() {
            return self.faults.clone();
        }
        let v = std::env::var("RLCHOL_FAULTS").ok()?;
        match rlchol_gpu::FaultPlan::parse(&v) {
            Ok(plan) if !plan.is_empty() => Some(plan),
            Ok(_) => None,
            Err(e) => {
                eprintln!("rlchol: ignoring malformed RLCHOL_FAULTS: {e}");
                None
            }
        }
    }

    /// Builds the simulated device every GPU engine runs on, with the
    /// options' fault plan (if any) installed. Engines must create
    /// devices through this — a bare `Gpu::new` would silently escape
    /// fault injection.
    pub fn device(&self) -> rlchol_gpu::Gpu {
        match &self.faults {
            Some(plan) => rlchol_gpu::Gpu::with_faults(self.machine.gpu, plan.clone()),
            None => rlchol_gpu::Gpu::new(self.machine.gpu),
        }
    }
}

/// Result of a GPU-accelerated factorization.
#[derive(Debug)]
pub(crate) struct GpuRun {
    /// The numeric factor (identical structure to the CPU engines').
    pub factor: FactorData,
    /// Simulated end-to-end seconds (host + device timelines).
    pub sim_seconds: f64,
    /// Device counters (kernels, transfers, memory high-water mark).
    pub stats: GpuStats,
    /// Supernodes whose BLAS ran on the device.
    pub sn_on_gpu: usize,
    /// Compute/copy stream pairs actually used (1 for the single-stream
    /// engines; the pipelined engines may have shed pairs to fit device
    /// memory).
    pub streams_used: usize,
    /// Retirement mode this run used ([`RetireMode::InOrder`] for the
    /// single-stream engines).
    pub retire: RetireMode,
    /// Final lookahead window of an out-of-order run (the adaptive
    /// policy's last value); `0` for in-order runs.
    pub lookahead: usize,
    /// H2D transfers skipped because device-resident data from a
    /// previous factorization on the same workspace was still valid
    /// (staged-handle refactorization with GPU residency).
    pub transfers_saved: u64,
    /// Real wall-clock duration of this process's execution.
    pub wall: Duration,
}

/// Factors a supernode panel in place: POTRF on the `c × c` diagonal
/// block, then the panel TRSM (`B := B · L^{-T}`) on the `r` rows below.
/// Returns the failing local pivot on a nonpositive diagonal.
///
/// The two BLAS operands interleave by columns in supernodal storage, so
/// the triangle is copied out for the TRSM — the same approach the
/// blocked dense POTRF uses. `l11` is the caller-provided scratch for
/// that copy: engines allocate it once per factorization (it grows to
/// the largest diagonal block) so the per-supernode loop stays
/// allocation-free.
///
/// A wide panel — the root separator, often the only ready work — needs
/// no special path: `rlchol_dense` splits any large POTRF or TRSM across
/// the pool itself, with the same bits at any lane count.
fn factor_panel(
    arr: &mut [f64],
    len: usize,
    c: usize,
    r: usize,
    l11: &mut Vec<f64>,
) -> Result<(), usize> {
    potrf(c, arr, len).map_err(|e| e.pivot)?;
    if r > 0 {
        if l11.len() < c * c {
            l11.resize(c * c, 0.0);
        }
        for j in 0..c {
            for i in j..c {
                l11[j * c + i] = arr[j * len + i];
            }
        }
        trsm_rlt(r, c, &l11[..c * c], c, &mut arr[c..], len);
    }
    Ok(())
}

/// The panel step of every engine's host path: factors supernode `s`'s
/// panel `arr` in place ([`factor_panel`]) and reports its kernels to
/// `account` — the POTRF, then the TRSM when rows lie below. A
/// nonpositive pivot becomes [`FactorError::NotPositiveDefinite`] at its
/// global column, before anything is reported.
pub(crate) fn panel_step(
    sym: &SymbolicFactor,
    s: usize,
    arr: &mut [f64],
    l11: &mut Vec<f64>,
    mut account: impl FnMut(&TraceOp),
) -> Result<(), FactorError> {
    let c = sym.sn_ncols(s);
    let r = sym.sn_nrows_below(s);
    factor_panel(arr, sym.sn_len(s), c, r, l11).map_err(|pivot| {
        FactorError::NotPositiveDefinite {
            column: sym.sn.first_col(s) + pivot,
        }
    })?;
    account(&TraceOp::Potrf { n: c });
    if r > 0 {
        account(&TraceOp::Trsm { m: r, n: c });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_labels() {
        assert_eq!(Method::RlCpu.label(), "RL_C");
        assert_eq!(Method::RlbGpuV2.label(), "RLB_G");
    }

    #[test]
    fn method_names_round_trip() {
        for m in Method::ALL {
            assert_eq!(m.cli_name().parse::<Method>().unwrap(), m);
            assert_eq!(m.label().parse::<Method>().unwrap(), m);
        }
        // A typo's error message enumerates every valid spelling — the
        // CLI name and the paper label of each registered engine — so a
        // `--method` typo is not a dead end.
        let err = "bogus".parse::<Method>().unwrap_err();
        assert!(err.contains("unknown method `bogus`"), "{err}");
        for m in Method::ALL {
            assert!(err.contains(m.cli_name()), "`{err}` lacks {}", m.cli_name());
            assert!(err.contains(m.label()), "`{err}` lacks {}", m.label());
        }
    }

    #[test]
    fn retire_mode_names_and_option_precedence() {
        assert_eq!(RetireMode::InOrder.name(), "inorder");
        assert_eq!(RetireMode::Ooo.name(), "ooo");
        // An explicit option always wins over the environment/default
        // chain. (from_env itself is exercised end-to-end by CI's
        // `faults` job — mutating RLCHOL_RETIRE here would race parallel
        // tests.)
        let opts = GpuOptions::with_threshold(0);
        assert_eq!(
            opts.with_retire(RetireMode::Ooo).resolved_retire(),
            RetireMode::Ooo
        );
    }

    #[test]
    fn method_all_is_exhaustive_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for m in Method::ALL {
            assert!(seen.insert(m), "{m:?} listed twice");
        }
        assert_eq!(seen.len(), Method::ALL.len());
    }

    #[test]
    fn factor_panel_matches_full_potrf() {
        // A (len x c) panel whose full (len x len) completion is SPD.
        let (c, len) = (3usize, 7usize);
        let mut m = rlchol_dense::DMat::from_fn(len, len, |i, j| {
            if i == j {
                12.0
            } else {
                -1.0 / (1.0 + (i as f64 - j as f64).abs())
            }
        });
        let mut panel: Vec<f64> = (0..c)
            .flat_map(|j| (0..len).map(move |i| (i, j)))
            .map(|(i, j)| m[(i, j)])
            .collect();
        factor_panel(&mut panel, len, c, len - c, &mut Vec::new()).unwrap();
        rlchol_dense::potrf(len, m.as_mut_slice(), len).unwrap();
        for j in 0..c {
            for i in j..len {
                assert!(
                    (panel[j * len + i] - m[(i, j)]).abs() < 1e-12,
                    "panel ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn factor_panel_reports_pivot() {
        let mut bad = vec![0.0; 6]; // 3x2 panel, zero diagonal
        assert_eq!(factor_panel(&mut bad, 3, 2, 1, &mut Vec::new()), Err(0));
    }
}
