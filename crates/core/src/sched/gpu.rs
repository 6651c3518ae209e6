//! Pipelined multi-stream GPU executor over the frontier driver.
//!
//! The single-stream GPU engines ([`crate::gpu_rl`], [`crate::gpu_rlb`])
//! walk supernodes left to right on one compute/copy stream pair, so a
//! supernode's H2D waits behind its *predecessor's* kernels even when the
//! two live in disjoint subtrees. This executor splits scheduling into
//! two interleaved phases driven by the engine-agnostic [`Frontier`]:
//!
//! * **Issue (out of order).** Whenever a supernode becomes
//!   ready — all its updaters have been applied to host storage — its
//!   device phase (H2D, DPOTRF, DTRSM, async panel copy-back, update
//!   kernels, update D2H into a per-supernode host staging area) is
//!   enqueued on the least-loaded of `RLCHOL_STREAMS` compute/copy
//!   stream pairs (fewest supernodes in flight, ties to the lowest
//!   pair).
//!   Each pair owns one panel buffer and one update/staging buffer;
//!   an [`Event`](rlchol_gpu::Event) recorded after the pair's previous
//!   occupant drains its copy stream gates buffer reuse, so arbitrarily
//!   deep per-stream queues stay safe. Independent supernodes on
//!   different pairs overlap kernels *and* transfers.
//! * **Retire.** Host-side effects — assembling staged updates, running
//!   below-threshold supernodes' CPU path, and releasing frontier
//!   targets — run in one of two modes selected by
//!   [`RetireMode`] (`GpuOptions::retire` / `RLCHOL_RETIRE`):
//!
//!   * [`RetireMode::InOrder`] (default): ascending supernode order,
//!     with a fixed `2 × pairs` lookahead window. The host waits on
//!     supernode `s`'s staging D2H before touching `s + 1` even when a
//!     later supernode's transfer completed long ago — simple, and
//!     bit-identical to the single-stream engines by construction.
//!   * [`RetireMode::Ooo`] (the asynchronous fan-both formulation of
//!     Jacquelin et al.): the host lands whichever in-flight supernode's
//!     staging D2H completes **earliest** on the simulated clock, then
//!     applies its updates subject to **per-target sequencing** — every
//!     destination supernode keeps a sequence cursor over its updaters
//!     (ascending source order, exactly the serial application order)
//!     and a landed source's update into a target is applied only when
//!     that target's cursor reaches it, deferring otherwise and
//!     cascading when the gap fills. Same subtractions on the same
//!     operands in the same per-target order as the serial engines, so
//!     the factor is **bit-identical** at any stream count for both
//!     variants; only the host-wait interleaving (and thus the simulated
//!     clock) changes. Frontier releases happen per applied update unit,
//!     so a target becomes ready the moment its last incoming update
//!     lands rather than when the global retire front passes. The
//!     lookahead window is **adaptive** by default: it grows when issue
//!     is window-blocked while some stream pair idles, and shrinks
//!     toward the pair count while the device runs ahead of the host; a
//!     positive `GpuOptions::lookahead` pins it.
//!
//! Deadline/cancel checkpoints ([`RunCtl`]) run inside the retire loop —
//! once per landed supernode in either mode — so a stalled stream or a
//! sim-budget overrun aborts mid-sweep instead of riding the schedule
//! out.
//!
//! Device memory scales with the pair count; when the per-pair buffers do
//! not all fit, the executor sheds pairs (fewer streams, same factor)
//! and only fails with [`FactorError::GpuOutOfMemory`] when even a
//! single pair exceeds capacity. A single RL pair is sized exactly like
//! [`crate::gpu_rl`], so RL-pipe fits whatever RL fits; the RLB pipeline
//! stages the *batched* (v1) footprint per pair, so matrices that only
//! v2's per-block streaming squeezes under capacity still need
//! [`crate::engine::Method::RlbGpuV2`] (streaming inside the pipeline is
//! an open ROADMAP item). A non-positive-definite pivot surfaces from the
//! eager device POTRF at issue time; when several supernodes are
//! indefinite, the reported column may differ from the serial engines'
//! (issue order is frontier order, not index order), but an error is
//! always raised before any factor is returned.
//!
//! ## Refactor-aware GPU residency
//!
//! Staged-handle lanes ([`crate::staged`]) set
//! `EngineWorkspace::residency_enabled`; the executor then keeps the
//! device — stream pairs, panel/update buffers, and the H2D-ed pattern
//! metadata (each offloaded supernode's row-index list, which a real
//! device-side scatter would consume) — alive in the workspace across
//! `refactor` calls. A warm run on the same symbolic key resets the
//! session clocks, skips the metadata uploads, and reports them in
//! `GpuRun::transfers_saved`. Residency is bypassed whenever a fault
//! plan is installed (fault ordinals must count from a fresh device) and
//! dropped on any error, so quarantine and recovery behave exactly as
//! without it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use rlchol_dense::syrk_ln;
use rlchol_gpu::{Buffer, Event, Gpu, StreamId, StreamRole};
use rlchol_perfmodel::{CpuModel, TraceOp};
use rlchol_sparse::SymCsc;
use rlchol_symbolic::SymbolicFactor;

use crate::assemble::{assemble_update_pool, scatter_segment, segments, Segment};
use crate::engine::{factor_panel, GpuOptions, GpuRun, RetireMode};
use crate::error::FactorError;
use crate::gpu_rl::{map_device_pivot, offload_set};
use crate::gpu_rlb::{
    apply_strip, apply_strips_pool, cpu_direct_update, cpu_direct_update_target,
    launch_strip_kernel, strips_of, Strip,
};
use crate::registry::EngineWorkspace;
use crate::resilience::RunCtl;
use crate::storage::FactorData;

use super::driver::{distinct_targets, Frontier};

/// Which update formulation the pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PipeVariant {
    /// One coarse SYRK per supernode; host scatters the update matrix
    /// (bit-identical to [`crate::engine::Method::RlGpu`]).
    Rl,
    /// Per-block SYRK/GEMM strips into compacted staging, one transfer
    /// per supernode (the batched formulation — bit-identical to both
    /// RLB GPU versions whenever v2 leaves blocks unsplit).
    Rlb,
}

/// Pipelined multi-stream GPU-RL ([`crate::engine::Method::RlGpuPipe`]),
/// drawing factor storage from `ws`.
pub(crate) fn factor_rl_gpu_pipe_ws(
    sym: &SymbolicFactor,
    a: &SymCsc,
    opts: &GpuOptions,
    ws: &mut EngineWorkspace,
) -> Result<GpuRun, FactorError> {
    run_pipeline(sym, a, opts, PipeVariant::Rl, ws)
}

/// Pipelined multi-stream GPU-RLB
/// ([`crate::engine::Method::RlbGpuPipe`]), drawing factor storage from
/// `ws`.
pub(crate) fn factor_rlb_gpu_pipe_ws(
    sym: &SymbolicFactor,
    a: &SymCsc,
    opts: &GpuOptions,
    ws: &mut EngineWorkspace,
) -> Result<GpuRun, FactorError> {
    run_pipeline(sym, a, opts, PipeVariant::Rlb, ws)
}

/// One compute/copy stream pair with its device working storage.
struct StreamCtx {
    compute: StreamId,
    copy: StreamId,
    panel_buf: Buffer,
    /// RL: the update-matrix buffer; RLB: the compacted staging buffer.
    upd_buf: Buffer,
    /// Drain point of the previous occupant's copy stream — both device
    /// buffers are reusable once it completes.
    gate: Option<Event>,
}

/// An issued-but-not-retired supernode.
struct InFlight {
    /// Host staging the update D2H landed in (empty when `r == 0`).
    staged: Vec<f64>,
    /// RLB: the strip set enumerated at issue time, reused verbatim for
    /// the retire-side scatter (empty for RL).
    strips: Vec<Strip>,
    /// Completion of the staging transfer; the host waits on it before
    /// assembling.
    ready: Event,
}

/// The staged update data of a landed source supernode, kept until every
/// one of its per-target units has been applied (out-of-order retirement
/// defers units whose target still awaits an earlier source).
struct LandedSource {
    /// RL: the `r × r` update matrix (device D2H or host SYRK); RLB GPU
    /// path: the compacted staging area. Empty on the RLB CPU path,
    /// whose units read the persistent final source panel instead.
    staged: Vec<f64>,
    /// RLB GPU path: the strip set (grouped contiguously by target).
    strips: Vec<Strip>,
    /// RL: one scatter segment per target, ascending.
    segs: Vec<Segment>,
    /// True when the source ran the below-threshold CPU path under the
    /// RLB variant — its units re-run the direct per-target kernels.
    rlb_cpu: bool,
    /// Update-matrix order (RL scatter geometry).
    r: usize,
    /// Units not yet applied; the staging is dropped at zero.
    units_left: usize,
}

/// Everything the per-run symbolic setup produced, shared by both
/// retirement loops.
struct PipeCtx<'a> {
    gpu: &'a Gpu,
    sym: &'a SymbolicFactor,
    on_gpu: &'a [bool],
    cpu: CpuModel,
    ctl: RunCtl,
    variant: PipeVariant,
}

fn run_pipeline(
    sym: &SymbolicFactor,
    a: &SymCsc,
    opts: &GpuOptions,
    variant: PipeVariant,
    ws: &mut EngineWorkspace,
) -> Result<GpuRun, FactorError> {
    let t0 = Instant::now();
    let ctl = ws.ctl.clone();
    let mut data = ws.take_factor(sym, a);
    let cpu = opts.machine.cpu;
    let nsup = sym.nsup();

    let on_gpu = offload_set(sym, opts.threshold);
    let sn_on_gpu = on_gpu.iter().filter(|&&b| b).count();

    // Per-pair device working storage, sized like the single-stream
    // engines': the largest offloaded panel plus the largest update
    // matrix (RL) or compacted staging area (RLB).
    let max_panel = (0..nsup)
        .filter(|&s| on_gpu[s])
        .map(|s| sym.sn_storage(s))
        .max()
        .unwrap_or(0);
    let max_upd = (0..nsup)
        .filter(|&s| on_gpu[s])
        .map(|s| match variant {
            PipeVariant::Rl => sym.update_matrix_entries(s),
            PipeVariant::Rlb => strips_of(&sym.blocks[s]).1,
        })
        .max()
        .unwrap_or(0);
    let requested = opts.resolved_streams();
    let retire = opts.resolved_retire();
    let lookahead = opts.resolved_lookahead();

    // Residency: a warm lane workspace holds the previous run's device
    // (buffers + pattern metadata) under a key describing this symbolic
    // configuration. Fault plans bypass residency entirely — their
    // operation ordinals are only deterministic on a fresh device.
    let key = ResidencyKey {
        variant,
        requested,
        threshold: opts.threshold,
        max_panel,
        max_upd,
        nsup,
    };
    let use_residency = ws.residency_enabled && opts.faults.is_none();
    let prior = ws.residency.take();
    let warm = use_residency && prior.as_ref().is_some_and(|r| r.key == key);
    let (gpu, mut ctxs, mut meta_buf, mut meta_transfers, transfers_saved);
    if warm {
        let res = prior.expect("warm implies prior residency");
        res.gpu.reset_session();
        let mut cs = res.ctxs;
        for ctx in &mut cs {
            // Gate events carry the previous session's clock; the
            // buffers they guarded have long drained.
            ctx.gate = None;
        }
        transfers_saved = res.meta_transfers;
        meta_transfers = res.meta_transfers;
        meta_buf = res.meta_buf;
        gpu = res.gpu;
        ctxs = cs;
    } else {
        drop(prior); // stale key or residency off: release the old device
        gpu = opts.device();
        ctxs = alloc_stream_pairs(&gpu, requested.max(1), max_panel, max_upd)?;
        transfers_saved = 0;
        meta_transfers = 0;
        meta_buf = None;
    }
    gpu.set_blocking(!opts.overlap);
    let nstreams = ctxs.len();

    let mut residency_ok = use_residency;
    if residency_ok && !warm {
        // Cold resident run: upload the offloaded supernodes' row-index
        // pattern metadata (one H2D each into a concatenated buffer) so
        // warm refactorizations can skip exactly these transfers. If the
        // metadata does not fit alongside the working buffers, run cold
        // and give residency up for this lane size.
        match upload_pattern_metadata(&gpu, sym, &on_gpu, ctxs[0].copy) {
            Ok((buf, n)) => {
                meta_buf = buf;
                meta_transfers = n;
            }
            Err(_) => {
                residency_ok = false;
            }
        }
    }

    let ctx = PipeCtx {
        gpu: &gpu,
        sym,
        on_gpu: &on_gpu,
        cpu,
        ctl,
        variant,
    };
    let final_lookahead = match retire {
        RetireMode::InOrder => {
            run_inorder(&ctx, &mut data, &mut ctxs)?;
            0
        }
        RetireMode::Ooo => run_ooo(&ctx, &mut data, &mut ctxs, lookahead)?,
    };

    gpu.synchronize();
    let sim_seconds = gpu.elapsed();
    let stats = gpu.stats();
    if residency_ok {
        ws.residency = Some(GpuResidency {
            gpu,
            ctxs,
            meta_buf,
            meta_transfers,
            key,
        });
    }
    Ok(GpuRun {
        factor: data,
        sim_seconds,
        stats,
        sn_on_gpu,
        streams_used: nstreams,
        retire,
        lookahead: final_lookahead,
        transfers_saved,
        wall: t0.elapsed(),
    })
}

/// In-order retirement: host effects in ascending supernode order behind
/// a fixed `2 × pairs` issue window (the pre-async behavior, and the
/// bit-identity reference the out-of-order mode is tested against).
fn run_inorder(
    ctx: &PipeCtx<'_>,
    data: &mut FactorData,
    ctxs: &mut [StreamCtx],
) -> Result<(), FactorError> {
    let PipeCtx {
        gpu,
        sym,
        on_gpu,
        cpu,
        ctl,
        variant,
    } = ctx;
    let (gpu, sym) = (*gpu, *sym);
    let nsup = sym.nsup();
    let nstreams = ctxs.len();

    let frontier = Frontier::new(sym);
    let mut heap: BinaryHeap<Reverse<usize>> =
        frontier.initial_ready().into_iter().map(Reverse).collect();
    let mut inflight: Vec<Option<InFlight>> = (0..nsup).map(|_| None).collect();
    let mut in_flight_count = 0usize;
    // Lookahead window: at most ~2 supernodes queued per stream pair.
    // Deeper queues would let early-ready leaves pile up in front of the
    // low-index supernodes that retire first, serializing retirement
    // against the whole backlog; ~1 executing + 1 queued per pair keeps
    // every stream fed while D2H results stay close to the retire front.
    let window = 2 * nstreams;
    // Issued-but-unretired supernodes per pair.
    let mut pair_load = vec![0usize; nstreams];
    // Which pair each in-flight supernode was issued on.
    let mut pair_of = vec![usize::MAX; nsup];
    let mut targets = Vec::new();
    // CPU-path scratch, reused across supernodes.
    let mut l11: Vec<f64> = Vec::new();
    let mut host_ws: Vec<f64> = Vec::new();

    for s in 0..nsup {
        // Deadline/cancel checkpoint, once per retirement step. The
        // simulated clock is what an injected stream stall inflates, so
        // a sim budget aborts the sweep instead of riding it out.
        ctl.check_sim(gpu.elapsed())?;
        // Issue phase: ready supernodes go to the device, lowest index
        // first (which both makes the pair assignment deterministic
        // and guarantees `s` itself — the minimum of the heap
        // whenever it is present — is never starved by the window).
        // CPU-path supernodes need no device work; they run at
        // retirement, so popping them here just consumes their readiness.
        while let Some(&Reverse(t)) = heap.peek() {
            if on_gpu[t] && in_flight_count >= window && t != s {
                break;
            }
            heap.pop();
            if on_gpu[t] {
                let pick = pick_pair(&pair_load);
                issue(gpu, sym, data, &mut ctxs[pick], t, *variant, &mut inflight)?;
                pair_load[pick] += 1;
                pair_of[t] = pick;
                in_flight_count += 1;
            }
        }

        // Retire phase: host effects in ascending supernode order.
        let c = sym.sn_ncols(s);
        let r = sym.sn_nrows_below(s);
        let len = sym.sn_len(s);
        let first = sym.sn.first_col(s);
        if on_gpu[s] {
            let inf = inflight[s]
                .take()
                .expect("ascending retirement implies s was ready and issued");
            in_flight_count -= 1;
            pair_load[pair_of[s]] -= 1;
            if r > 0 {
                gpu.host_wait_event(inf.ready);
                let entries = match variant {
                    PipeVariant::Rl => assemble_update_pool(sym, &mut data.sn, s, &inf.staged, r),
                    PipeVariant::Rlb => apply_strips_pool(
                        sym,
                        &mut data.sn,
                        &sym.blocks[s],
                        &inf.strips,
                        &inf.staged,
                    ),
                };
                gpu.host_compute(cpu.op_time(&TraceOp::Assemble { entries }));
            }
        } else {
            // CPU path: identical kernels and model costs to the
            // single-stream engines' below-threshold branch.
            {
                let arr = &mut data.sn[s];
                factor_panel(arr, len, c, r, &mut l11).map_err(|pivot| {
                    FactorError::NotPositiveDefinite {
                        column: first + pivot,
                    }
                })?;
            }
            gpu.host_compute(
                cpu.op_time(&TraceOp::Potrf { n: c }) + cpu.op_time(&TraceOp::Trsm { m: r, n: c }),
            );
            if r > 0 {
                match variant {
                    PipeVariant::Rl => {
                        if host_ws.len() < r * r {
                            host_ws.resize(r * r, 0.0);
                        }
                        {
                            let arr = &data.sn[s];
                            syrk_ln(r, c, 1.0, &arr[c..], len, 0.0, &mut host_ws[..r * r], r);
                        }
                        gpu.host_compute(cpu.op_time(&TraceOp::Syrk { n: r, k: c }));
                        let entries =
                            assemble_update_pool(sym, &mut data.sn, s, &host_ws[..r * r], r);
                        gpu.host_compute(cpu.op_time(&TraceOp::Assemble { entries }));
                    }
                    PipeVariant::Rlb => {
                        let mut host_seconds = 0.0;
                        cpu_direct_update(sym, &mut data.sn, s, c, len, cpu, &mut host_seconds);
                        gpu.host_compute(host_seconds);
                    }
                }
            }
        }

        distinct_targets(sym, s, &mut targets);
        for &p in &targets {
            if frontier.release(p) {
                heap.push(Reverse(p));
            }
        }
    }
    Ok(())
}

/// Out-of-order retirement with per-target sequencing: land whichever
/// in-flight supernode's staging completes earliest; apply each landed
/// source's updates the moment — and only the moment — the destination's
/// ascending-source cursor reaches them. Returns the final lookahead
/// window (the adaptive policy's last value, or the pinned one).
fn run_ooo(
    ctx: &PipeCtx<'_>,
    data: &mut FactorData,
    ctxs: &mut [StreamCtx],
    lookahead: usize,
) -> Result<usize, FactorError> {
    let PipeCtx {
        gpu,
        sym,
        on_gpu,
        cpu,
        ctl,
        variant,
    } = ctx;
    let (gpu, sym) = (*gpu, *sym);
    let nsup = sym.nsup();
    let nstreams = ctxs.len();

    // Per-target updater lists (CSR): iterating sources in ascending
    // order makes each target's list ascend — the serial application
    // order the sequence cursors enforce.
    let mut upd_ptr = vec![0usize; nsup + 1];
    let mut targets = Vec::new();
    for s in 0..nsup {
        distinct_targets(sym, s, &mut targets);
        for &p in &targets {
            upd_ptr[p + 1] += 1;
        }
    }
    for p in 0..nsup {
        upd_ptr[p + 1] += upd_ptr[p];
    }
    let mut fill = upd_ptr.clone();
    let mut upd_list = vec![0usize; upd_ptr[nsup]];
    for s in 0..nsup {
        distinct_targets(sym, s, &mut targets);
        for &p in &targets {
            upd_list[fill[p]] = s;
            fill[p] += 1;
        }
    }
    // Next unapplied position in each target's updater list.
    let mut cursor = vec![0usize; nsup];

    let frontier = Frontier::new(sym);
    let mut heap: BinaryHeap<Reverse<usize>> =
        frontier.initial_ready().into_iter().map(Reverse).collect();
    let mut inflight: Vec<Option<InFlight>> = (0..nsup).map(|_| None).collect();
    let mut inflight_ids: Vec<usize> = Vec::new();
    let mut landed = vec![false; nsup];
    let mut stash: Vec<Option<LandedSource>> = (0..nsup).map(|_| None).collect();
    let mut landed_count = 0usize;

    let adaptive = lookahead == 0;
    let mut window = if adaptive { 2 * nstreams } else { lookahead };
    let mut pair_load = vec![0usize; nstreams];
    let mut pair_of = vec![usize::MAX; nsup];
    let mut l11: Vec<f64> = Vec::new();

    while landed_count < nsup {
        // Deadline/cancel checkpoint, once per landed supernode.
        ctl.check_sim(gpu.elapsed())?;

        // Issue phase: pop ready supernodes ascending. GPU nodes go to
        // the device up to the window; CPU nodes execute on the host
        // immediately (their readiness means every incoming update has
        // been applied) and land on the spot.
        let mut blocked_issue = false;
        while let Some(&Reverse(t)) = heap.peek() {
            if on_gpu[t] && inflight_ids.len() >= window {
                blocked_issue = true;
                break;
            }
            heap.pop();
            if on_gpu[t] {
                let pick = pick_pair(&pair_load);
                issue(gpu, sym, data, &mut ctxs[pick], t, *variant, &mut inflight)?;
                pair_load[pick] += 1;
                pair_of[t] = pick;
                inflight_ids.push(t);
            } else {
                land_cpu_node(gpu, sym, data, cpu, *variant, t, &mut l11, &mut stash)?;
                landed[t] = true;
                landed_count += 1;
                cascade(
                    gpu,
                    sym,
                    data,
                    cpu,
                    *variant,
                    t,
                    &frontier,
                    &upd_ptr,
                    &upd_list,
                    &mut cursor,
                    &landed,
                    &mut stash,
                    &mut heap,
                    &mut targets,
                );
            }
        }
        if landed_count >= nsup {
            break;
        }

        // Retire step: land the in-flight supernode whose staging D2H
        // completes earliest (ties to the lowest index — deterministic).
        let k = inflight_ids
            .iter()
            .enumerate()
            .min_by(|&(_, &a), &(_, &b)| {
                let ta = inflight[a].as_ref().expect("in flight").ready.time();
                let tb = inflight[b].as_ref().expect("in flight").ready.time();
                ta.total_cmp(&tb).then(a.cmp(&b))
            })
            .map(|(k, _)| k)
            .expect("dependency graph is a DAG: work remains in flight");
        let s = inflight_ids.swap_remove(k);
        let inf = inflight[s].take().expect("selected from in-flight set");
        pair_load[pair_of[s]] -= 1;
        let device_ahead = inf.ready.time() <= gpu.host_now();
        gpu.host_wait_event(inf.ready);
        let r = sym.sn_nrows_below(s);
        stash[s] = (r > 0).then(|| LandedSource {
            segs: match variant {
                PipeVariant::Rl => segments(sym, s),
                PipeVariant::Rlb => Vec::new(),
            },
            staged: inf.staged,
            strips: inf.strips,
            rlb_cpu: false,
            r,
            units_left: 0, // set by cascade's first pass below
        });
        landed[s] = true;
        landed_count += 1;
        cascade(
            gpu,
            sym,
            data,
            cpu,
            *variant,
            s,
            &frontier,
            &upd_ptr,
            &upd_list,
            &mut cursor,
            &landed,
            &mut stash,
            &mut heap,
            &mut targets,
        );

        // Adaptive lookahead: widen when the window starved a pair
        // (issue was blocked while a pair sat idle), narrow toward the
        // pair count while the device finishes work before the host can
        // land it (the host is the bottleneck; depth only defers
        // retirement).
        if adaptive {
            if blocked_issue && pair_load.contains(&0) {
                window = (window + 1).min(nsup.max(1));
            } else if device_ahead {
                window = window.saturating_sub(1).max(nstreams.max(1));
            }
        }
    }
    Ok(window)
}

/// Executes a below-threshold supernode on the host at its pop from the
/// ready heap: panel factorization now, update staging for the
/// per-target applications later. RL stages the host SYRK's `r × r`
/// update matrix; RLB defers entirely to the direct per-target kernels
/// reading the (now final) source panel.
#[allow(clippy::too_many_arguments)]
fn land_cpu_node(
    gpu: &Gpu,
    sym: &SymbolicFactor,
    data: &mut FactorData,
    cpu: &CpuModel,
    variant: PipeVariant,
    s: usize,
    l11: &mut Vec<f64>,
    stash: &mut [Option<LandedSource>],
) -> Result<(), FactorError> {
    let c = sym.sn_ncols(s);
    let r = sym.sn_nrows_below(s);
    let len = sym.sn_len(s);
    let first = sym.sn.first_col(s);
    {
        let arr = &mut data.sn[s];
        factor_panel(arr, len, c, r, l11).map_err(|pivot| FactorError::NotPositiveDefinite {
            column: first + pivot,
        })?;
    }
    gpu.host_compute(
        cpu.op_time(&TraceOp::Potrf { n: c }) + cpu.op_time(&TraceOp::Trsm { m: r, n: c }),
    );
    if r == 0 {
        return Ok(());
    }
    stash[s] = Some(match variant {
        PipeVariant::Rl => {
            let mut staged = vec![0.0f64; r * r];
            {
                let arr = &data.sn[s];
                syrk_ln(r, c, 1.0, &arr[c..], len, 0.0, &mut staged, r);
            }
            gpu.host_compute(cpu.op_time(&TraceOp::Syrk { n: r, k: c }));
            LandedSource {
                staged,
                strips: Vec::new(),
                segs: segments(sym, s),
                rlb_cpu: false,
                r,
                units_left: 0,
            }
        }
        PipeVariant::Rlb => LandedSource {
            staged: Vec::new(),
            strips: Vec::new(),
            segs: Vec::new(),
            rlb_cpu: true,
            r,
            units_left: 0,
        },
    });
    Ok(())
}

/// After source `s` lands, advance every one of its targets' sequence
/// cursors: apply each target's next-expected updates while they are
/// landed (possibly from sources that landed long ago), releasing the
/// frontier once per applied unit. Per-target application order is
/// always ascending source — the serial order — regardless of landing
/// order, which is what keeps the factor bit-identical.
#[allow(clippy::too_many_arguments)]
fn cascade(
    gpu: &Gpu,
    sym: &SymbolicFactor,
    data: &mut FactorData,
    cpu: &CpuModel,
    variant: PipeVariant,
    s: usize,
    frontier: &Frontier,
    upd_ptr: &[usize],
    upd_list: &[usize],
    cursor: &mut [usize],
    landed: &[bool],
    stash: &mut [Option<LandedSource>],
    heap: &mut BinaryHeap<Reverse<usize>>,
    targets: &mut Vec<usize>,
) {
    distinct_targets(sym, s, targets);
    if let Some(st) = stash[s].as_mut() {
        st.units_left = targets.len();
    }
    for &p in targets.iter() {
        while cursor[p] < upd_ptr[p + 1] - upd_ptr[p] {
            let q = upd_list[upd_ptr[p] + cursor[p]];
            if !landed[q] {
                break;
            }
            apply_unit(gpu, sym, data, cpu, variant, q, p, stash);
            cursor[p] += 1;
            if frontier.release(p) {
                heap.push(Reverse(p));
            }
        }
    }
}

/// Applies source `q`'s update unit into target `p` — the out-of-order
/// analogue of one segment of the in-order retire phase, with identical
/// kernels and operands.
#[allow(clippy::too_many_arguments)]
fn apply_unit(
    gpu: &Gpu,
    sym: &SymbolicFactor,
    data: &mut FactorData,
    cpu: &CpuModel,
    variant: PipeVariant,
    q: usize,
    p: usize,
    stash: &mut [Option<LandedSource>],
) {
    let exhausted = {
        let st = stash[q]
            .as_mut()
            .expect("landed sources with targets stash");
        match variant {
            PipeVariant::Rl => {
                let at = st
                    .segs
                    .binary_search_by_key(&p, |g| g.target)
                    .expect("p is a distinct target of q");
                let entries = scatter_segment(
                    sym,
                    &mut data.sn[p],
                    st.segs[at],
                    &sym.rows[q],
                    &st.staged,
                    st.r,
                );
                gpu.host_compute(cpu.op_time(&TraceOp::Assemble { entries }));
            }
            PipeVariant::Rlb if st.rlb_cpu => {
                let c = sym.sn_ncols(q);
                let len = sym.sn_len(q);
                let mut host_seconds = 0.0;
                cpu_direct_update_target(sym, &mut data.sn, q, p, c, len, cpu, &mut host_seconds);
                gpu.host_compute(host_seconds);
            }
            PipeVariant::Rlb => {
                let blocks = &sym.blocks[q];
                let mut entries = 0usize;
                for strip in st.strips.iter().filter(|t| blocks[t.b1].target == p) {
                    entries += apply_strip(
                        sym,
                        &mut data.sn[p],
                        blocks,
                        strip,
                        &st.staged[strip.stage_off..strip.stage_off + strip.m * strip.n],
                    );
                }
                gpu.host_compute(cpu.op_time(&TraceOp::Assemble { entries }));
            }
        }
        st.units_left -= 1;
        st.units_left == 0
    };
    if exhausted {
        stash[q] = None; // free the staging as soon as its last unit lands
    }
}

/// The stream pair for the next issued supernode: fewest in flight,
/// ties to the lowest pair index (the first minimum `min_by_key` finds).
/// The factor does not depend on it (retirement sequencing is per
/// target regardless of which pair ran what); only queue shapes do.
fn pick_pair(pair_load: &[usize]) -> usize {
    (0..pair_load.len())
        .min_by_key(|&i| pair_load[i])
        .expect("at least one stream pair")
}

/// Key describing the symbolic configuration a resident device was built
/// for; a refactorization may only reuse the device when it matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ResidencyKey {
    variant: PipeVariant,
    requested: usize,
    threshold: usize,
    max_panel: usize,
    max_upd: usize,
    nsup: usize,
}

/// A device kept alive across staged-handle refactorizations: stream
/// pairs with their buffers plus the uploaded pattern metadata. Held in
/// [`EngineWorkspace::residency`] between runs of the same lane.
pub(crate) struct GpuResidency {
    gpu: Gpu,
    ctxs: Vec<StreamCtx>,
    /// Concatenated row-index metadata of the offloaded supernodes.
    meta_buf: Option<Buffer>,
    /// H2D transfers the metadata upload took — what a warm run saves.
    meta_transfers: u64,
    key: ResidencyKey,
}

impl std::fmt::Debug for GpuResidency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuResidency")
            .field("streams", &self.ctxs.len())
            .field("meta_buf", &self.meta_buf)
            .field("meta_transfers", &self.meta_transfers)
            .field("key", &self.key)
            .finish_non_exhaustive()
    }
}

/// Uploads each offloaded supernode's row-index list (as `f64`, the only
/// element type the simulated device stores) into one concatenated
/// device buffer — the pattern metadata a device-side scatter consumes,
/// and the transfers a warm resident refactorization skips. Returns the
/// buffer and the transfer count.
fn upload_pattern_metadata(
    gpu: &Gpu,
    sym: &SymbolicFactor,
    on_gpu: &[bool],
    stream: StreamId,
) -> Result<(Option<Buffer>, u64), rlchol_gpu::GpuError> {
    let total: usize = (0..sym.nsup())
        .filter(|&s| on_gpu[s])
        .map(|s| sym.rows[s].len())
        .sum();
    if total == 0 {
        return Ok((None, 0));
    }
    let buf = gpu.alloc(total)?;
    let mut off = 0usize;
    let mut count = 0u64;
    let mut scratch: Vec<f64> = Vec::new();
    for s in (0..sym.nsup()).filter(|&s| on_gpu[s]) {
        let rows = &sym.rows[s];
        if rows.is_empty() {
            continue;
        }
        scratch.clear();
        scratch.extend(rows.iter().map(|&r| r as f64));
        if let Err(e) = gpu.memcpy_h2d(stream, buf, off, &scratch) {
            let _ = gpu.free(buf);
            return Err(e);
        }
        off += rows.len();
        count += 1;
    }
    Ok((Some(buf), count))
}

/// Allocates up to `requested` compute/copy pairs with their buffers,
/// shedding pairs that no longer fit device memory. Errors only when not
/// even one pair fits (the single-stream engines' OOM condition).
fn alloc_stream_pairs(
    gpu: &Gpu,
    requested: usize,
    max_panel: usize,
    max_upd: usize,
) -> Result<Vec<StreamCtx>, FactorError> {
    let mut bufs: Vec<(Buffer, Buffer)> = Vec::with_capacity(requested);
    let mut first_err = None;
    for _ in 0..requested {
        match gpu.alloc(max_panel) {
            Ok(panel) => match gpu.alloc(max_upd) {
                Ok(upd) => bufs.push((panel, upd)),
                Err(e) => {
                    let _ = gpu.free(panel);
                    first_err = Some(e);
                    break;
                }
            },
            Err(e) => {
                first_err = Some(e);
                break;
            }
        }
    }
    if bufs.is_empty() {
        return Err(first_err.expect("requested >= 1").into());
    }
    Ok(bufs
        .into_iter()
        .enumerate()
        .map(|(i, (panel_buf, upd_buf))| {
            let compute = if i == 0 {
                gpu.default_stream()
            } else {
                gpu.create_stream()
            };
            let copy = gpu.create_stream();
            gpu.set_stream_role(compute, StreamRole::Compute);
            gpu.set_stream_role(copy, StreamRole::Copy);
            StreamCtx {
                compute,
                copy,
                panel_buf,
                upd_buf,
                gate: None,
            }
        })
        .collect())
}

/// Enqueues supernode `s`'s whole device phase on `ctx` and records it in
/// flight. The simulated runtime executes kernels eagerly, so a
/// non-positive-definite pivot surfaces here.
fn issue(
    gpu: &Gpu,
    sym: &SymbolicFactor,
    data: &mut FactorData,
    ctx: &mut StreamCtx,
    s: usize,
    variant: PipeVariant,
    inflight: &mut [Option<InFlight>],
) -> Result<(), FactorError> {
    let c = sym.sn_ncols(s);
    let r = sym.sn_nrows_below(s);
    let len = sym.sn_len(s);
    let first = sym.sn.first_col(s);

    // The pair's buffers may still feed the previous occupant's
    // transfers; its gate event marks both drained.
    if let Some(ev) = ctx.gate.take() {
        gpu.stream_wait_event(ctx.compute, ev);
    }
    gpu.memcpy_h2d(ctx.compute, ctx.panel_buf, 0, &data.sn[s])?;
    gpu.potrf(ctx.compute, ctx.panel_buf, 0, c, len)
        .map_err(map_device_pivot(first))?;
    gpu.trsm_panel(ctx.compute, ctx.panel_buf, 0, len, c, r)?;
    // Asynchronous panel copy-back on the pair's copy stream.
    let factored = gpu.record_event(ctx.compute);
    gpu.stream_wait_event(ctx.copy, factored);
    gpu.memcpy_d2h(ctx.copy, ctx.panel_buf, 0, &mut data.sn[s])?;

    let mut staged = Vec::new();
    let mut strips = Vec::new();
    if r > 0 {
        match variant {
            PipeVariant::Rl => {
                gpu.syrk(
                    ctx.compute,
                    ctx.panel_buf,
                    c,
                    len,
                    r,
                    c,
                    1.0,
                    0.0,
                    ctx.upd_buf,
                    0,
                    r,
                )?;
                staged = vec![0.0f64; r * r];
            }
            PipeVariant::Rlb => {
                let blocks = &sym.blocks[s];
                let stage_len;
                (strips, stage_len) = strips_of(blocks);
                for st in &strips {
                    launch_strip_kernel(
                        gpu,
                        ctx.compute,
                        ctx.panel_buf,
                        ctx.upd_buf,
                        st,
                        blocks,
                        c,
                        len,
                    )?;
                }
                staged = vec![0.0f64; stage_len];
            }
        }
        let computed = gpu.record_event(ctx.compute);
        gpu.stream_wait_event(ctx.copy, computed);
        gpu.memcpy_d2h(ctx.copy, ctx.upd_buf, 0, &mut staged)?;
    }
    let ready = gpu.record_event(ctx.copy);
    ctx.gate = Some(ready);
    inflight[s] = Some(InFlight {
        staged,
        strips,
        ready,
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fresh::{factor_rl_gpu, factor_rl_gpu_pipe, factor_rlb_gpu, factor_rlb_gpu_pipe};
    use crate::gpu_rlb::RlbGpuVersion;
    use rlchol_matgen::{laplace2d, laplace3d};
    use rlchol_symbolic::{analyze, SymbolicOptions};

    fn setup(a: &rlchol_sparse::SymCsc) -> (SymbolicFactor, rlchol_sparse::SymCsc) {
        let sym = analyze(a, &SymbolicOptions::default());
        let ap = a.permute(&sym.perm);
        (sym, ap)
    }

    #[test]
    fn rl_pipe_bit_identical_across_stream_counts() {
        let a = laplace3d(6, 41);
        let (sym, ap) = setup(&a);
        for threshold in [0usize, 500] {
            let base = factor_rl_gpu(&sym, &ap, &GpuOptions::with_threshold(threshold)).unwrap();
            for streams in [1usize, 2, 4] {
                for retire in [RetireMode::InOrder, RetireMode::Ooo] {
                    let opts = GpuOptions::with_threshold(threshold)
                        .with_streams(streams)
                        .with_retire(retire);
                    let run = factor_rl_gpu_pipe(&sym, &ap, &opts).unwrap();
                    assert_eq!(run.streams_used, streams);
                    assert_eq!(run.retire, retire);
                    assert_eq!(
                        base.factor.sn, run.factor.sn,
                        "thr {threshold} streams {streams} {retire:?}: must be bit-identical"
                    );
                }
            }
        }
    }

    #[test]
    fn rlb_pipe_bit_identical_to_both_single_stream_versions() {
        let a = laplace2d(14, 42);
        let (sym, ap) = setup(&a);
        let opts1 = GpuOptions::with_threshold(0);
        let v1 = factor_rlb_gpu(&sym, &ap, &opts1, RlbGpuVersion::V1).unwrap();
        let v2 = factor_rlb_gpu(&sym, &ap, &opts1, RlbGpuVersion::V2).unwrap();
        // At full capacity v2 never splits blocks, so all three agree.
        assert_eq!(v1.factor.sn, v2.factor.sn);
        for streams in [1usize, 3] {
            for retire in [RetireMode::InOrder, RetireMode::Ooo] {
                let run = factor_rlb_gpu_pipe(
                    &sym,
                    &ap,
                    &opts1.clone().with_streams(streams).with_retire(retire),
                )
                .unwrap();
                assert_eq!(v1.factor.sn, run.factor.sn, "streams {streams} {retire:?}");
            }
        }
    }

    #[test]
    fn ooo_with_hybrid_threshold_is_bit_identical() {
        // Mixed CPU/GPU supernodes exercise the per-target sequencing
        // across both landing paths (host SYRK stash and device D2H).
        let a = laplace3d(6, 44);
        let (sym, ap) = setup(&a);
        let base = factor_rl_gpu(&sym, &ap, &GpuOptions::with_threshold(300)).unwrap();
        for lookahead in [0usize, 1, 7] {
            let opts = GpuOptions::with_threshold(300)
                .with_streams(4)
                .with_retire(RetireMode::Ooo)
                .with_lookahead(lookahead);
            let run = factor_rl_gpu_pipe(&sym, &ap, &opts).unwrap();
            assert_eq!(
                base.factor.sn, run.factor.sn,
                "lookahead {lookahead}: must be bit-identical"
            );
            if lookahead > 0 {
                assert_eq!(run.lookahead, lookahead, "pinned window must be reported");
            } else {
                assert!(run.lookahead >= 1, "adaptive window must be reported");
            }
        }
    }

    #[test]
    fn pick_pair_takes_the_minimum_load_and_ties_to_the_lowest_pair() {
        assert_eq!(pick_pair(&[0]), 0);
        assert_eq!(pick_pair(&[2, 1, 3]), 1);
        assert_eq!(pick_pair(&[1, 0, 0]), 1);
        assert_eq!(pick_pair(&[2, 2, 2, 2]), 0);
    }

    // The 1 -> 2 stream strict-speedup property and the ooo-beats-inorder
    // property are covered by tests/pipelined_gpu.rs on ND-ordered 3-D
    // grids; a natural band order collapses the tree to a path where no
    // engine can overlap anything, so such checks must order first.
}
