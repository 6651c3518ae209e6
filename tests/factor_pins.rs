//! Pinned factor values: the bits of every deterministic engine's factor
//! on three matrices, recorded as digests.
//!
//! Every engine runs the same dense kernels (`rlchol-dense`), so the
//! bitwise tests that compare engines with each other cannot see a
//! change in a kernel's arithmetic. These pins can. A change meant to
//! make a kernel faster without moving a bit (wider vectors, the same
//! summation order, splitting a call across lanes) must leave every
//! digest here untouched; a change that means to move one records the
//! new value and says why.
//!
//! Last re-recorded when the GEMM micro-kernel began accumulating with a
//! fused multiply-add (`f64::mul_add`, one rounding per step instead of
//! two): every digest whose factor passes through a GEMM moved. The RL
//! digests of the 2-D grid did not: its only supernode wider than `NB`
//! is the root and no update matrix is taller than `NB`, so RL never
//! reaches the GEMM there. The new factors pass the entry-wise and
//! backward-error checks of `tests/oracle.rs`, which use no dense
//! kernel. The preceding change, which split large kernel calls across
//! the pool, left every digest as it was.
//!
//! The CPU methods run one tree executor whose factor does not depend on
//! its lane count, so every CPU method (`RlCpuPar` and `RlbCpuPar` are
//! synonyms of `RlCpu` and `RlbCpu`) at 1, 2, 4 and 8 lanes must give its
//! family's digest. The executor runs one lane below a flop cutoff and
//! beside another CPU factorization, so every test holds [`serial`] and
//! asserts the lanes its CPU runs started: the 16³ grid and the two
//! benchmark matrices run the tree, the others the one-lane sweep.
//!
//! Each device run also pins its simulated clock: the bits of
//! `sim_seconds` and of the host, kernel and transfer seconds, and the
//! kernel, transfer and peak-memory counters. Host-side refactors of the
//! device engines must issue the same device and host operations with
//! the same floating-point grouping, so a one-ulp drift fails here. The
//! pipelined engines are pinned under each explicit retirement mode,
//! since left to `RLCHOL_RETIRE` their clock follows the environment.

use std::sync::{Mutex, MutexGuard};

use rlchol::core::engine::RetireMode;
use rlchol::core::FactorInfo;
use rlchol::matgen::{grid2d, grid3d, Stencil};
use rlchol::{CholeskySolver, GpuOptions, Method, SolverOptions, SymCsc};

/// The engines whose factor is a deterministic function of the input.
const DETERMINISTIC: [Method; 7] = [
    Method::RlCpu,
    Method::RlbCpu,
    Method::RlGpu,
    Method::RlbGpuV1,
    Method::RlbGpuV2,
    Method::RlGpuPipe,
    Method::RlbGpuPipe,
];

/// FNV-1a over the little-endian bytes of `words`.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// FNV-1a over the `f64::to_bits` of every factor entry, supernode by
/// supernode.
fn digest(sn: &[Vec<f64>]) -> u64 {
    fnv(sn.iter().flatten().map(|x| x.to_bits()))
}

/// FNV-1a over a device run's simulated seconds and device counters.
fn sim_digest(info: &FactorInfo) -> u64 {
    let g = info.gpu.as_ref().expect("device engines report counters");
    fnv([
        info.sim_seconds
            .expect("device engines report sim time")
            .to_bits(),
        g.host_seconds.to_bits(),
        g.kernel_seconds.to_bits(),
        g.transfer_seconds.to_bits(),
        g.kernel_launches,
        g.h2d_count,
        g.h2d_bytes,
        g.d2h_count,
        g.d2h_bytes,
        g.peak_bytes,
    ])
}

/// Thresholds the device engines run at: all-device and a CPU/device
/// mix. The CPU engines ignore the threshold and run once.
fn thresholds(method: Method) -> &'static [usize] {
    if method.is_gpu() {
        &[0, 300]
    } else {
        &[usize::MAX]
    }
}

/// Lane counts every CPU method is pinned at.
const LANES: [usize; 4] = [1, 2, 4, 8];

/// One factorization at a time in this test binary, so none of them
/// sees another in flight and falls back to one lane.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Every resource count is explicit, so no `RLCHOL_*` variable reaches
/// the factor.
fn options(method: Method, threshold: usize) -> SolverOptions {
    SolverOptions {
        method,
        gpu: GpuOptions::with_threshold(threshold).with_streams(2),
        threads: 1,
        factor_lanes: 1,
        analyze_threads: 1,
        ..SolverOptions::default()
    }
}

/// The explicit retirement modes a pipelined engine's clock is pinned
/// under; none for the single-stream engines, whose clock is pinned from
/// their factor run.
fn retire_modes(method: Method) -> &'static [RetireMode] {
    match method {
        Method::RlGpuPipe | Method::RlbGpuPipe => &[RetireMode::InOrder, RetireMode::Ooo],
        _ => &[],
    }
}

/// The factor digest of a CPU method at `threads` lanes, and the lanes
/// the run started.
fn cpu_digest(a: &SymCsc, method: Method, threads: usize) -> (u64, usize) {
    let opts = SolverOptions {
        threads,
        ..options(method, usize::MAX)
    };
    let fact = CholeskySolver::analyze(a, &opts)
        .factor_with(a)
        .expect("SPD input");
    (digest(&fact.data().sn), fact.info().lanes)
}

/// Lists every run whose digest differs from its pin.
fn drifted(got: &[(String, u64)], want: &[u64]) -> Vec<String> {
    got.iter()
        .zip(want)
        .filter(|((_, g), w)| g != *w)
        .map(|((run, g), w)| format!("{run}: got {g:#018x}, pinned {w:#018x}"))
        .collect()
}

/// Factors `a` with every deterministic engine and compares each factor
/// digest with its pin, in `DETERMINISTIC` × `thresholds` order, and
/// each device run's simulated-clock digest with its pin, in the same
/// order (the pipelined engines once per explicit retirement mode);
/// reports every drifted pin at once. `tree`: the matrix is above the
/// executor's flop cutoff, so a CPU run at `threads` lanes must start that
/// many; else every CPU run is the sweep. Returns the widest supernode's
/// column count.
fn check(name: &str, a: &SymCsc, tree: bool, want: &[u64], want_sim: &[u64]) -> usize {
    let _serial = serial();
    let mut got = Vec::new();
    let mut got_sim = Vec::new();
    let mut widest = 0;
    for method in DETERMINISTIC {
        for &threshold in thresholds(method) {
            let handle = CholeskySolver::analyze(a, &options(method, threshold));
            let sym = handle.symbolic();
            widest = (0..sym.nsup()).map(|s| sym.sn_ncols(s)).max().unwrap_or(0);
            let fact = handle.factor_with(a).expect("SPD input");
            let mut run = format!("{name} {}", method.label());
            if method.is_gpu() {
                run += &format!(" thr {threshold}");
            }
            let modes = retire_modes(method);
            if method.is_gpu() && modes.is_empty() {
                got_sim.push((run.clone(), sim_digest(fact.info())));
            }
            for &mode in modes {
                let mut opts = options(method, threshold);
                opts.gpu = opts.gpu.with_retire(mode);
                let fact = CholeskySolver::analyze(a, &opts)
                    .factor_with(a)
                    .expect("SPD input");
                got_sim.push((format!("{run} {}", mode.name()), sim_digest(fact.info())));
            }
            got.push((run, digest(&fact.data().sn)));
        }
    }
    // Every CPU method at every lane count against its family's pin
    // (`RlCpu` and `RlbCpu` come first in `DETERMINISTIC`).
    let (mut lanes, mut lane_pins) = (Vec::new(), Vec::new());
    for (method, pin) in [
        (Method::RlCpu, want[0]),
        (Method::RlbCpu, want[1]),
        (Method::RlCpuPar, want[0]),
        (Method::RlbCpuPar, want[1]),
    ] {
        for threads in LANES {
            let run = format!("{name} {} threads {threads}", method.label());
            let (digest, started) = cpu_digest(a, method, threads);
            assert_eq!(started, if tree { threads } else { 1 }, "{run}: lanes");
            lanes.push((run, digest));
            lane_pins.push(pin);
        }
    }
    assert_eq!(got.len(), want.len(), "{name}: one pin per engine run");
    assert_eq!(
        got_sim.len(),
        want_sim.len(),
        "{name}: one clock pin per device run"
    );
    let mut all = drifted(&got, want);
    all.extend(drifted(&got_sim, want_sim));
    all.extend(drifted(&lanes, &lane_pins));
    assert!(all.is_empty(), "drifted pins:\n{}", all.join("\n"));
    widest
}

#[test]
fn grid3d_star7_factor_is_pinned() {
    let widest = check(
        "grid3d 16^3 star7",
        &grid3d(16, 16, 16, Stencil::Star7, 1, 1),
        true,
        &[
            0x7d4a_4641_a314_e630,
            0x5e8f_8438_ca9b_54ff,
            0x7d4a_4641_a314_e630,
            0x7d4a_4641_a314_e630,
            0x634e_5203_cf14_567d,
            0xc610_5335_4670_b6b0,
            0x634e_5203_cf14_567d,
            0xc610_5335_4670_b6b0,
            0x7d4a_4641_a314_e630,
            0x7d4a_4641_a314_e630,
            0x634e_5203_cf14_567d,
            0xc610_5335_4670_b6b0,
        ],
        &[
            0xbc36_e0d9_a3c3_d4fe,
            0xae1e_0932_11d7_9f75,
            0x1514_ba8b_bdc1_3307,
            0xd7a9_90fd_998f_0cd0,
            0x4144_91e8_db3f_f61a,
            0xaf55_2d2b_decb_5c7c,
            0x1b3c_179f_c84b_363f,
            0xa695_1b52_74b2_5530,
            0xe857_8205_b926_f7b4,
            0x084e_abed_c178_e751,
            0x9670_cafb_dc8e_4952,
            0x68aa_ed82_f7f4_e154,
            0xffbb_fbe3_8998_283d,
            0x964c_0ae6_524a_17d2,
        ],
    );
    // The root separator must span more than one NB block, so the
    // blocked POTRF (and its trailing SYRK/GEMM) runs, not only potf2.
    assert!(
        widest > rlchol::dense::NB,
        "widest supernode {widest} <= NB"
    );
}

#[test]
fn grid2d_star5_factor_is_pinned() {
    check(
        "grid2d 60x60 star5",
        &grid2d(60, 60, Stencil::Star5, 1, 1),
        false,
        &[
            0x61af_88fe_225e_daaf,
            0x3715_5fa8_cd17_842a,
            0x61af_88fe_225e_daaf,
            0x61af_88fe_225e_daaf,
            0xb776_37f5_f3df_dc1c,
            0x8531_9256_5154_5c0f,
            0xb776_37f5_f3df_dc1c,
            0x8531_9256_5154_5c0f,
            0x61af_88fe_225e_daaf,
            0x61af_88fe_225e_daaf,
            0xb776_37f5_f3df_dc1c,
            0x8531_9256_5154_5c0f,
        ],
        &[
            0x05e6_5aff_865a_9c86,
            0x7738_1f0c_758c_947e,
            0xd33b_7665_b34c_63f1,
            0x1417_8ebc_c7ce_eb2f,
            0xebfc_d15b_39a3_d0ec,
            0x4a7c_0e18_6d01_2b43,
            0xac81_6364_c42f_b923,
            0x8e5c_e146_b273_4484,
            0x230d_99ee_c671_bd21,
            0xd6bd_19df_f849_d9eb,
            0x35ac_8952_1e77_6ae6,
            0x3247_a4c4_e228_7be9,
            0x4a63_8f11_0743_49f5,
            0xf48b_b5ee_6681_6bf6,
        ],
    );
}

#[test]
fn grid3d_star27_factor_is_pinned() {
    check(
        "grid3d 10^3 star27",
        &grid3d(10, 10, 10, Stencil::Star27, 1, 1),
        false,
        &[
            0x851c_1cad_76f7_56e3,
            0xeda2_b46e_c42b_2247,
            0x851c_1cad_76f7_56e3,
            0x851c_1cad_76f7_56e3,
            0x0a05_4a44_3e63_a7f0,
            0x0a05_4a44_3e63_a7f0,
            0x0a05_4a44_3e63_a7f0,
            0x0a05_4a44_3e63_a7f0,
            0x851c_1cad_76f7_56e3,
            0x851c_1cad_76f7_56e3,
            0x0a05_4a44_3e63_a7f0,
            0x0a05_4a44_3e63_a7f0,
        ],
        &[
            0x9d61_293e_1481_be19,
            0x9d61_293e_1481_be19,
            0x79af_d3eb_3ff0_38f8,
            0x79af_d3eb_3ff0_38f8,
            0x12e9_e909_96ca_4607,
            0x12e9_e909_96ca_4607,
            0xe4e1_9c5b_4548_3d3e,
            0x50c6_55ba_0b72_2f6f,
            0xe4e1_9c5b_4548_3d3e,
            0x50c6_55ba_0b72_2f6f,
            0xfb51_e97e_823d_a071,
            0x049d_d9f4_4098_d5b0,
            0xfb51_e97e_823d_a071,
            0x049d_d9f4_4098_d5b0,
        ],
    );
}

/// The benchmark matrices (`cube32`, `plate300`): `RlCpu` at one and two
/// lanes, against digests recorded with the serial loop the tree
/// executor replaced. These run the tree with split kernels on 923 and
/// 10 330 supernodes; run them in release with `--ignored`.
fn check_benchmark_size(name: &str, a: &SymCsc, pin: u64) {
    let _serial = serial();
    for threads in [1, 2] {
        let (got, lanes) = cpu_digest(a, Method::RlCpu, threads);
        assert_eq!(lanes, threads, "{name} threads {threads}: lanes");
        assert_eq!(
            got, pin,
            "{name} threads {threads}: got {got:#018x}, pinned {pin:#018x}"
        );
    }
}

#[test]
#[ignore = "benchmark size: cargo test --release --test factor_pins -- --ignored"]
fn cube32_factor_is_pinned() {
    let a = grid3d(32, 32, 32, Stencil::Star7, 1, 1);
    check_benchmark_size("cube32", &a, 0x07d7_af15_a1b6_23fe);
}

#[test]
#[ignore = "benchmark size: cargo test --release --test factor_pins -- --ignored"]
fn plate300_factor_is_pinned() {
    let a = grid2d(300, 300, Stencil::Star5, 1, 1);
    check_benchmark_size("plate300", &a, 0xd25c_3cfe_822c_ce53);
}
