//! Pinned factor values: the bits of every deterministic engine's factor
//! on three matrices, recorded as digests.
//!
//! Every engine runs the same dense kernels (`rlchol-dense`), so the
//! bitwise tests that compare engines with each other cannot see a
//! change in a kernel's arithmetic. These pins can. A change meant to
//! make a kernel faster without moving a bit (wider vectors, the same
//! summation order) must leave every digest here untouched; a change
//! that means to move one records the new value and says why.
//!
//! `RlCpuPar` and `RlbCpuPar` are left out on purpose: their fan-out
//! updates land in the order the scheduler runs them, so their factor
//! differs by roundoff from run to run.

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

/// FNV-1a over the little-endian `f64::to_bits` of every factor entry,
/// supernode by supernode.
fn digest(sn: &[Vec<f64>]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &x in sn.iter().flatten() {
        for b in x.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
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

/// Every resource count is explicit, so no `RLCHOL_*` variable reaches
/// the factor.
fn options(method: Method, threshold: usize) -> SolverOptions {
    SolverOptions {
        method,
        gpu: GpuOptions::with_threshold(threshold).with_streams(2),
        threads: 1,
        factor_lanes: 1,
        analyze_threads: 1,
        solve_threads: 1,
        ..SolverOptions::default()
    }
}

/// Factors `a` with every deterministic engine and compares each digest
/// with its pin, in `DETERMINISTIC` × `thresholds` order; reports every
/// drifted pin at once. Returns the widest supernode's column count.
fn check(name: &str, a: &SymCsc, want: &[u64]) -> usize {
    let mut got = Vec::new();
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
            got.push((run, digest(&fact.data().sn)));
        }
    }
    assert_eq!(got.len(), want.len(), "{name}: one pin per engine run");
    let drifted: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, g), w)| g != *w)
        .map(|((run, g), w)| format!("{run}: got {g:#018x}, pinned {w:#018x}"))
        .collect();
    assert!(drifted.is_empty(), "drifted pins:\n{}", drifted.join("\n"));
    widest
}

#[test]
fn grid3d_star7_factor_is_pinned() {
    let widest = check(
        "grid3d 16^3 star7",
        &grid3d(16, 16, 16, Stencil::Star7, 1, 1),
        &[
            0x3061_53e1_a1ff_cd25,
            0x516d_3519_94fb_dc23,
            0x3061_53e1_a1ff_cd25,
            0x3061_53e1_a1ff_cd25,
            0x3061_53e1_a1ff_cd25,
            0x45f5_ca8d_5a80_0bbf,
            0x3061_53e1_a1ff_cd25,
            0x45f5_ca8d_5a80_0bbf,
            0x3061_53e1_a1ff_cd25,
            0x3061_53e1_a1ff_cd25,
            0x3061_53e1_a1ff_cd25,
            0x45f5_ca8d_5a80_0bbf,
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
        &[
            0x61af_88fe_225e_daaf,
            0x1cc5_a2a2_cc76_1d68,
            0x61af_88fe_225e_daaf,
            0x61af_88fe_225e_daaf,
            0x61af_88fe_225e_daaf,
            0x28a9_f4ba_681a_e60a,
            0x61af_88fe_225e_daaf,
            0x28a9_f4ba_681a_e60a,
            0x61af_88fe_225e_daaf,
            0x61af_88fe_225e_daaf,
            0x61af_88fe_225e_daaf,
            0x28a9_f4ba_681a_e60a,
        ],
    );
}

#[test]
fn grid3d_star27_factor_is_pinned() {
    check(
        "grid3d 10^3 star27",
        &grid3d(10, 10, 10, Stencil::Star27, 1, 1),
        &[
            0xc668_f2c6_632b_8154,
            0xb0c5_7af6_4bb2_6c4f,
            0xc668_f2c6_632b_8154,
            0xc668_f2c6_632b_8154,
            0xc668_f2c6_632b_8154,
            0xc668_f2c6_632b_8154,
            0xc668_f2c6_632b_8154,
            0xc668_f2c6_632b_8154,
            0xc668_f2c6_632b_8154,
            0xc668_f2c6_632b_8154,
            0xc668_f2c6_632b_8154,
            0xc668_f2c6_632b_8154,
        ],
    );
}
