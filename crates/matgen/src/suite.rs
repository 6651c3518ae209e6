//! The 21-matrix synthetic suite mirroring the paper's test set.
//!
//! Each entry names a paper matrix, records the paper's published numbers
//! (Tables I and II) for side-by-side reporting, and carries a generator
//! spec producing a ~1/40-linear-scale structural analogue. The suite also
//! fixes the *scaled* experiment constants: the CPU/GPU supernode-size
//! thresholds (paper: 600 000 for RL, 750 000 for RLB) and the device
//! memory capacity (paper: 40 GB) are shrunk with the matrices so that
//! the same qualitative effects appear — in particular `nlpkkt120`'s RL
//! update matrix exceeding device memory while RLB still succeeds.

use crate::grid::{grid3d, perturbed_grid3d, Stencil};
use crate::kkt::{kkt3d, kkt3d_aniso};
use rlchol_sparse::SymCsc;

/// Generator specification for one suite entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GenSpec {
    /// `grid3d(nx, ny, nz, stencil, dofs)`.
    Grid3d {
        nx: usize,
        ny: usize,
        nz: usize,
        stencil: Stencil,
        dofs: usize,
    },
    /// Perturbed 3-D grid with a fraction of extra short-range edges.
    Perturbed {
        nx: usize,
        ny: usize,
        nz: usize,
        stencil: Stencil,
        dofs: usize,
        extra_frac: f64,
    },
    /// KKT analogue on a `k³` grid (`n = 2k³`).
    Kkt { k: usize },
    /// Anisotropic KKT analogue on a `kx × ky × kz` grid.
    KktAniso { kx: usize, ky: usize, kz: usize },
}

impl GenSpec {
    /// Instantiates the SPD matrix.
    pub fn generate(&self, seed: u64) -> SymCsc {
        match *self {
            GenSpec::Grid3d {
                nx,
                ny,
                nz,
                stencil,
                dofs,
            } => grid3d(nx, ny, nz, stencil, dofs, seed),
            GenSpec::Perturbed {
                nx,
                ny,
                nz,
                stencil,
                dofs,
                extra_frac,
            } => perturbed_grid3d(nx, ny, nz, stencil, dofs, extra_frac, seed),
            GenSpec::Kkt { k } => kkt3d(k, seed),
            GenSpec::KktAniso { kx, ky, kz } => kkt3d_aniso(kx, ky, kz, seed),
        }
    }

    /// Matrix dimension this spec will produce.
    pub fn n(&self) -> usize {
        match *self {
            GenSpec::Grid3d {
                nx, ny, nz, dofs, ..
            }
            | GenSpec::Perturbed {
                nx, ny, nz, dofs, ..
            } => nx * ny * nz * dofs,
            GenSpec::Kkt { k } => 2 * k * k * k,
            GenSpec::KktAniso { kx, ky, kz } => 2 * kx * ky * kz,
        }
    }
}

/// Published reference numbers for one matrix (Tables I and II).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperRef {
    /// Table I (GPU-accelerated RL): `(runtime_s, speedup, supernodes_on_gpu)`.
    /// `None` for nlpkkt120, which could not be run (update matrix too
    /// large for the 40 GB device).
    pub rl: Option<(f64, f64, usize)>,
    /// Table II (GPU-accelerated RLB): `(runtime_s, speedup, supernodes_on_gpu)`.
    pub rlb: (f64, f64, usize),
    /// Total number of supernodes (identical in both tables).
    pub total_supernodes: usize,
}

/// One matrix of the suite.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// SuiteSparse name used in the paper.
    pub name: &'static str,
    /// Dimension of the original matrix.
    pub paper_n: usize,
    /// Generator configuration of the synthetic analogue.
    pub spec: GenSpec,
    /// Deterministic seed.
    pub seed: u64,
    /// The paper's published measurements.
    pub paper: PaperRef,
}

impl SuiteEntry {
    /// Generates the analogue matrix.
    pub fn generate(&self) -> SymCsc {
        self.spec.generate(self.seed)
    }
}

/// Scaled experiment constants accompanying the suite.
#[derive(Debug, Clone, Copy)]
pub struct SuiteConfig {
    /// Supernode-size threshold (cols × length) below which RL keeps a
    /// supernode on the CPU. Paper value: 600 000 at full scale.
    pub rl_threshold: usize,
    /// Same for RLB. Paper value: 750 000.
    pub rlb_threshold: usize,
    /// Simulated device memory capacity in bytes. Paper: 40 GB; scaled so
    /// that exactly the nlpkkt120 analogue's RL footprint exceeds it.
    pub gpu_capacity_bytes: u64,
    /// CPU thread count used for the host-side work of the GPU-accelerated
    /// runs (the paper's code is serial Fortran + multithreaded MKL and
    /// OpenMP assembly; this is the model's thread count for those parts).
    pub gpu_host_threads: usize,
    /// Compute-rate divisor matching the machine model to the reduced
    /// problem scale: the suite is ~1/24 of the paper's linear size, so
    /// per-supernode arithmetic intensity is ~24x lower; dividing CPU and
    /// GPU compute rates by the same factor (PCIe terms fixed) restores
    /// the paper's compute-to-transfer balance. The `paper` bin's
    /// `calibrate` section prints the structural numbers all five
    /// constants were picked from.
    pub machine_scale: f64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            // Determined empirically with `paper threshold_sweep`,
            // exactly as the paper determined its 600,000 / 750,000
            // (§IV-B). The qualitative finding transfers: RLB wants a
            // noticeably *higher* threshold than RL, because its many
            // small per-block kernels pay the device's small-kernel
            // floor on supernodes RL can still profitably offload.
            rl_threshold: 12_000,
            rlb_threshold: 45_000,
            // Calibrated against the suite (`paper calibrate`): above
            // every matrix's RL device footprint except the nlpkkt120
            // analogue.
            gpu_capacity_bytes: 30 << 20,
            gpu_host_threads: 64,
            machine_scale: 24.0,
        }
    }
}

/// The 21 matrices of the paper's evaluation, in Table I/II order.
pub fn paper_suite() -> Vec<SuiteEntry> {
    let g3 = |nx, ny, nz, stencil, dofs| GenSpec::Grid3d {
        nx,
        ny,
        nz,
        stencil,
        dofs,
    };
    let pert = |nx, ny, nz, stencil, dofs, extra_frac| GenSpec::Perturbed {
        nx,
        ny,
        nz,
        stencil,
        dofs,
        extra_frac,
    };
    let p = |rl: Option<(f64, f64, usize)>, rlb: (f64, f64, usize), total: usize| PaperRef {
        rl,
        rlb,
        total_supernodes: total,
    };
    vec![
        SuiteEntry {
            name: "CurlCurl_2",
            paper_n: 806_529,
            spec: g3(18, 18, 18, Stencil::Star27, 1),
            seed: 101,
            paper: p(Some((3.800, 1.59, 98)), (4.802, 1.26, 81), 8_822),
        },
        SuiteEntry {
            name: "dielFilterV2real",
            paper_n: 1_157_456,
            spec: pert(15, 15, 15, Stencil::Star27, 1, 0.15),
            seed: 102,
            paper: p(Some((5.599, 1.40, 150)), (7.204, 1.09, 126), 11_292),
        },
        SuiteEntry {
            name: "dielFilterV3real",
            paper_n: 1_102_824,
            spec: pert(15, 15, 15, Stencil::Star27, 1, 0.25),
            seed: 103,
            paper: p(Some((5.669, 1.43, 148)), (6.776, 1.20, 122), 10_156),
        },
        SuiteEntry {
            name: "PFlow_742",
            paper_n: 742_793,
            spec: g3(40, 40, 8, Stencil::Star7, 1),
            seed: 104,
            paper: p(Some((4.497, 1.35, 123)), (4.715, 1.29, 94), 61_809),
        },
        SuiteEntry {
            name: "CurlCurl_3",
            paper_n: 1_219_574,
            spec: g3(19, 19, 19, Stencil::Star27, 1),
            seed: 105,
            paper: p(Some((7.040, 2.01, 164)), (9.040, 1.56, 146), 10_074),
        },
        SuiteEntry {
            name: "StocF-1465",
            paper_n: 1_465_137,
            spec: pert(19, 19, 19, Stencil::Star7, 1, 0.3),
            seed: 106,
            paper: p(Some((9.379, 1.87, 236)), (12.082, 1.45, 199), 40_255),
        },
        SuiteEntry {
            name: "bone010",
            paper_n: 986_703,
            spec: g3(16, 16, 16, Stencil::Star7, 3),
            seed: 107,
            paper: p(Some((9.158, 1.41, 264)), (9.754, 1.32, 228), 4_017),
        },
        SuiteEntry {
            name: "Flan_1565",
            paper_n: 1_564_794,
            spec: g3(17, 17, 17, Stencil::Star7, 3),
            seed: 108,
            paper: p(Some((12.853, 1.31, 461)), (13.529, 1.25, 360), 7_591),
        },
        SuiteEntry {
            name: "audikw_1",
            paper_n: 943_695,
            spec: g3(12, 12, 12, Stencil::Star27, 3),
            seed: 109,
            paper: p(Some((9.922, 1.68, 264)), (11.355, 1.46, 223), 3_725),
        },
        SuiteEntry {
            name: "Fault_639",
            paper_n: 638_802,
            spec: g3(15, 15, 15, Stencil::Star7, 3),
            seed: 110,
            paper: p(Some((8.188, 1.90, 261)), (9.938, 1.56, 178), 1_981),
        },
        SuiteEntry {
            name: "Hook_1498",
            paper_n: 1_498_023,
            spec: g3(17, 17, 16, Stencil::Star7, 3),
            seed: 111,
            paper: p(Some((12.032, 2.29, 284)), (15.114, 1.83, 242), 10_781),
        },
        SuiteEntry {
            name: "Emilia_923",
            paper_n: 923_136,
            spec: g3(16, 16, 15, Stencil::Star7, 3),
            seed: 112,
            paper: p(Some((12.432, 2.04, 405)), (15.253, 1.66, 267), 2_815),
        },
        SuiteEntry {
            name: "CurlCurl_4",
            paper_n: 2_380_515,
            spec: g3(22, 22, 22, Stencil::Star27, 1),
            seed: 113,
            paper: p(Some((15.745, 2.44, 340)), (20.324, 1.89, 277), 17_660),
        },
        SuiteEntry {
            name: "nlpkkt80",
            paper_n: 1_062_400,
            spec: GenSpec::Kkt { k: 21 },
            seed: 114,
            paper: p(Some((12.596, 2.42, 235)), (14.886, 2.05, 208), 5_431),
        },
        SuiteEntry {
            name: "Geo_1438",
            paper_n: 1_437_960,
            spec: g3(24, 18, 13, Stencil::Star7, 3),
            seed: 115,
            paper: p(Some((18.698, 2.01, 601)), (20.419, 1.84, 405), 4_419),
        },
        SuiteEntry {
            name: "Serena",
            paper_n: 1_391_349,
            spec: g3(22, 19, 14, Stencil::Star7, 3),
            seed: 116,
            paper: p(Some((19.333, 3.00, 388)), (24.972, 2.32, 302), 4_822),
        },
        SuiteEntry {
            name: "Long_Coup_dt0",
            paper_n: 1_470_152,
            spec: g3(40, 14, 14, Stencil::Star7, 3),
            seed: 117,
            paper: p(Some((27.708, 3.22, 1_432)), (40.968, 2.18, 1_207), 2_897),
        },
        SuiteEntry {
            name: "Cube_Coup_dt0",
            paper_n: 2_164_760,
            spec: g3(20, 20, 20, Stencil::Star7, 3),
            seed: 118,
            paper: p(Some((42.188, 3.75, 2_142)), (61.064, 2.59, 1_918), 3_853),
        },
        SuiteEntry {
            name: "Bump_2911",
            paper_n: 2_911_419,
            spec: g3(22, 22, 18, Stencil::Star7, 3),
            seed: 119,
            paper: p(Some((64.339, 4.47, 2_848)), (99.561, 2.89, 2_368), 64_995),
        },
        SuiteEntry {
            name: "nlpkkt120",
            paper_n: 3_542_400,
            spec: GenSpec::Kkt { k: 28 },
            seed: 120,
            paper: p(None, (114.658, 3.07, 1_048), 12_785),
        },
        SuiteEntry {
            name: "Queen_4147",
            paper_n: 4_147_110,
            spec: g3(21, 21, 21, Stencil::Star7, 3),
            seed: 121,
            paper: p(Some((89.552, 4.27, 3_898)), (121.299, 3.15, 3_647), 7_158),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_21_matrices_in_table_order() {
        let s = paper_suite();
        assert_eq!(s.len(), 21);
        assert_eq!(s[0].name, "CurlCurl_2");
        assert_eq!(s[19].name, "nlpkkt120");
        assert_eq!(s[20].name, "Queen_4147");
    }

    #[test]
    fn only_nlpkkt120_lacks_rl_numbers() {
        for e in paper_suite() {
            if e.name == "nlpkkt120" {
                assert!(e.paper.rl.is_none());
            } else {
                assert!(e.paper.rl.is_some(), "{} missing RL data", e.name);
            }
        }
    }

    #[test]
    fn names_unique_and_specs_generate() {
        let s = paper_suite();
        let mut names: Vec<&str> = s.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 21);
        // Spot-check a small generation (avoid building the full suite in
        // a unit test).
        let a = s[3].spec.generate(s[3].seed); // PFlow analogue
        assert_eq!(a.n(), s[3].spec.n());
    }

    #[test]
    fn paper_speedups_transcribed_within_ranges() {
        // Table I: min 1.31 (Flan_1565), max 4.47 (Bump_2911).
        let s = paper_suite();
        let speedups: Vec<f64> = s.iter().filter_map(|e| e.paper.rl.map(|r| r.1)).collect();
        let min = speedups.iter().cloned().fold(f64::MAX, f64::min);
        let max = speedups.iter().cloned().fold(f64::MIN, f64::max);
        assert_eq!(min, 1.31);
        assert_eq!(max, 4.47);
        // Table II: min 1.09 (dielFilterV2real), max 3.15 (Queen_4147).
        let s2: Vec<f64> = s.iter().map(|e| e.paper.rlb.1).collect();
        assert_eq!(s2.iter().cloned().fold(f64::MAX, f64::min), 1.09);
        assert_eq!(s2.iter().cloned().fold(f64::MIN, f64::max), 3.15);
    }

    #[test]
    fn rlb_threshold_exceeds_rl_threshold() {
        // The paper's empirical finding (750k > 600k) holds at suite
        // scale: RLB needs a higher offload threshold than RL.
        let c = SuiteConfig::default();
        assert!(c.rlb_threshold > c.rl_threshold);
    }
}
