//! Run-time choice of the vector unit the dense kernels run on.
//!
//! The crate is built for the target's baseline (SSE2 on x86-64), which
//! gives the autovectorised loops two-wide vectors and no fused
//! multiply-add. [`isa_dispatch!`] compiles a kernel body three times —
//! for AVX-512F, for AVX2 with FMA and for the baseline — and the kernel
//! entry points pick the widest copy the host supports ([`Isa::host`]).
//! Every copy computes the same bits; see the crate docs for why.

/// One compiled copy of the dense kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// What the crate is built for.
    Baseline,
    /// 256-bit AVX2 vectors with FMA.
    Avx2,
    /// 512-bit AVX-512F vectors (which always come with FMA).
    Avx512,
}

impl Isa {
    /// Every copy, widest first.
    pub(crate) const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Baseline];

    /// The widest copy this host can run.
    pub(crate) fn host() -> Isa {
        Isa::ALL
            .into_iter()
            .find(|isa| isa.supported())
            .unwrap_or(Isa::Baseline)
    }

    /// Whether this host can run the copy: every feature the copy is
    /// compiled with. Non-x86-64 targets run only the baseline.
    pub(crate) fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        use std::arch::is_x86_feature_detected as has;
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => has!("avx2") && has!("fma"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => has!("avx512f") && has!("fma"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 | Isa::Avx512 => false,
        }
    }
}

/// Defines `fn $name(isa: Isa, args…)` running `$body` compiled for
/// `isa`. The body is written once as an `#[inline(always)]` function;
/// each `#[target_feature]` copy inlines it, and so must everything the
/// body calls (`#[inline(always)]` helpers), or the loops stay baseline
/// code. An `isa` the host does not support runs the baseline copy.
macro_rules! isa_dispatch {
    (
        $(#[$attr:meta])*
        $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$attr])*
        $vis fn $name(isa: $crate::isa::Isa, $($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f,fma")]
            fn avx512($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            fn avx2($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            match isa {
                #[cfg(target_arch = "x86_64")]
                $crate::isa::Isa::Avx512 if isa.supported() => {
                    // SAFETY: the guard's `is_x86_feature_detected!` just
                    // confirmed this CPU has AVX-512F and FMA.
                    unsafe { avx512($($arg),*) }
                }
                #[cfg(target_arch = "x86_64")]
                $crate::isa::Isa::Avx2 if isa.supported() => {
                    // SAFETY: the guard's `is_x86_feature_detected!` just
                    // confirmed this CPU has AVX2 and FMA.
                    unsafe { avx2($($arg),*) }
                }
                _ => body($($arg),*),
            }
        }
    };
}

pub(crate) use isa_dispatch;

#[cfg(test)]
pub(crate) mod tests {
    use super::Isa;
    use crate::gemm::{gemm, tile, TransB, KC, MC, NC};
    use crate::potrf::{potrf_with, with_l11_scratch};
    use crate::syrk::syrk_ln_with;
    use crate::trsm::trsm_rlt_with;
    use crate::NB;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::io::Write;

    const BETAS: [f64; 3] = [0.0, 1.0, 2.5];

    pub(crate) fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `kernel` on a copy of `input` for the baseline and for every
    /// wider copy in `isas`, and requires the same bits from each.
    fn same_bits(isas: &[Isa], what: &str, input: &[f64], kernel: impl Fn(Isa, &mut [f64])) {
        let mut want = input.to_vec();
        kernel(Isa::Baseline, &mut want);
        for &isa in isas {
            let mut got = input.to_vec();
            kernel(isa, &mut got);
            assert!(
                bits(&got) == bits(&want),
                "{what}: {isa:?} differs from the baseline"
            );
        }
    }

    /// Well-conditioned lower-triangular `n x n` matrix.
    pub(crate) fn rand_lower(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let mut l = vec![0.0; n * n];
        for j in 0..n {
            for i in j..n {
                l[j * n + i] = if i == j {
                    2.0 + rng.random_range(0.0..1.0)
                } else {
                    rng.random_range(-0.5..0.5)
                };
            }
        }
        l
    }

    /// SPD `n x n` matrix: `M Mᵀ + n I`.
    pub(crate) fn rand_spd(rng: &mut StdRng, n: usize) -> Vec<f64> {
        let m = rand_vec(rng, n * n);
        let mut a = vec![0.0; n * n];
        crate::gemm::gemm_naive(n, n, n, 1.0, &m, n, &m, n, true, 0.0, &mut a, n);
        for i in 0..n {
            a[i * n + i] += n as f64;
        }
        a
    }

    #[test]
    fn every_isa_copy_matches_the_baseline_bitwise() {
        let isas: Vec<Isa> = Isa::ALL
            .into_iter()
            .filter(|&isa| isa != Isa::Baseline && isa.supported())
            .collect();
        let tiles: Vec<String> = isas
            .iter()
            .chain(&[Isa::Baseline])
            .map(|&isa| format!("{isa:?} {}x{}", tile(isa).0, tile(isa).1))
            .collect();
        // Straight to the process's stderr, past the harness's capture,
        // so the CI log names the copies this host checked.
        let _ = writeln!(
            std::io::stderr(),
            "rlchol-dense: copies compared bit for bit with the baseline: {isas:?} \
             (GEMM tiles: {})",
            tiles.join(", ")
        );
        let mut rng = StdRng::seed_from_u64(26);

        // Off the multiples of both tiles (16 x 6 and 8 x 4), and across
        // MC, KC and NC.
        let gemm_shapes = [
            (1, 1, 1),
            (7, 3, 5),
            (15, 5, 9),
            (17, 7, 17),
            (9, 13, 3),
            (MC + 13, 9, 7),
            (13, 11, KC + 44),
            (17, NC + 6, 33),
            (MC + 3, 31, KC + 5),
        ];
        for (m, n, k) in gemm_shapes {
            for (tb, ldb, bcols) in [(TransB::No, k + 1, n), (TransB::Yes, n + 1, k)] {
                let (lda, ldc) = (m + 3, m + 2);
                let a = rand_vec(&mut rng, lda * k);
                let b = rand_vec(&mut rng, ldb * bcols);
                let c = rand_vec(&mut rng, ldc * n);
                for beta in BETAS {
                    let what = format!("gemm {tb:?} m={m} n={n} k={k} beta={beta}");
                    same_bits(&isas, &what, &c, |isa, c| {
                        gemm(isa, 1, m, n, k, -0.75, &a, lda, &b, ldb, tb, beta, c, ldc)
                    });
                }
            }
        }

        // Across NB (the diagonal-block kernel) and MC / KC (the GEMM below).
        for (n, k) in [
            (1, 1),
            (5, 3),
            (NB + 1, 40),
            (2 * NB + 3, KC + 10),
            (MC + NB + 5, 17),
        ] {
            let (lda, ldc) = (n + 2, n + 1);
            let a = rand_vec(&mut rng, lda * k);
            let c = rand_vec(&mut rng, ldc * n);
            for beta in BETAS {
                let what = format!("syrk_ln n={n} k={k} beta={beta}");
                same_bits(&isas, &what, &c, |isa, c| {
                    syrk_ln_with(isa, 1, n, k, -1.0, &a, lda, beta, c, ldc)
                });
            }
        }

        for (m, n) in [
            (1, 1),
            (7, 5),
            (MC + 5, NB + 3),
            (33, 2 * NB + 9),
            (9, KC + NB),
        ] {
            let l = rand_lower(&mut rng, n);
            let ldb = m + 2;
            let b = rand_vec(&mut rng, ldb * n);
            same_bits(&isas, &format!("trsm_rlt m={m} n={n}"), &b, |isa, b| {
                trsm_rlt_with(isa, 1, m, n, &l, n, b, ldb)
            });
        }

        for n in [1, 7, NB - 1, NB + 1, 2 * NB + 3, MC + NB + 5] {
            let a = rand_spd(&mut rng, n);
            same_bits(&isas, &format!("potrf n={n}"), &a, |isa, a| {
                with_l11_scratch(|l11| potrf_with(isa, 1, n, a, n, l11)).unwrap()
            });
        }
    }

    #[test]
    fn the_avx2_copy_is_only_chosen_with_fma() {
        #[cfg(target_arch = "x86_64")]
        if Isa::Avx2.supported() {
            assert!(std::arch::is_x86_feature_detected!("fma"));
        }
    }

    /// Single-lane `gemm_nt` 1024³ rate of every copy the host supports,
    /// best of five. A timing probe, not a check: run it with
    /// `cargo test --release -p rlchol-dense -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn gemm_rate_of_each_copy() {
        let n = 1024;
        let mut rng = StdRng::seed_from_u64(1);
        let a = rand_vec(&mut rng, n * n);
        let b = rand_vec(&mut rng, n * n);
        let mut c = rand_vec(&mut rng, n * n);
        for isa in Isa::ALL.into_iter().filter(|isa| isa.supported()) {
            let best = (0..5)
                .map(|_| {
                    let t = std::time::Instant::now();
                    gemm(
                        isa,
                        1,
                        n,
                        n,
                        n,
                        -1.0,
                        &a,
                        n,
                        &b,
                        n,
                        TransB::Yes,
                        1.0,
                        &mut c,
                        n,
                    );
                    t.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            let gflops = crate::flops_gemm(n, n, n) / best / 1e9;
            let (mr, nr) = tile(isa);
            println!("gemm_nt {n}^3 on {isa:?} ({mr}x{nr} tile), one lane: {gflops:.1} GF/s");
        }
    }
}
