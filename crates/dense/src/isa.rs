//! Run-time choice of the vector unit the dense kernels run on.
//!
//! The crate is built for the target's baseline (SSE2 on x86-64), which
//! gives the autovectorised loops two-wide vectors. [`isa_dispatch!`]
//! compiles a kernel body three times — for AVX-512F, for AVX2 and for
//! the baseline — and the kernel entry points pick the widest copy the
//! host supports ([`Isa::host`]). Every copy computes the same bits; see
//! the crate docs for why.

/// One compiled copy of the dense kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    /// What the crate is built for.
    Baseline,
    /// 256-bit AVX2 vectors.
    Avx2,
    /// 512-bit AVX-512F vectors.
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

    /// Whether this host can run the copy. Non-x86-64 targets run only
    /// the baseline.
    pub(crate) fn supported(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
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
            #[target_feature(enable = "avx512f")]
            fn avx512($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2($($arg: $ty),*) $(-> $ret)? {
                body($($arg),*)
            }

            match isa {
                #[cfg(target_arch = "x86_64")]
                $crate::isa::Isa::Avx512 if isa.supported() => {
                    // SAFETY: the guard's `is_x86_feature_detected!("avx512f")`
                    // just confirmed this CPU has AVX-512F.
                    unsafe { avx512($($arg),*) }
                }
                #[cfg(target_arch = "x86_64")]
                $crate::isa::Isa::Avx2 if isa.supported() => {
                    // SAFETY: the guard's `is_x86_feature_detected!("avx2")`
                    // just confirmed this CPU has AVX2.
                    unsafe { avx2($($arg),*) }
                }
                _ => body($($arg),*),
            }
        }
    };
}

pub(crate) use isa_dispatch;

#[cfg(test)]
mod tests {
    use super::Isa;
    use crate::gemm::{gemm, TransB, KC, MC, MR, NC, NR};
    use crate::potrf::{potrf_with, with_l11_scratch};
    use crate::syrk::syrk_ln_with;
    use crate::trsm::trsm_rlt_with;
    use crate::NB;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::io::Write;

    const BETAS: [f64; 3] = [0.0, 1.0, 2.5];

    fn rand_vec(rng: &mut StdRng, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.random_range(-1.0..1.0)).collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
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
    fn rand_lower(rng: &mut StdRng, n: usize) -> Vec<f64> {
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
    fn rand_spd(rng: &mut StdRng, n: usize) -> Vec<f64> {
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
        // Straight to the process's stderr, past the harness's capture,
        // so the CI log names the copies this host checked.
        let _ = writeln!(
            std::io::stderr(),
            "rlchol-dense: copies compared bit for bit with the baseline: {isas:?}"
        );
        let mut rng = StdRng::seed_from_u64(26);

        // Off the MR/NR multiples, and across MC, KC and NC.
        let gemm_shapes = [
            (1, 1, 1),
            (MR - 1, NR - 1, 5),
            (MR + 1, NR + 1, 17),
            (MC + 13, 9, 7),
            (13, 11, KC + 44),
            (17, NC + 6, 33),
            (MC + 3, 5 * NR + 1, KC + 5),
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
                        gemm(isa, m, n, k, -0.75, &a, lda, &b, ldb, tb, beta, c, ldc)
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
                    syrk_ln_with(isa, n, k, -1.0, &a, lda, beta, c, ldc)
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
                with_l11_scratch(|l11| potrf_with(isa, n, a, n, l11, 1)).unwrap()
            });
        }
    }
}
