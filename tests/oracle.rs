//! Every engine against the kernel-independent oracle.
//!
//! `simplicial_cholesky` is a column-by-column sparse Cholesky with no
//! supernodes and no BLAS — it shares nothing with the engines but the
//! input. Cross-engine agreement cannot see a bug in the dense kernels
//! all engines call; this comparison can. Every `Method::ALL` factor is
//! checked entry by entry over the whole supernodal pattern (entries the
//! oracle does not store must be zero fill), and an indefinite matrix
//! must be refused at the column the oracle refuses it at.
//!
//! The backward-error test needs no second factorization at all: it
//! multiplies each engine's `L Lᵀ` out with scalar loops over the
//! factor's pattern and compares it with `P A Pᵀ`, then checks the
//! residual of a solve with that factor.

use rlchol::core::simplicial::simplicial_cholesky;
use rlchol::core::solve::solve;
use rlchol::core::{engine_for, EngineWorkspace, FactorData, FactorError};
use rlchol::dense::{flops_potrf, NB};
use rlchol::matgen::{grid2d, grid3d, kkt3d_aniso, perturbed_grid3d, Stencil};
use rlchol::ordering::{order, OrderingMethod};
use rlchol::sparse::SymCsc;
use rlchol::symbolic::{analyze, SymbolicFactor};
use rlchol::{GpuOptions, Method, SymbolicOptions};
use std::io::Write;

const LANES: usize = 4;

/// `method` on `ap` with explicit resources: four CPU lanes, four stream
/// pairs, supernodes of size ≥ `threshold` on the simulated device.
fn factor(
    method: Method,
    sym: &SymbolicFactor,
    ap: &SymCsc,
    threshold: usize,
) -> Result<FactorData, FactorError> {
    let gpu = GpuOptions::with_threshold(threshold).with_streams(LANES);
    engine_for(method)
        .factor(
            sym,
            FactorData::load(sym, ap),
            &mut EngineWorkspace::new(LANES, gpu),
        )
        .map(|run| run.factor)
}

/// Thresholds worth running `method` at: all-device and a CPU/GPU mix
/// for the device engines, one run for the CPU engines (which ignore it).
fn thresholds(method: Method) -> &'static [usize] {
    if method.is_gpu() {
        &[0, 300]
    } else {
        &[usize::MAX]
    }
}

fn symbolic_configs() -> impl Iterator<Item = SymbolicOptions> {
    [(true, true), (true, false), (false, true), (false, false)]
        .into_iter()
        .map(|(merge, partition_refine)| SymbolicOptions {
            merge,
            partition_refine,
            ..SymbolicOptions::default()
        })
}

fn analyzed(a: &SymCsc, opts: &SymbolicOptions) -> (SymbolicFactor, SymCsc) {
    let fill = order(a, OrderingMethod::NestedDissection);
    let af = a.permute(&fill);
    let sym = analyze(&af, opts);
    let ap = af.permute(&sym.perm);
    (sym, ap)
}

#[test]
fn every_engine_matches_the_simplicial_oracle_entrywise() {
    let matrices = [
        ("grid2d(14,12)", grid2d(14, 12, Stencil::Star5, 1, 71)),
        ("grid3d(6,6,5)", grid3d(6, 6, 5, Stencil::Star7, 1, 72)),
    ];
    for (label, a) in &matrices {
        for opts in symbolic_configs() {
            let (sym, ap) = analyzed(a, &opts);
            let l = simplicial_cholesky(&ap).expect("SPD input");
            let scale = l.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            for method in Method::ALL {
                for &threshold in thresholds(method) {
                    let got = factor(method, &sym, &ap, threshold).unwrap();
                    let what = format!(
                        "{label} merge={} pr={} {} thr {threshold}",
                        opts.merge,
                        opts.partition_refine,
                        method.label()
                    );
                    for s in 0..sym.nsup() {
                        let (first, end) = (sym.sn.first_col(s), sym.sn.end_col(s));
                        for j in first..end {
                            for i in (j..end).chain(sym.rows[s].iter().copied()) {
                                let (have, want) = (got.get(&sym, i, j), l.get(i, j));
                                assert!(
                                    (have - want).abs() <= 1e-10 * scale,
                                    "{what}: L[{i},{j}] = {have}, oracle {want}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `L Lᵀ` on `sym`'s pattern, stored like a factor: source supernode by
/// source supernode, each target's rows mapped through a dense scatter
/// index. Plain multiply-add loops, no dense kernel.
fn llt_on_pattern(sym: &SymbolicFactor, l: &FactorData) -> FactorData {
    let mut out = FactorData::zeros(sym);
    let mut local = vec![usize::MAX; sym.n];
    for t in 0..sym.nsup() {
        let (first, end) = (sym.sn.first_col(t), sym.sn.end_col(t));
        let rows: Vec<usize> = (first..end).chain(sym.rows[t].iter().copied()).collect();
        let (len, arr) = (rows.len(), l.sn(sym, t));
        let mut q = 0;
        while q < len {
            // Rows q..q_end of `t` are columns of one target supernode `s`.
            let s = sym.sn.col_to_sn[rows[q]];
            let (sf, se, slen) = (sym.sn.first_col(s), sym.sn.end_col(s), sym.sn_len(s));
            for (li, g) in (sf..se).chain(sym.rows[s].iter().copied()).enumerate() {
                local[g] = li;
            }
            let q_end = q + rows[q..].iter().take_while(|&&g| g < se).count();
            for qq in q..q_end {
                let col = &mut out.sn_mut(sym, s)[(rows[qq] - sf) * slen..][..slen];
                for k in 0..(end - first).min(qq + 1) {
                    let ljk = arr[k * len + qq];
                    for p in qq..len {
                        col[local[rows[p]]] += arr[k * len + p] * ljk;
                    }
                }
            }
            q = q_end;
        }
    }
    out
}

/// `max |P A Pᵀ − L Lᵀ| / max |A|` over the lower triangle of the
/// factor's pattern (entries of `P A Pᵀ` outside it are zero fill).
fn backward_error(sym: &SymbolicFactor, ap: &SymCsc, l: &FactorData) -> f64 {
    let want = FactorData::load(sym, ap);
    let got = llt_on_pattern(sym, l);
    let amax = ap.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let mut worst = 0.0f64;
    for s in 0..sym.nsup() {
        let len = sym.sn_len(s);
        for lc in 0..sym.sn_ncols(s) {
            for li in lc..len {
                let d = (want.sn(sym, s)[lc * len + li] - got.sn(sym, s)[lc * len + li]).abs();
                worst = if d.is_nan() { d } else { worst.max(d) };
            }
        }
    }
    worst / amax
}

/// Normwise backward error of a solve with the factor:
/// `‖b − A x‖∞ / (‖A‖∞ ‖x‖∞ + ‖b‖∞)`.
fn solve_residual(sym: &SymbolicFactor, ap: &SymCsc, l: &FactorData) -> f64 {
    let n = ap.n();
    let b: Vec<f64> = (0..n)
        .map(|i| ((i * 37) % 101) as f64 / 50.0 - 1.0)
        .collect();
    let x = solve(sym, l, &b);
    let mut ax = vec![0.0; n];
    ap.matvec(&x, &mut ax);
    let mut abs_a = ap.clone();
    abs_a.values_mut().iter_mut().for_each(|v| *v = v.abs());
    let mut row_sums = vec![0.0; n];
    abs_a.matvec(&vec![1.0; n], &mut row_sums);
    let inf = |v: &[f64]| v.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    let r: Vec<f64> = b.iter().zip(&ax).map(|(p, q)| p - q).collect();
    inf(&r) / (inf(&row_sums) * inf(&x) + inf(&b))
}

/// Bounds on the two errors, each more than 10× the largest value
/// measured over every engine and matrix below with kernels that round
/// each product before adding it: 3.40e-15 and 6.81e-16 (unit roundoff
/// is 1.1e-16). A factor that is wrong in one entry by 1e-9 relative
/// exceeds both.
const BACKWARD_BOUND: f64 = 5e-14;
const RESIDUAL_BOUND: f64 = 1e-14;

#[test]
fn every_engine_has_a_small_backward_error() {
    let matrices = [
        (
            "grid3d(16) star7",
            grid3d(16, 16, 16, Stencil::Star7, 1, 81),
        ),
        ("kkt3d_aniso(12,6,6)", kkt3d_aniso(12, 6, 6, 82)),
        (
            "perturbed_grid3d(10)",
            perturbed_grid3d(10, 10, 10, Stencil::Star7, 1, 0.2, 83),
        ),
    ];
    for (label, a) in &matrices {
        let (sym, ap) = analyzed(a, &SymbolicOptions::default());
        if label.starts_with("grid3d") {
            // The root panel must run the blocked POTRF and be large
            // enough that rlchol-dense splits it across lanes (its cutoff
            // is 2²² flops).
            let widest = (0..sym.nsup()).map(|s| sym.sn_ncols(s)).max().unwrap();
            assert!(widest > 2 * NB, "{label}: widest supernode {widest}");
            assert!(flops_potrf(widest) > (1u64 << 22) as f64, "{label}");
        }
        let (mut worst_be, mut worst_sr) = (0.0f64, 0.0f64);
        for method in Method::ALL {
            for &threshold in thresholds(method) {
                let l = factor(method, &sym, &ap, threshold).unwrap();
                let (be, sr) = (backward_error(&sym, &ap, &l), solve_residual(&sym, &ap, &l));
                let mut what = format!("{label} {}", method.label());
                if method.is_gpu() {
                    what += &format!(" thr {threshold}");
                }
                println!("{what}: backward error {be:.3e}, solve residual {sr:.3e}");
                assert!(be <= BACKWARD_BOUND, "{what}: backward error {be:e}");
                assert!(sr <= RESIDUAL_BOUND, "{what}: solve residual {sr:e}");
                (worst_be, worst_sr) = (worst_be.max(be), worst_sr.max(sr));
            }
        }
        // Straight to stderr, past the harness's capture, so the CI log
        // carries the measured values next to the bounds.
        let _ = writeln!(
            std::io::stderr(),
            "oracle: {label}: largest backward error {worst_be:.3e}, \
             largest solve residual {worst_sr:.3e}"
        );
    }
}

#[test]
fn every_engine_refuses_an_indefinite_matrix_at_the_oracles_column() {
    let a = grid3d(6, 5, 5, Stencil::Star7, 1, 73);
    let (sym, mut ap) = analyzed(&a, &SymbolicOptions::default());
    // A strongly negative diagonal at the first column of a multi-column
    // supernode halfway through the factor order. (The device POTRF
    // reports its supernode's first column, so that is where the bad
    // pivot goes; every earlier column is untouched and still SPD.)
    let s = (sym.nsup() / 2..sym.nsup())
        .find(|&s| sym.sn_ncols(s) > 1)
        .expect("a multi-column supernode in the upper half");
    let bad = sym.sn.first_col(s);
    let diag = ap.colptr()[bad];
    assert_eq!(ap.rowind()[diag], bad, "diagonal stored first");
    ap.values_mut()[diag] = -50.0;

    let oracle = simplicial_cholesky(&ap).unwrap_err();
    assert_eq!(oracle, FactorError::NotPositiveDefinite { column: bad });
    for method in Method::ALL {
        for &threshold in thresholds(method) {
            assert_eq!(
                factor(method, &sym, &ap, threshold).unwrap_err(),
                oracle,
                "{} thr {threshold}",
                method.label()
            );
        }
    }
}
