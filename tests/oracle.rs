//! Every engine against the kernel-independent oracle.
//!
//! `simplicial_cholesky` is a column-by-column sparse Cholesky with no
//! supernodes and no BLAS — it shares nothing with the engines but the
//! input. Cross-engine agreement cannot see a bug in the dense kernels
//! all engines call; this comparison can. Every `Method::ALL` factor is
//! checked entry by entry over the whole supernodal pattern (entries the
//! oracle does not store must be zero fill), and an indefinite matrix
//! must be refused at the column the oracle refuses it at.

use rlchol::core::simplicial::simplicial_cholesky;
use rlchol::core::{engine_for, EngineWorkspace, FactorData, FactorError};
use rlchol::matgen::{grid2d, grid3d, Stencil};
use rlchol::ordering::{order, OrderingMethod};
use rlchol::sparse::SymCsc;
use rlchol::symbolic::{analyze, SymbolicFactor};
use rlchol::{GpuOptions, Method, SymbolicOptions};

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
        .factor(sym, ap, &mut EngineWorkspace::new(LANES, gpu))
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
