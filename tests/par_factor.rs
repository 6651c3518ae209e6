//! End-to-end tests of the CPU tree executor through the registry: every
//! CPU method must give the one-lane factor bit for bit across lane
//! counts and tree shapes, and propagate numeric failures cleanly out of
//! its lanes.
//!
//! The executor runs its one-lane sweep below a flop cutoff and when
//! another CPU factorization is in flight as it starts. So every test
//! here holds [`serial`] while it factors, and each multi-lane check
//! asserts the lanes its runs started (`FactorInfo::lanes`): the tree
//! shapes above the cutoff must reach the tree, the small ones stay as
//! extra inputs of the sweep.

use std::sync::{Mutex, MutexGuard};

use rlchol::core::{engine_for, EngineWorkspace, FactorData, FactorError, GpuOptions};
use rlchol::matgen::{grid3d, laplace2d, Stencil};
use rlchol::ordering::order;
use rlchol::sparse::{SymCsc, TripletMatrix};
use rlchol::symbolic::{analyze, SymbolicOptions};
use rlchol::{CholeskySolver, Method, OrderingMethod, SolverOptions};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// One factorization at a time in this test binary, so none of them
/// sees another in flight and falls back to one lane.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn prepared(a: &SymCsc) -> (rlchol::SymbolicFactor, SymCsc) {
    let sym = analyze(a, &SymbolicOptions::default());
    let ap = a.permute(&sym.perm);
    (sym, ap)
}

/// `a` in nested-dissection order: a bushy tree.
fn dissected(a: &SymCsc) -> SymCsc {
    a.permute(&order(a, OrderingMethod::NestedDissection))
}

/// The 16³ 7-point grid in nested-dissection order, above the cutoff.
fn cube16() -> SymCsc {
    dissected(&grid3d(16, 16, 16, Stencil::Star7, 1, 13))
}

/// One CPU engine through the registry at an explicit lane count: the
/// factor and the lanes the run started.
fn factor(
    method: Method,
    sym: &rlchol::SymbolicFactor,
    ap: &SymCsc,
    threads: usize,
) -> Result<(FactorData, usize), FactorError> {
    let mut ws = EngineWorkspace::new(threads, GpuOptions::with_threshold(usize::MAX));
    engine_for(method)
        .factor(sym, ap, &mut ws)
        .map(|run| (run.factor, run.info.lanes))
}

/// Every CPU method at every lane count against its family at one lane,
/// bit for bit. `tree`: the matrix is above the cutoff, so a run at
/// `threads` lanes must start that many; else every run is the sweep.
fn check_matches_serial(a: &SymCsc, label: &str, tree: bool) {
    let _serial = serial();
    let (sym, ap) = prepared(a);
    let (rl, _) = factor(Method::RlCpu, &sym, &ap, 1).unwrap();
    let (rlb, _) = factor(Method::RlbCpu, &sym, &ap, 1).unwrap();
    for threads in THREAD_SWEEP {
        for (method, serial) in [
            (Method::RlCpu, &rl),
            (Method::RlCpuPar, &rl),
            (Method::RlbCpu, &rlb),
            (Method::RlbCpuPar, &rlb),
        ] {
            let (got, lanes) = factor(method, &sym, &ap, threads).unwrap();
            assert_eq!(&got, serial, "{label}: {method:?} threads={threads}");
            let want = if tree { threads } else { 1 };
            assert_eq!(lanes, want, "{label}: {method:?} threads={threads} lanes");
        }
    }
}

#[test]
fn parallel_matches_serial_on_laplace2d() {
    check_matches_serial(&laplace2d(20, 7), "laplace2d(20)", false);
}

#[test]
fn parallel_matches_serial_on_grid3d() {
    check_matches_serial(&cube16(), "grid3d(16^3) nd", true);
    check_matches_serial(
        &grid3d(8, 8, 8, Stencil::Star7, 1, 13),
        "grid3d(8^3)",
        false,
    );
}

/// A symmetric band matrix in natural order: each row couples to the
/// next `width` rows, so the elimination tree is a single path.
fn band(n: usize, width: usize) -> SymCsc {
    let mut t = TripletMatrix::new(n, n);
    for j in 0..n {
        t.push(j, j, 2.0 * width as f64 + 1.0);
        for i in j + 1..(j + width + 1).min(n) {
            t.push(i, j, -1.0);
        }
    }
    SymCsc::from_lower_triplets(&t).unwrap()
}

/// Whether `sym`'s supernodal tree is (almost) a path: at most one in
/// eight supernodes has more than one child.
fn path_like(sym: &rlchol::SymbolicFactor) -> bool {
    let nsup = sym.nsup();
    let mut children = vec![0usize; nsup];
    for s in 0..nsup {
        let p = sym.sn_parent[s];
        if p != rlchol::symbolic::NONE {
            children[p] += 1;
        }
    }
    children.iter().filter(|&&c| c > 1).count() <= nsup / 8
}

/// A tall, skinny tree: almost no two supernodes are ever ready
/// together, so the lanes find little but one source's applies — the
/// executor must degrade to (correct) serial execution.
#[test]
fn parallel_matches_serial_on_tall_skinny_tree() {
    // A tridiagonal chain (below the cutoff) and a wide band (above it).
    // Natural order keeps either a path (ND would bisect it).
    for (a, label, tree) in [
        (band(400, 1), "tridiagonal chain", false),
        (band(4000, 80), "band 4000 x 80", true),
    ] {
        let (sym, _) = prepared(&a);
        assert!(path_like(&sym), "{label}: path-like supernodal tree");
        check_matches_serial(&a, label, tree);
    }
}

/// `blocks` disconnected `k`-point-wide grids (2-D when `planes` is 1):
/// every tree root is independent, so the ready queue is wide from the
/// start (bushy) and all lanes fill immediately.
fn forest(blocks: usize, k: usize, planes: usize) -> SymCsc {
    let bn = k * k * planes;
    let mut t = TripletMatrix::new(blocks * bn, blocks * bn);
    for b in 0..blocks {
        let base = b * bn;
        for z in 0..planes {
            for y in 0..k {
                for x in 0..k {
                    let v = base + (z * k + y) * k + x;
                    t.push(v, v, 6.0 + (b % 3) as f64);
                    if x + 1 < k {
                        t.push(v + 1, v, -1.0);
                    }
                    if y + 1 < k {
                        t.push(v + k, v, -1.0);
                    }
                    if z + 1 < planes {
                        t.push(v + k * k, v, -1.0);
                    }
                }
            }
        }
    }
    SymCsc::from_lower_triplets(&t).unwrap()
}

#[test]
fn parallel_matches_serial_on_wide_bushy_forest() {
    for (blocks, k, planes, tree) in [(12, 6, 1, false), (4, 12, 12, true)] {
        let a = forest(blocks, k, planes);
        let (sym, _) = prepared(&a);
        // A forest: at least `blocks` independent roots.
        let roots = (0..sym.nsup())
            .filter(|&s| sym.sn_parent[s] == rlchol::symbolic::NONE)
            .count();
        assert!(
            roots >= blocks,
            "expected a bushy forest, got {roots} roots"
        );
        check_matches_serial(&a, &format!("{blocks} grids {k}^2 x {planes}"), tree);
    }
}

/// `a` with a strongly negative diagonal entry at column `j`, which
/// breaks positive definiteness partway through the factorization.
fn indefinite_at(a: &SymCsc, j: usize) -> SymCsc {
    let mut bad = a.clone();
    let diag = bad.colptr()[j];
    bad.values_mut()[diag] = -50.0;
    bad
}

/// A nonpositive pivot must propagate out of the lanes as a clean error
/// — the same one at every lane count, no deadlock, no poisoned state —
/// and leave the executor usable for the next factorization.
#[test]
fn indefinite_matrix_errors_cleanly_in_parallel() {
    let _serial = serial();
    // The broken cube has the healthy one's pattern, so the same flops:
    // above the cutoff, as its run at the end asserts.
    let cube = cube16();
    let chain = indefinite_at(&band(120, 1), 61);
    let bad_cube = indefinite_at(&cube, cube.n() / 2);
    for (a, label) in [(chain, "chain"), (bad_cube, "grid3d(16^3)")] {
        let (sym, ap) = prepared(&a);
        let want = factor(Method::RlCpu, &sym, &ap, 1).unwrap_err();
        assert!(
            matches!(want, FactorError::NotPositiveDefinite { .. }),
            "{label}: {want:?}"
        );
        for threads in THREAD_SWEEP {
            for method in [Method::RlCpuPar, Method::RlbCpuPar] {
                let got = factor(method, &sym, &ap, threads).unwrap_err();
                assert_eq!(got, want, "{label}: {method:?} threads={threads}");
            }
        }
    }
    // The lanes survive the failed runs: a healthy factorization still
    // runs the tree afterwards.
    let (sym, ap) = prepared(&cube);
    let (_, lanes) = factor(Method::RlbCpuPar, &sym, &ap, 4).unwrap();
    assert_eq!(lanes, 4, "the tree after the errors");
}

/// The solver pipeline accepts the parallel methods end to end.
#[test]
fn solver_pipeline_with_parallel_methods() {
    let _serial = serial();
    for (a, tree) in [
        (grid3d(6, 6, 5, Stencil::Star7, 1, 42), false),
        (cube16(), true),
    ] {
        let n = a.n();
        let x_true: Vec<f64> = (0..n).map(|i| (i % 9) as f64 - 4.0).collect();
        let mut b = vec![0.0; n];
        a.matvec(&x_true, &mut b);
        for method in [Method::RlCpuPar, Method::RlbCpuPar] {
            for threads in [0, 4] {
                let opts = SolverOptions {
                    method,
                    threads,
                    ..SolverOptions::default()
                };
                let solver = CholeskySolver::factor(&a, &opts).unwrap();
                if threads == 4 {
                    let want = if tree { 4 } else { 1 };
                    assert_eq!(solver.info().lanes, want, "{method:?} n={n}");
                }
                let x = solver.solve(&b);
                let err = x
                    .iter()
                    .zip(&x_true)
                    .fold(0.0f64, |m, (&p, &q)| m.max((p - q).abs()));
                assert!(
                    err < 1e-8,
                    "{method:?} threads={threads} n={n}: error {err}"
                );
            }
        }
    }
}
