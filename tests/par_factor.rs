//! End-to-end tests of the task-parallel numeric factorization: the
//! elimination-tree scheduler must reproduce the serial engines across
//! thread counts and tree shapes, and propagate numeric failures cleanly
//! out of the pool.

use rlchol::core::{engine_for, EngineWorkspace, FactorData, FactorError, GpuOptions};
use rlchol::matgen::{grid3d, laplace2d, Stencil};
use rlchol::sparse::{SymCsc, TripletMatrix};
use rlchol::symbolic::{analyze, SymbolicOptions};
use rlchol::{CholeskySolver, Method, SolverOptions};

const THREAD_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn prepared(a: &SymCsc) -> (rlchol::SymbolicFactor, SymCsc) {
    let sym = analyze(a, &SymbolicOptions::default());
    let ap = a.permute(&sym.perm);
    (sym, ap)
}

/// One CPU engine through the registry at an explicit lane count.
fn factor(
    method: Method,
    sym: &rlchol::SymbolicFactor,
    ap: &SymCsc,
    threads: usize,
) -> Result<FactorData, FactorError> {
    let mut ws = EngineWorkspace::new(threads, GpuOptions::with_threshold(usize::MAX));
    engine_for(method)
        .factor(sym, ap, &mut ws)
        .map(|run| run.factor)
}

/// Both parallel engines against their serial counterparts at 1e-11.
fn check_matches_serial(a: &SymCsc, label: &str) {
    let (sym, ap) = prepared(a);
    let rl = factor(Method::RlCpu, &sym, &ap, 1).unwrap();
    let rlb = factor(Method::RlbCpu, &sym, &ap, 1).unwrap();
    for threads in THREAD_SWEEP {
        let rl_par = factor(Method::RlCpuPar, &sym, &ap, threads).unwrap();
        let d = rl.max_rel_diff(&rl_par);
        assert!(d < 1e-11, "{label}: RL threads={threads} diff {d}");
        let rlb_par = factor(Method::RlbCpuPar, &sym, &ap, threads).unwrap();
        let d = rlb.max_rel_diff(&rlb_par);
        assert!(d < 1e-11, "{label}: RLB threads={threads} diff {d}");
    }
}

#[test]
fn parallel_matches_serial_on_laplace2d() {
    check_matches_serial(&laplace2d(20, 7), "laplace2d(20)");
}

#[test]
fn parallel_matches_serial_on_grid3d() {
    check_matches_serial(&grid3d(8, 8, 8, Stencil::Star7, 1, 13), "grid3d(8^3)");
}

/// A tridiagonal chain: the elimination tree is a single path (tall and
/// skinny), so almost no two supernodes are ever ready together — the
/// scheduler must degrade to (correct) serial execution.
#[test]
fn parallel_matches_serial_on_tall_skinny_tree() {
    let n = 400;
    let mut t = TripletMatrix::new(n, n);
    for j in 0..n {
        t.push(j, j, 4.0);
        if j + 1 < n {
            t.push(j + 1, j, -1.0);
        }
    }
    let a = SymCsc::from_lower_triplets(&t).unwrap();
    // Natural order keeps the chain a chain (ND would bisect it).
    let (sym, ap) = prepared(&a);
    // The merged supernodal etree of a chain is (almost) a path: every
    // supernode has at most one child.
    let nsup = sym.nsup();
    let mut children = vec![0usize; nsup];
    for s in 0..nsup {
        let p = sym.sn_parent[s];
        if p != rlchol::symbolic::NONE {
            children[p] += 1;
        }
    }
    assert!(
        children.iter().filter(|&&c| c > 1).count() <= nsup / 8,
        "chain should produce a path-like supernodal tree"
    );
    check_matches_serial(&a, "tridiagonal chain");
    let _ = ap;
}

/// A forest of disconnected small grids: every tree root is independent,
/// so the ready queue is wide from the start (bushy) and all lanes fill
/// immediately.
#[test]
fn parallel_matches_serial_on_wide_bushy_forest() {
    let (blocks, k) = (12usize, 6usize);
    let bn = k * k;
    let mut t = TripletMatrix::new(blocks * bn, blocks * bn);
    for b in 0..blocks {
        let base = b * bn;
        for y in 0..k {
            for x in 0..k {
                let v = base + y * k + x;
                t.push(v, v, 4.0 + (b % 3) as f64);
                if x + 1 < k {
                    t.push(v + 1, v, -1.0);
                }
                if y + 1 < k {
                    t.push(v + k, v, -1.0);
                }
            }
        }
    }
    let a = SymCsc::from_lower_triplets(&t).unwrap();
    let (sym, _) = prepared(&a);
    // A forest: at least `blocks` independent roots.
    let roots = (0..sym.nsup())
        .filter(|&s| sym.sn_parent[s] == rlchol::symbolic::NONE)
        .count();
    assert!(
        roots >= blocks,
        "expected a bushy forest, got {roots} roots"
    );
    check_matches_serial(&a, "disconnected grids");
}

/// A non-positive-definite pivot must propagate out of the worker pool as
/// a clean error — no deadlock, no poisoned state — and leave the
/// scheduler usable for the next factorization.
#[test]
fn indefinite_matrix_errors_cleanly_in_parallel() {
    let n = 120;
    let mut t = TripletMatrix::new(n, n);
    for j in 0..n {
        // A strongly negative diagonal entry mid-chain breaks positive
        // definiteness partway through the factorization.
        t.push(j, j, if j == 61 { -50.0 } else { 4.0 });
        if j + 1 < n {
            t.push(j + 1, j, -1.0);
        }
    }
    let a = SymCsc::from_lower_triplets(&t).unwrap();
    let (sym, ap) = prepared(&a);
    assert!(matches!(
        factor(Method::RlCpu, &sym, &ap, 1),
        Err(FactorError::NotPositiveDefinite { .. })
    ));
    for threads in THREAD_SWEEP {
        assert!(
            matches!(
                factor(Method::RlbCpuPar, &sym, &ap, threads),
                Err(FactorError::NotPositiveDefinite { .. })
            ),
            "RLB threads={threads}"
        );
        assert!(
            matches!(
                factor(Method::RlCpuPar, &sym, &ap, threads),
                Err(FactorError::NotPositiveDefinite { .. })
            ),
            "RL threads={threads}"
        );
    }
    // The pool survives the failed batches: a healthy factorization
    // still succeeds afterwards.
    let good = laplace2d(10, 3);
    let (gs, gap) = prepared(&good);
    assert!(factor(Method::RlbCpuPar, &gs, &gap, 4).is_ok());
}

/// The solver pipeline accepts the parallel methods end to end.
#[test]
fn solver_pipeline_with_parallel_methods() {
    let a = grid3d(6, 6, 5, Stencil::Star7, 1, 42);
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
            let x = solver.solve(&b);
            let err = x
                .iter()
                .zip(&x_true)
                .fold(0.0f64, |m, (&p, &q)| m.max((p - q).abs()));
            assert!(err < 1e-8, "{method:?} threads={threads}: error {err}");
        }
    }
}
