//! Allocation accounting for the staged hot paths: after warm-up,
//! `solve_into`, `solve_many` and `solve_refined` must perform **zero**
//! heap allocations per call — and so must a `factor_with` + `recycle`
//! serving loop through a warm workspace lane (lane checkout/return,
//! recycled factor storage, recycled trace buffer, RLB's in-place
//! update sweep and RL's scatter). Enforced with a counting global allocator, so a
//! regression that sneaks a `Vec` into a hot path fails loudly.
//!
//! The counting allocator is per-binary, so this file holds exactly one
//! test (the harness runs tests in parallel threads; a second test's
//! allocations would race the counter).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rlchol::core::engine::{GpuOptions, RetireMode};
use rlchol::matgen::{grid3d, Stencil};
use rlchol::{CholeskySolver, SolveWorkspace, SolverOptions};

struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on; returns the allocation count.
fn count_allocs(f: impl FnOnce()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    f();
    COUNTING.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

/// Asserts `f` performs zero heap allocations, retrying up to three
/// attempts. The counter is process-global, so rare allocations from
/// runtime/harness threads can land inside a counted window on a loaded
/// single-CPU host; those are transient across attempts, while a real
/// hot-path allocation recurs on every one.
fn assert_alloc_free(label: &str, mut f: impl FnMut()) {
    let mut allocs = 0;
    for _ in 0..3 {
        allocs = count_allocs(&mut f);
        if allocs == 0 {
            return;
        }
    }
    panic!("{label} allocated {allocs} times after warm-up");
}

/// Lets freshly spawned pool workers finish their one-time thread
/// startup (which allocates) before counting begins. On a single-CPU
/// host the children may not have been scheduled at all until the main
/// thread yields, so a plain warm-up call is not enough.
fn settle_pool() {
    if rlchol::dense::pool::global().threads() > 1 {
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

#[test]
fn solves_are_allocation_free_after_warm_up() {
    let a = grid3d(6, 5, 4, Stencil::Star7, 1, 11);
    let n = a.n();
    let k = 3;
    let handle = CholeskySolver::analyze(&a, &SolverOptions::default());
    let fact = handle.factor_with(&a).expect("SPD input");

    let b: Vec<f64> = (0..n * k).map(|i| ((i * 17) % 41) as f64 - 20.0).collect();
    let mut x = vec![0.0; n];
    let mut xs = vec![0.0; n * k];
    let mut ws = SolveWorkspace::new();

    // Warm-up: the workspace buffers grow to their steady-state sizes.
    handle.solve_into(&fact, &b[..n], &mut x, &mut ws).unwrap();
    handle.solve_many(&fact, &b, &mut xs, k, &mut ws).unwrap();
    handle
        .solve_refined(&fact, &a, &b[..n], &mut x, 2, &mut ws)
        .unwrap();
    settle_pool();

    // Steady state: repeated solves must not touch the heap.
    assert_alloc_free("solve path", || {
        for _ in 0..5 {
            handle.solve_into(&fact, &b[..n], &mut x, &mut ws).unwrap();
            handle.solve_many(&fact, &b, &mut xs, k, &mut ws).unwrap();
            handle
                .solve_refined(&fact, &a, &b[..n], &mut x, 2, &mut ws)
                .unwrap();
        }
    });

    // And a workspace pre-grown with `warm` is allocation-free from the
    // very first call. A fresh workspace per attempt, so a retry still
    // exercises the first-use path (an under-sized `warm` would grow on
    // attempt one and pass warmed-up otherwise).
    let mut attempts = 0;
    let allocs = loop {
        let mut warm_ws = SolveWorkspace::warm(n, k);
        let counted = count_allocs(|| {
            handle
                .solve_into(&fact, &b[..n], &mut x, &mut warm_ws)
                .unwrap();
            handle
                .solve_many(&fact, &b, &mut xs, k, &mut warm_ws)
                .unwrap();
        });
        attempts += 1;
        if counted == 0 || attempts == 3 {
            break counted;
        }
    };
    assert_eq!(
        allocs, 0,
        "warm workspace allocated {allocs} times on first use"
    );

    // A second, larger system through a workspace that grows on its
    // own: the sweeps' supernode buffer holds `k` right-hand sides of
    // the largest below-diagonal row count, and stays put once grown.
    // The handle asks for out-of-order retirement: that is a setting of
    // the pipelined GPU executor and must not reach the solves.
    let a2 = grid3d(8, 8, 6, Stencil::Star7, 1, 12);
    let n2 = a2.n();
    let handle2 = CholeskySolver::analyze(
        &a2,
        &SolverOptions {
            gpu: GpuOptions::with_threshold(usize::MAX).with_retire(RetireMode::Ooo),
            ..SolverOptions::default()
        },
    );
    let fact2 = handle2.factor_with(&a2).expect("SPD input");
    let bp: Vec<f64> = (0..n2 * k).map(|i| ((i * 7) % 43) as f64 - 21.0).collect();
    let mut xp = vec![0.0; n2];
    let mut xsp = vec![0.0; n2 * k];
    let mut ws2 = SolveWorkspace::new();
    // Warm-up grows the workspace to this system.
    handle2
        .solve_into(&fact2, &bp[..n2], &mut xp, &mut ws2)
        .unwrap();
    handle2
        .solve_many(&fact2, &bp, &mut xsp, k, &mut ws2)
        .unwrap();
    handle2
        .solve_refined(&fact2, &a2, &bp[..n2], &mut xp, 2, &mut ws2)
        .unwrap();
    settle_pool();
    assert_alloc_free("second solve path", || {
        for _ in 0..5 {
            handle2
                .solve_into(&fact2, &bp[..n2], &mut xp, &mut ws2)
                .unwrap();
            handle2
                .solve_many(&fact2, &bp, &mut xsp, k, &mut ws2)
                .unwrap();
            handle2
                .solve_refined(&fact2, &a2, &bp[..n2], &mut xp, 2, &mut ws2)
                .unwrap();
        }
    });

    // Lane-pooled factorization: a factor_with/recycle serving loop on a
    // warm lane must not touch the heap either, for both CPU families.
    // RLB applies updates directly into factor storage; RL forms each
    // update matrix in the workspace's preallocated buffer and scatters it
    // with relative indices written into lane scratch. The lane's recycle
    // bins return the factor storage and trace buffer, and lane
    // checkout/return is a free-list pop/push — so after one warm-up
    // round the loop is allocation-free end to end.
    let a_cpu = grid3d(5, 5, 4, Stencil::Star7, 1, 13);
    for method in [rlchol::Method::RlbCpu, rlchol::Method::RlCpu] {
        let handle = CholeskySolver::analyze(
            &a_cpu,
            &SolverOptions {
                method,
                factor_lanes: 2,
                ..SolverOptions::default()
            },
        );
        // Warm-up: creates the lane, grows engine scratch and the GEMM
        // packing buffers, seeds the recycle bins.
        for _ in 0..2 {
            let warm = handle.factor_with(&a_cpu).expect("SPD input");
            handle.recycle(warm);
        }
        settle_pool();
        assert_alloc_free(&format!("{method:?} lane-pooled factor_with"), || {
            for _ in 0..5 {
                let fact = handle.factor_with(&a_cpu).expect("SPD input");
                handle.recycle(fact);
            }
        });
        let stats = handle.lane_stats();
        assert_eq!(
            (stats.created, stats.in_use),
            (1, 0),
            "a serial serving loop reuses one lane: {stats:?}"
        );

        // refactor through the same lane pool is equally allocation-free
        // (storage recycles through the factorization itself).
        let mut fact = handle.factor_with(&a_cpu).expect("SPD input");
        handle.refactor(&mut fact, &a_cpu).expect("SPD values");
        settle_pool();
        assert_alloc_free(&format!("{method:?} lane-pooled refactor"), || {
            for _ in 0..5 {
                handle.refactor(&mut fact, &a_cpu).expect("SPD values");
            }
        });
    }

    // Analyze path: repeated analyses on a warm process allocate a
    // bounded, *stable* amount per call — analysis inherently builds
    // its structures on the heap, but the count must not creep from
    // call to call (a creep means some cache, pool queue, or
    // thread-local is growing without bound under analyze churn). The
    // parallel pipeline is the interesting case: it boxes pool tasks
    // and per-thread scratch on every call.
    let a_an = grid3d(6, 6, 5, Stencil::Star7, 1, 14);
    let opts_an = SolverOptions {
        analyze_threads: 4,
        ..SolverOptions::default()
    };
    let analyze_once = || {
        let h = CholeskySolver::analyze(&a_an, &opts_an);
        std::hint::black_box(&h);
    };
    // Warm-up settles one-time lazies (ordering scratch, pool state).
    analyze_once();
    settle_pool();
    let baseline = (0..3)
        .map(|_| count_allocs(analyze_once))
        .min()
        .expect("three baseline runs");
    assert!(baseline > 0, "analysis allocates its structures");
    // Same retry idiom as the zero-alloc sections: harness threads can
    // leak stray allocations into one window on a loaded host, but a
    // real per-call creep recurs on every attempt.
    let bound = baseline + baseline / 4 + 16;
    let mut last = 0;
    let mut stable = false;
    for _ in 0..3 {
        last = count_allocs(analyze_once);
        if last <= bound {
            stable = true;
            break;
        }
    }
    assert!(
        stable,
        "warm-process analyze allocations crept: {last} vs baseline {baseline} (bound {bound})"
    );
}
