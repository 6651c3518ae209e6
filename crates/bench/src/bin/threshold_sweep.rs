//! **E-THRESH**: ablation of the CPU/GPU supernode-size threshold and of
//! the asynchronous copy-back overlap.
//!
//! The paper determined thresholds empirically: 600 000 for RL and
//! 750 000 for RLB (§IV-B). This sweep regenerates that choice at suite
//! scale: times as a function of the threshold for three representative
//! matrices (small / medium / large), plus the no-overlap ablation at the
//! chosen threshold.

use rlchol_bench::{cpu_baseline, gpu_options, prepare, run_gpu};
use rlchol_core::engine::Method;
use rlchol_matgen::paper_suite;
use rlchol_matgen::suite::SuiteConfig;
use rlchol_report::Table;

fn main() {
    let cfg = SuiteConfig::default();
    let picks = ["CurlCurl_2", "Serena", "Queen_4147"];
    let thresholds: [usize; 8] = [
        0,
        6_000,
        12_000,
        24_000,
        30_000,
        60_000,
        120_000,
        usize::MAX,
    ];
    println!("Threshold sweep: GPU-accelerated runtime (s) vs offload threshold");
    println!(
        "(suite thresholds: RL {} / RLB {}; MAX = CPU only)\n",
        cfg.rl_threshold, cfg.rlb_threshold
    );
    for method in [Method::RlGpu, Method::RlbGpuV2] {
        println!("== {} ==", method.label());
        let mut t = Table::new(vec!["threshold", picks[0], picks[1], picks[2]]);
        let prepared: Vec<_> = paper_suite()
            .into_iter()
            .filter(|e| picks.contains(&e.name))
            .map(|e| {
                let p = prepare(&e);
                let (best, _, _) = cpu_baseline(&p);
                (p, best)
            })
            .collect();
        for thr in thresholds {
            let mut row = vec![if thr == usize::MAX {
                "CPU-only".to_string()
            } else {
                format!("{thr}")
            }];
            for (p, best_cpu) in &prepared {
                let time = if thr == usize::MAX {
                    *best_cpu
                } else {
                    match run_gpu(p, method, &gpu_options(&cfg, thr)) {
                        Ok(r) => r.sim_seconds,
                        Err(_) => f64::NAN,
                    }
                };
                row.push(if time.is_nan() {
                    "OOM".into()
                } else {
                    format!("{time:.4}")
                });
            }
            t.row(row);
        }
        println!("{}", t.render());
    }

    // Overlap ablation at the suite thresholds.
    println!("== async copy-back overlap ablation (RL_G, suite threshold) ==");
    let mut t = Table::new(vec![
        "Matrix",
        "overlap on (s)",
        "overlap off (s)",
        "off/on",
    ]);
    for name in picks {
        let entry = paper_suite().into_iter().find(|e| e.name == name).unwrap();
        let p = prepare(&entry);
        let mut on = gpu_options(&cfg, cfg.rl_threshold);
        on.overlap = true;
        let mut off = on.clone();
        off.overlap = false;
        let t_on = run_gpu(&p, Method::RlGpu, &on).unwrap().sim_seconds;
        let t_off = run_gpu(&p, Method::RlGpu, &off).unwrap().sim_seconds;
        t.row(vec![
            name.to_string(),
            format!("{t_on:.4}"),
            format!("{t_off:.4}"),
            format!("{:.3}", t_off / t_on),
        ]);
    }
    println!("{}", t.render());
}
