//! The paper, regenerated: one run, one committed artifact.
//!
//! ```sh
//! cargo run --release -p rlchol-bench --bin paper              # write BENCH_paper.json, print every section
//! cargo run --release -p rlchol-bench --bin paper -- --check   # compare a fresh run to the committed file
//! cargo run --release -p rlchol-bench --bin paper -- table1 fig3   # print only these sections
//! ```
//!
//! Every run computes everything (`rlchol_bench::paper::generate`),
//! asserts the paper's shape claims and renders `BENCH_paper.json` at
//! the workspace root; section names only filter what is printed. The
//! tables are views of the file's rows under the file's own column
//! names ("OOM" where the file has `null`).

use std::process::ExitCode;

use rlchol_bench::paper::{ascii_plot, generate, render, Artifact, PROFILE_SOLVERS};

const ARTIFACT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_paper.json");

/// A printed section: its name, its title, and the views it is made of —
/// `(file section, space-separated columns)`, every column when empty.
type Section = (
    &'static str,
    &'static str,
    &'static [(&'static str, &'static str)],
);

const SECTIONS: [Section; 9] = [
    (
        "table1",
        "TABLE I: GPU-accelerated RL — run time, speed-up over the best CPU configuration \
         ({RL, RLB} x {8..128} threads), supernodes on the GPU; nlpkkt120's update matrix \
         does not fit the device",
        &[(
            "matrices",
            "matrix rl_g_s rl_g_speedup sn_on_gpu_rl supernodes \
             paper_rl_g_s paper_rl_g_speedup paper_rl_g_on_gpu paper_supernodes",
        )],
    ),
    (
        "table2",
        "TABLE II: GPU-accelerated RLB (second version, per-block transfers), which factors \
         nlpkkt120",
        &[(
            "matrices",
            "matrix rlb_g_v2_s rlb_g_speedup sn_on_gpu_rlb supernodes \
             paper_rlb_g_s paper_rlb_g_speedup paper_rlb_g_on_gpu paper_supernodes",
        )],
    ),
    (
        "fig3",
        "FIGURE 3: performance profile, P(log2(r_ps) <= tau) over the 21-matrix suite",
        &[("profile", "")],
    ),
    (
        "gpu_only",
        "GPU-ONLY runs (§IV-B: all BLAS on the device, threshold 0) against the best CPU time \
         (paper: slower than CPU-only for most matrices)",
        &[(
            "matrices",
            "matrix best_cpu_s gpu_only_rl_g_s gpu_only_rlb_g_v1_s gpu_only_rlb_g_v2_s",
        )],
    ),
    (
        "rlb_variants",
        "RLB GPU variants (§IV-B): v1 (one batched update transfer per supernode) vs v2 \
         (per-block transfers) — same bytes, so bandwidth rules and latency hardly shows",
        &[(
            "matrices",
            "matrix rlb_g_v1_s rlb_g_v2_s rlb_g_v1_d2h_ops rlb_g_v2_d2h_ops",
        )],
    ),
    (
        "threshold_sweep",
        "Threshold sweep: simulated seconds vs offload threshold (the suite's 12 000 / 45 000 \
         are the paper's 600 000 / 750 000 scaled), and the copy-back overlap ablation",
        &[("threshold_sweep", ""), ("overlap", "")],
    ),
    (
        "merge_pr",
        "Setup ablation (§IV-A): supernode merging (25 % cap) x partition refinement — merging \
         cuts the supernode count, PR cuts the blocks and with them RLB's BLAS calls",
        &[("merge_pr", "")],
    ),
    (
        "streams",
        "Pipelined engines: stream pairs x retirement discipline (out-of-order with the \
         adaptive lookahead window)",
        &[("streams_matrix", ""), ("streams", "")],
    ),
    (
        "calibrate",
        "Calibration: the structural numbers SuiteConfig's thresholds and device capacity \
         were picked from",
        &[
            (
                "matrices",
                "matrix n nnz_a supernodes factor_nnz flops max_update_entries \
                 rl_device_bytes sn_on_gpu_rl sn_on_gpu_rlb best_cpu_s",
            ),
            ("suite", ""),
        ],
    ),
];

fn main() -> ExitCode {
    let mut check = false;
    let mut wanted: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
        } else if SECTIONS.iter().any(|s| s.0 == arg) {
            wanted.push(arg);
        } else {
            let names: Vec<&str> = SECTIONS.iter().map(|s| s.0).collect();
            eprintln!(
                "usage: paper [--check] [SECTION ...]\nsections: {}",
                names.join(" ")
            );
            return ExitCode::from(2);
        }
    }

    let art = generate();
    art.assert_claims();
    let json = art.to_json();

    // `--check` alone is CI's gate and prints no tables.
    let print_all = wanted.is_empty() && !check;
    for (name, title, views) in SECTIONS {
        if print_all || wanted.iter().any(|w| w == name) {
            println!("{title}\n");
            if name == "fig3" {
                plot_profile(&art);
            }
            for (section, columns) in views {
                println!("{}", render(art.section(section), columns));
            }
        }
    }
    println!("shape gaps (RLB_G below 1x; paper: >= 1.09 on every matrix):");
    println!("{}", render(art.section("shape_gaps"), ""));

    if !check {
        std::fs::write(ARTIFACT, json).expect("writing BENCH_paper.json");
        eprintln!("wrote {ARTIFACT}");
        return ExitCode::SUCCESS;
    }
    let committed =
        std::fs::read_to_string(ARTIFACT).expect("reading the committed BENCH_paper.json");
    if committed == json {
        eprintln!("{ARTIFACT} matches this run");
        return ExitCode::SUCCESS;
    }
    // The first differing line; past the shorter text when one is a
    // prefix of the other.
    let (old, new): (Vec<&str>, Vec<&str>) = (committed.lines().collect(), json.lines().collect());
    let at = (0..old.len().max(new.len()))
        .find(|&i| old.get(i) != new.get(i))
        .expect("unequal texts differ at some line");
    eprintln!(
        "{ARTIFACT} differs from this run at line {}:\n  committed: {}\n  this run:  {}",
        at + 1,
        old.get(at).unwrap_or(&"<end of file>"),
        new.get(at).unwrap_or(&"<end of file>"),
    );
    ExitCode::FAILURE
}

/// Figure 3's terminal rendering (the file keeps six ordinates a curve).
fn plot_profile(art: &Artifact) {
    let (taus, curves) = art.profile().curves(2.0, 33);
    let solvers = PROFILE_SOLVERS.map(|s| s.0);
    println!("{}", ascii_plot(&taus, &curves, &solvers, 66, 21));
}
