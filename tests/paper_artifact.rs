//! Tier-1 pin on the committed `BENCH_paper.json`: two suite rows are
//! regenerated through the function the `paper` bin emits rows with and
//! must occur in the file verbatim, so a drift in any pinned digit —
//! ordering, symbolic analysis, either CPU engine's trace, the
//! performance model or one of the three simulated-GPU engines — fails
//! here without the 100-second full run (`paper --check`, its own CI job).

use rlchol_bench::paper::matrix_row;
use rlchol_bench::prepare;
use rlchol_matgen::paper_suite;
use rlchol_matgen::suite::SuiteConfig;

const COMMITTED: &str = include_str!("../BENCH_paper.json");

/// The `matrices` section's lines, without their separating commas.
fn matrix_rows() -> Vec<&'static str> {
    COMMITTED
        .lines()
        .skip_while(|l| *l != "\"matrices\":[")
        .skip(1)
        .take_while(|l| *l != "],")
        .map(|l| l.trim_end_matches(','))
        .collect()
}

fn field<'a>(row: &'a str, key: &str) -> &'a str {
    let tail = row
        .split_once(&format!("\"{key}\":"))
        .unwrap_or_else(|| panic!("row has no `{key}`: {row}"))
        .1;
    tail.split([',', '}']).next().unwrap()
}

#[test]
fn regenerated_rows_occur_verbatim_in_the_committed_file() {
    let cfg = SuiteConfig::default();
    let rows = matrix_rows();
    // The two cheapest suite matrices (a debug build factors each ten
    // times here).
    for name in ["PFlow_742", "dielFilterV2real"] {
        let entry = paper_suite()
            .into_iter()
            .find(|e| e.name == name)
            .expect("suite entry");
        let p = prepare(entry.name, entry.generate());
        let line = matrix_row(&entry, &p, &cfg).json();
        assert!(
            rows.contains(&line.as_str()),
            "{name}: the regenerated row is not in BENCH_paper.json \
             (rerun `cargo run --release -p rlchol-bench --bin paper` if the change is meant):\n{line}"
        );
    }
}

#[test]
fn the_committed_file_has_the_papers_shape() {
    let rows = matrix_rows();
    assert_eq!(rows.len(), 21, "one row per suite matrix");
    for (row, entry) in rows.iter().zip(paper_suite()) {
        assert_eq!(field(row, "matrix"), format!("\"{}\"", entry.name));
    }
    // Table I's blank row: RL_G cannot hold nlpkkt120's update matrix,
    // RLB_G's second version factors it.
    let row = rows
        .iter()
        .find(|r| field(r, "matrix") == "\"nlpkkt120\"")
        .unwrap();
    assert_eq!(field(row, "rl_g_s"), "null");
    let v2: f64 = field(row, "rlb_g_v2_s").parse().expect("a number");
    assert!(v2 > 0.0);
}
