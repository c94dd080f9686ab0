//! Every simulated statistic of every registry kind at widths 2/4/8 on
//! the whole suite must match the committed golden digest, cell by cell.
//!
//! A mismatch means simulated behaviour changed. If that is intended,
//! re-bless with
//! `cargo run --release -p ballerino-bench --bin cycles_dump > crates/bench/golden/all_kinds.txt`
//! and record it in the change notes.

use ballerino_bench::{golden_text, threads};

const GOLDEN: &str = include_str!("../golden/all_kinds.txt");

#[test]
fn every_cell_matches_the_committed_golden() {
    let got = golden_text(threads());
    let mut mismatches: Vec<String> = got
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n   got {g}"))
        .collect();
    let (n_got, n_want) = (got.lines().count(), GOLDEN.lines().count());
    if n_got != n_want {
        mismatches.push(format!(
            "  golden has {n_want} lines, the grid gives {n_got}"
        ));
    }
    assert!(
        mismatches.is_empty(),
        "{} golden lines differ (the first line is the header):\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
