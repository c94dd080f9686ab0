//! The committed `results/` are what `figures` writes at the default
//! protocol against the committed golden. Runs no simulation: it checks
//! that every figure's file exists, that nothing else is there, and that
//! each file's header names n = 20 000, seed 42 and the FNV-1a of
//! `crates/bench/golden/all_kinds.txt`. A golden re-bless therefore
//! fails here until `results/` is regenerated:
//!
//! ```sh
//! cargo run --release -p ballerino-bench --bin figures
//! ```

use ballerino_bench::figures::{header, FIGURES};
use std::path::Path;

#[test]
fn every_results_file_is_stamped_with_the_committed_golden() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let want = header(20_000, 42);
    for fig in FIGURES {
        let path = dir.join(format!("{}.txt", fig.name));
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let got = text.split_inclusive('\n').next().unwrap_or("");
        assert_eq!(
            got,
            want,
            "{} is stale: regenerate results/ with the figures binary",
            path.display()
        );
    }
    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .expect("results/ exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|f| f != "README.md")
        .collect();
    files.sort();
    let mut written: Vec<String> = FIGURES.iter().map(|f| format!("{}.txt", f.name)).collect();
    written.sort();
    assert_eq!(files, written, "results/ holds exactly what figures writes");
}
