//! The benchmark must keep compiling, unchanged, while the library sheds
//! its extra stepping engines, frozen oracles and their knobs. So its
//! sources may name none of them; and every workload carries goldens for
//! both golden seeds.

use std::path::{Path, PathBuf};

/// Library items and environment knobs slated for removal.
const FORBIDDEN: [&str; 16] = [
    "cycles_macro",
    "cycles_block",
    "block_len_hist",
    "blocks_built",
    "blocks_invalidated",
    "use_macro",
    "use_block",
    "run_machine_reference",
    "CoreRef",
    "with_naive_lookup",
    "with_broadcast_wakeup",
    "with_reference_",
    "MEM_NAIVE",
    "REFERENCE",
    "BROADCAST_WAKEUP",
    "MACRO_BACKOFF",
];

/// Knob prefix of the stepping-engine and fast-path switches.
const FORBIDDEN_PREFIX: &str = "BALLERINO_NO_";

fn sources() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut out: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("src/ is readable")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    out.push(Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml"));
    out.sort();
    out
}

#[test]
fn sources_name_no_api_slated_for_removal() {
    let mut hits = Vec::new();
    for path in sources() {
        let text = std::fs::read_to_string(&path).expect("source is readable");
        for (no, line) in text.lines().enumerate() {
            for word in FORBIDDEN.iter().chain([&FORBIDDEN_PREFIX]) {
                if line.contains(word) {
                    hits.push(format!("{}:{}: {word}", path.display(), no + 1));
                }
            }
        }
    }
    assert!(hits.is_empty(), "forbidden names:\n{}", hits.join("\n"));
}

#[test]
fn every_workload_has_goldens_for_both_seeds() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("golden");
    for workload in ["dense_matrix", "memory_matrix", "tiered_sweep", "campaign"] {
        for seed in [42, 7] {
            let p = dir.join(format!("{workload}.s{seed}.txt"));
            let text =
                std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            assert!(
                text.lines().any(|l| l.contains(' ')),
                "{} has no entries",
                p.display()
            );
        }
    }
}
