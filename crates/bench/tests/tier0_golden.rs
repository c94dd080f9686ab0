//! Every tier-0 estimate of the sweep specs must match the committed
//! digests in `crates/bench/golden/tier0.txt`.
//!
//! Each line pins the FNV-1a digest ([`fnv1a`], little-endian `u64`s)
//! of [`tier0_scores`] over every point of a spec scored on one
//! workload alone, so every (point, workload) estimate is covered: the
//! full spec ([`SweepSpec::full`]) at seeds 42 and 7, and the CI smoke
//! spec ([`SweepSpec::smoke`]). The estimator is integer-only, so any
//! change to the dataflow pass, the closed-form bounds or the
//! calibration moves a digest. Re-bless only for a change that is
//! meant to alter estimates, and say so in the change notes:
//!
//! ```sh
//! cargo test --release -p ballerino-bench --test tier0_golden -- --ignored bless
//! ```

use ballerino_bench::{fnv1a, tier0_scores, SweepSpec};
use std::fmt::Write as _;

const GOLDEN: &str = include_str!("../golden/tier0.txt");

/// The golden file's text: one `<spec> seed=<s> <workload> <digest>`
/// line per (spec, workload).
fn tier0_text() -> String {
    let mut specs = Vec::new();
    for seed in [42, 7] {
        specs.push((
            "full",
            SweepSpec {
                seed,
                ..SweepSpec::full()
            },
        ));
    }
    specs.push(("smoke", SweepSpec::smoke()));
    let mut s = String::new();
    for (name, spec) in specs {
        let points = spec.points();
        for &w in &spec.workloads {
            let one = SweepSpec {
                workloads: vec![w],
                ..spec.clone()
            };
            let bytes: Vec<u8> = tier0_scores(&one, &points)
                .iter()
                .flat_map(|e| e.to_le_bytes())
                .collect();
            let _ = writeln!(
                s,
                "{name} seed={} points={} {w} {:016x}",
                spec.seed,
                points.len(),
                fnv1a(&bytes)
            );
        }
    }
    s
}

#[test]
fn every_estimate_matches_the_committed_digests() {
    let got = tier0_text();
    let mismatches: Vec<String> = got
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n   got {g}"))
        .collect();
    assert!(
        mismatches.is_empty() && got.lines().count() == GOLDEN.lines().count(),
        "tier-0 digests differ ({} vs {} lines):\n{}",
        got.lines().count(),
        GOLDEN.lines().count(),
        mismatches.join("\n")
    );
}

/// Rewrites the golden file from the current estimator.
#[test]
#[ignore = "re-blesses crates/bench/golden/tier0.txt"]
fn bless() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/tier0.txt");
    std::fs::write(path, tier0_text()).expect("write the tier-0 golden");
}
