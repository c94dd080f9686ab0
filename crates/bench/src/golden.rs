//! The all-kinds result golden: one digest of every simulated statistic
//! per cell, over every registry kind at every preset width on the
//! whole suite.
//!
//! `crates/bench/golden/all_kinds.txt` holds one `<SimCell::key>
//! <digest>` line per cell of [`golden_text`], after a `#` header naming
//! the trace length, seed and cell count. The `golden_all_kinds` test
//! re-simulates every cell and lists each key whose digest moved. The
//! `cycles_dump` binary is the only writer:
//!
//! ```sh
//! cargo run --release -p ballerino-bench --bin cycles_dump > crates/bench/golden/all_kinds.txt
//! ```
//!
//! Re-bless only for a change that is meant to alter simulated
//! behaviour, and say so in the change notes.

use crate::cells::{enumerate_cells, fnv1a, grid_points, SimCell, KIND_REGISTRY};
use crate::run_pool;
use ballerino_sim::{MachineKind, SimResult, Width};
use ballerino_workloads::workload_names;
use std::fmt::Write as _;

/// μops per golden cell.
const GOLDEN_N: usize = 5_000;

/// Workload seed of every golden cell.
const GOLDEN_SEED: u64 = 42;

/// FNV-1a over [`SimResult::stat_words`], little-endian: every
/// simulated statistic, no host timing.
pub fn result_digest(r: &SimResult) -> u64 {
    let bytes: Vec<u8> = r
        .stat_words()
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// Simulates every golden cell — every [`KIND_REGISTRY`] kind × widths
/// 2/4/8 × the suite, preset IQ, DRAM at 100%, 5 000 μops, seed 42 — on
/// `threads` workers and renders the golden file:
/// the header, then one `<SimCell::key> <digest>` line per cell. The
/// text is independent of `threads`.
pub fn golden_text(threads: usize) -> String {
    let kinds: Vec<MachineKind> = KIND_REGISTRY.iter().map(|i| i.kind).collect();
    let points = grid_points(
        &kinds,
        &[Width::Two, Width::Four, Width::Eight],
        &[None],
        &[100],
    );
    let cells = enumerate_cells(&points, &workload_names(), GOLDEN_N, GOLDEN_SEED);
    let results = run_pool(&cells, threads, SimCell::run);
    let mut s = format!(
        "# all_kinds golden: n={GOLDEN_N} seed={GOLDEN_SEED} cells={}\n",
        cells.len()
    );
    for (cell, r) in cells.iter().zip(&results) {
        let _ = writeln!(s, "{} {:016x}", cell.key(), result_digest(r));
    }
    s
}
