//! # ballerino-bench
//!
//! The experiment harness: the [`figures`] module and its one `figures`
//! binary regenerate every table and figure of the paper's evaluation
//! (see DESIGN.md §3 for the index) into `results/`, plus the simulator
//! throughput smoke (`perf_smoke`) and the all-kinds result golden
//! ([`golden`]).
//!
//! All binaries honor three environment variables:
//!
//! * `BALLERINO_N` — μops per workload (default 20 000; the paper runs
//!   300M-instruction SimPoints, so crank this up for smoother numbers),
//! * `BALLERINO_SEED` — workload generator seed (default 42),
//! * `BALLERINO_THREADS` — worker threads for the pool
//!   (default: the host's available parallelism).
//!
//! ## Threading model
//!
//! [`run_pool`] runs a list of independent cells on a fixed pool of
//! [`threads`] workers that *steal* work via an atomic cursor: each
//! worker repeatedly claims the next unclaimed cell index with a
//! `fetch_add` and simulates it. Traces come from the process-wide
//! [`ballerino_workloads::TraceCache`], so a workload trace is generated
//! once per `(name, n, seed)` no matter how many machine kinds consume
//! it, and workers share the same `Arc<Trace>` instead of cloning.
//! Results are written back by cell index, so the output layout — and,
//! because every simulation is single-threaded and deterministic, every
//! cycle count — is independent of the thread count.
//!
//! ## `BENCH_simthroughput.json` (written by the `perf_smoke` binary)
//!
//! ```json
//! {
//!   "bench": "simthroughput",
//!   "git_sha": "69f6e61",       // commit of the run ("unknown" outside git)
//!   "date": "2026-08-06",       // UTC date of the run
//!   "n": 20000,                 // μops per workload
//!   "seed": 42,
//!   "threads": 1,               // pool size, both sides
//!   "reps": 3,                  // passes per side
//!   "cycles_skipped": 812345,   // event-horizon fast-forwards, skip on
//!   "total_cycles": 2123456,    // simulated cycles (equal on both sides)
//!   "skip_off_wall_s": 3.917,   // median pass, idle skip off
//!   "skip_off_wall_min_s": 3.901, "skip_off_wall_max_s": 4.020,
//!   "skip_on_wall_s": 2.656,    // median pass, idle skip on
//!   "skip_on_wall_min_s": 2.611, "skip_on_wall_max_s": 2.700,
//!   "speedup": 1.4748,          // skip_off_wall_s / skip_on_wall_s
//!   "digest_mismatches": 0,     // any non-zero ⇒ the skip changed results ⇒ exit 1
//!   "cells": [                  // one per (kind, workload), kind-major
//!     {"kind": "OoO", "workload": "stream_triad",
//!      "digest": "9f0d288534bfbef9", "cycles": 9741, "committed": 20000,
//!      "cycles_skipped": 1234, "host_wall_s": 0.0123,
//!      "skip_off_host_wall_s": 0.0217,
//!      "sim_uops_per_sec": 1626016.3, "sim_cycles_per_sec": 793495.9}
//!   ]
//! }
//! ```
//!
//! Both sides simulate every cell on the same pool; each cell's full
//! result digest ([`result_digest`]) must agree exactly, so `speedup`
//! is a pure host-throughput ratio of the idle skip.

#![warn(missing_docs)]

pub mod cells;
pub mod figures;
pub mod golden;
pub mod provenance;
pub mod sweep;

pub use cells::{
    calib_kinds, enumerate_cells, fig11_kinds, fig12_kinds, fig15_kinds, fnv1a, grid_points,
    kind_from_name, sweep_kinds, width_from_str, KindInfo, SimCell, KIND_REGISTRY,
};
pub use golden::{golden_text, result_digest};
pub use provenance::Provenance;
pub use sweep::{
    anchored_survivors, pareto_indices, point_cost, promote_indices, run_sweep, simulate_points,
    tier0_passes, tier0_scores, SweepOutcome, SweepSpec,
};

use ballerino_sim::{MachineKind, SimResult, Width};
use ballerino_workloads::workload_names;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// μops per workload (env `BALLERINO_N`, default 20 000).
pub fn suite_len() -> usize {
    std::env::var("BALLERINO_N")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20_000)
}

/// Workload seed (env `BALLERINO_SEED`, default 42).
pub fn seed() -> u64 {
    std::env::var("BALLERINO_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

/// Worker threads for the matrix runner (env `BALLERINO_THREADS`,
/// default: the host's available parallelism; always at least 1).
pub fn threads() -> usize {
    std::env::var("BALLERINO_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&t| t >= 1)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

/// Runs `f` over `items` on a fixed pool of `threads` work-stealing
/// workers (the atomic-cursor scheme described in the module docs);
/// returns results in item order. Every pooled runner in this crate —
/// the kind×workload matrix, the sweep engine's two tiers, the figures'
/// deduplicated cell set — funnels through here, so they all inherit
/// `BALLERINO_THREADS` semantics from one place.
pub fn run_pool<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                let r = f(item);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });

    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("slot poisoned")
                .expect("item not processed")
        })
        .collect()
}

/// Runs several machine kinds over the suite at one width with explicit
/// workload length and seed on `threads` work-stealing workers; returns
/// `[kind][workload]`.
///
/// The result is bit-for-bit independent of `threads`: workers only
/// race for *which* cell to claim next, never over a cell's inputs or
/// outputs.
pub fn run_cells(
    kinds: &[MachineKind],
    width: Width,
    n: usize,
    s: u64,
    threads: usize,
) -> Vec<Vec<SimResult>> {
    let names = workload_names();
    let points = grid_points(kinds, &[width], &[None], &[100]);
    let cells = enumerate_cells(&points, &names, n, s);

    // SimCell::run shares the cached trace and DAG per (workload, n,
    // seed), so every machine kind consumes one generation/resolution.
    let mut out = run_pool(&cells, threads, SimCell::run);

    let mut rows = Vec::with_capacity(kinds.len());
    for _ in kinds {
        let rest = out.split_off(names.len());
        rows.push(out);
        out = rest;
    }
    rows
}

/// Appends one table row to `out`: the label, then each value
/// right-aligned in `width` columns at `prec` decimals.
pub fn print_row(
    out: &mut String,
    label: &str,
    vals: &[f64],
    width: usize,
    prec: usize,
) -> fmt::Result {
    write!(out, "{label:<20}")?;
    for v in vals {
        write!(out, "{v:>width$.prec$}")?;
    }
    writeln!(out)
}

/// Appends the table header to `out`: a blank label column, then `cols`.
///
/// Labels wider than the column are truncated to `width - 1` *characters*
/// (not bytes, so multi-byte labels never split a UTF-8 sequence); at
/// `width <= 1` nothing of the label fits and only spacing is written.
pub fn print_header(out: &mut String, cols: &[&str], width: usize) -> fmt::Result {
    write!(out, "{:<20}", "")?;
    for c in cols {
        let truncated = truncate_chars(c, width.saturating_sub(1));
        write!(out, "{truncated:>width$}")?;
    }
    writeln!(out)
}

/// The first `max_chars` characters of `s` (all of `s` if it is short
/// enough), never splitting inside a multi-byte character.
fn truncate_chars(s: &str, max_chars: usize) -> &str {
    match s.char_indices().nth(max_chars) {
        Some((byte_idx, _)) => &s[..byte_idx],
        None => s,
    }
}

/// Short column labels for the suite plus a geomean column.
pub fn workload_cols() -> Vec<&'static str> {
    let mut v = workload_names();
    v.push("GEOMEAN");
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        assert!(suite_len() >= 1000);
        let _ = seed();
        assert!(threads() >= 1);
    }

    #[test]
    fn workload_cols_end_with_geomean() {
        let cols = workload_cols();
        assert_eq!(*cols.last().unwrap(), "GEOMEAN");
        assert_eq!(cols.len(), 16);
    }

    #[test]
    fn truncate_chars_is_char_safe() {
        assert_eq!(truncate_chars("hello", 3), "hel");
        assert_eq!(truncate_chars("hello", 10), "hello");
        assert_eq!(truncate_chars("héllo", 2), "hé");
        assert_eq!(truncate_chars("μop-μop", 4), "μop-");
        assert_eq!(truncate_chars("anything", 0), "");
    }

    #[test]
    fn print_header_handles_degenerate_widths() {
        // Must not panic for tiny widths or non-ASCII labels (the seed
        // version byte-sliced at `width - 1`, panicking on both).
        let mut out = String::new();
        print_header(&mut out, &["alpha", "β-workload", "x"], 1).unwrap();
        print_header(&mut out, &["alpha", "β-workload"], 2).unwrap();
        print_header(&mut out, &["日本語ラベル"], 4).unwrap();
    }
}
