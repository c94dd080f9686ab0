//! Simulator-throughput smoke benchmark: the Fig. 11 matrix (9 kinds ×
//! the suite at 8-wide, 135 cells) with the event-horizon idle skip off
//! and on, emitting `BENCH_simthroughput.json`.
//!
//! * **Skip off** — every cell on the plain per-cycle path
//!   (`CoreConfig::skip_idle = false`).
//! * **Skip on** — every cell as the harness runs it ([`SimCell::run`]).
//!
//! Both sides run on the same work-stealing pool in the same process
//! and must give byte-identical results: the binary compares every
//! cell's full result digest ([`result_digest`]), so the wall-clock
//! ratio is a pure throughput number for the skip engine. See the crate
//! docs for the JSON schema.
//!
//! Usage: `perf_smoke` (honors `BALLERINO_N` / `BALLERINO_SEED` /
//! `BALLERINO_THREADS`; `BALLERINO_REPS` overrides the repetition
//! count, default 3 — the JSON reports the median wall per side plus
//! the min/max spread). Exits non-zero on any digest mismatch.

use ballerino_bench::{
    enumerate_cells, fig11_kinds, grid_points, result_digest, run_pool, seed, suite_len, threads,
    Provenance, SimCell,
};
use ballerino_sim::{build_scheduler_point, Core, SimResult, Width};
use ballerino_workloads::{cached_workload, workload_names};
use std::fmt::Write as _;
use std::time::Instant;

/// Runs one cell exactly like [`SimCell::run`], with the idle skip off.
fn run_skip_off(cell: &SimCell) -> SimResult {
    let trace = cached_workload(cell.workload, cell.n, cell.seed);
    let (mut cfg, sched, sizes) = build_scheduler_point(&cell.point);
    cfg.skip_idle = false;
    Core::new(cfg, sched, sizes).run(&trace)
}

/// Runs every cell `reps` times; returns the last pass and the sorted
/// per-pass walls.
fn timed_passes(
    cells: &[SimCell],
    reps: usize,
    run: impl Fn(&SimCell) -> SimResult + Sync,
) -> (Vec<SimResult>, Vec<f64>) {
    let mut walls = Vec::with_capacity(reps);
    let mut out = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        out = run_pool(cells, threads(), &run);
        walls.push(t0.elapsed().as_secs_f64());
    }
    walls.sort_by(f64::total_cmp);
    (out, walls)
}

fn main() {
    let kinds = fig11_kinds();
    let points = grid_points(&kinds, &[Width::Eight], &[None], &[100]);
    let cells = enumerate_cells(&points, &workload_names(), suite_len(), seed());
    let reps: usize = std::env::var("BALLERINO_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(3);
    println!(
        "perf_smoke: {} kinds x {} workloads, N={}, seed={}, threads={}, reps={reps}",
        kinds.len(),
        cells.len() / kinds.len(),
        suite_len(),
        seed(),
        threads(),
    );

    // Warm the trace cache so neither side pays for generation.
    for wl in workload_names() {
        let _ = cached_workload(wl, suite_len(), seed());
    }

    println!("running skip off (plain per-cycle stepping)...");
    let (off, off_walls) = timed_passes(&cells, reps, run_skip_off);
    println!("running skip on (event-horizon idle skip)...");
    let (on, on_walls) = timed_passes(&cells, reps, SimCell::run);

    let digests: Vec<u64> = on.iter().map(result_digest).collect();
    let mut mismatches = 0usize;
    for ((cell, r), &d) in cells.iter().zip(&off).zip(&digests) {
        if result_digest(r) != d {
            eprintln!("MISMATCH {}: skip off and skip on differ", cell.key());
            mismatches += 1;
        }
    }

    let (off_wall, on_wall) = (off_walls[reps / 2], on_walls[reps / 2]);
    let speedup = off_wall / on_wall;
    let total_uops: u64 = on.iter().map(|r| r.committed).sum();
    let total_cycles: u64 = on.iter().map(|r| r.cycles).sum();
    println!(
        "skip off {off_wall:.3}s [{:.3}..{:.3}], skip on {on_wall:.3}s [{:.3}..{:.3}] \
         -> {speedup:.2}x ({:.2} M uops/s, {:.2} M cycles/s aggregate; medians of {reps})",
        off_walls[0],
        off_walls[reps - 1],
        on_walls[0],
        on_walls[reps - 1],
        total_uops as f64 / on_wall / 1e6,
        total_cycles as f64 / on_wall / 1e6
    );

    // Per-workload event-horizon skip ratio (skipped / simulated cycles,
    // aggregated over kinds).
    println!("skip ratio by workload:");
    for wl in workload_names() {
        let (skipped, cycles) = cells
            .iter()
            .zip(&on)
            .filter(|(c, _)| c.workload == wl)
            .fold((0, 0), |(s, t), (_, r)| {
                (s + r.cycles_skipped, t + r.cycles)
            });
        println!(
            "  {wl:<18} {:.1}%",
            100.0 * skipped as f64 / u64::max(cycles, 1) as f64
        );
    }

    let json = render_json(
        &cells, &off, &on, &digests, &off_walls, &on_walls, speedup, mismatches,
    );
    let path = "BENCH_simthroughput.json";
    Provenance::capture().warn_if_dirty(path);
    std::fs::write(path, json).expect("write BENCH_simthroughput.json");
    println!("wrote {path}");

    if mismatches > 0 {
        eprintln!("{mismatches} digest mismatches — the idle skip changed results!");
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    cells: &[SimCell],
    off: &[SimResult],
    on: &[SimResult],
    digests: &[u64],
    off_walls: &[f64],
    on_walls: &[f64],
    speedup: f64,
    mismatches: usize,
) -> String {
    // Both slices arrive sorted.
    let reps = off_walls.len();
    let total_skipped: u64 = on.iter().map(|r| r.cycles_skipped).sum();
    let total_cycles: u64 = on.iter().map(|r| r.cycles).sum();
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"simthroughput\",");
    s.push_str(&Provenance::capture().json_fields());
    let _ = writeln!(s, "  \"n\": {},", suite_len());
    let _ = writeln!(s, "  \"seed\": {},", seed());
    let _ = writeln!(s, "  \"threads\": {},", threads());
    let _ = writeln!(s, "  \"reps\": {reps},");
    let _ = writeln!(s, "  \"cycles_skipped\": {total_skipped},");
    let _ = writeln!(s, "  \"total_cycles\": {total_cycles},");
    for (side, walls) in [("skip_off", off_walls), ("skip_on", on_walls)] {
        let _ = writeln!(s, "  \"{side}_wall_s\": {:.6},", walls[reps / 2]);
        let _ = writeln!(s, "  \"{side}_wall_min_s\": {:.6},", walls[0]);
        let _ = writeln!(s, "  \"{side}_wall_max_s\": {:.6},", walls[reps - 1]);
    }
    let _ = writeln!(s, "  \"speedup\": {speedup:.4},");
    let _ = writeln!(s, "  \"digest_mismatches\": {mismatches},");
    s.push_str("  \"cells\": [\n");
    for (i, ((cell, r), b)) in cells.iter().zip(on).zip(off).enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let _ = write!(
            s,
            "    {{\"kind\": \"{}\", \"workload\": \"{}\", \"digest\": \"{:016x}\", \
             \"cycles\": {}, \"committed\": {}, \"cycles_skipped\": {}, \
             \"host_wall_s\": {:.6}, \"skip_off_host_wall_s\": {:.6}, \
             \"sim_uops_per_sec\": {:.1}, \"sim_cycles_per_sec\": {:.1}}}",
            cell.point.kind.label(),
            cell.workload,
            digests[i],
            r.cycles,
            r.committed,
            r.cycles_skipped,
            r.host_wall_s,
            b.host_wall_s,
            r.sim_uops_per_sec(),
            r.sim_cycles_per_sec()
        );
    }
    s.push_str("\n  ]\n}\n");
    s
}
