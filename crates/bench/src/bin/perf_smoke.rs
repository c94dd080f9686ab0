//! Simulator-throughput smoke benchmark: A/B of the pre-overhaul harness
//! against the current one on the Fig. 11 matrix, emitting
//! `BENCH_simthroughput.json`.
//!
//! * **Baseline** — the seed harness, end to end: the legacy per-kind
//!   `thread::scope` runner (one short-lived thread per workload, traces
//!   regenerated once per kind) driving the frozen seed-layout pipeline
//!   ([`run_machine_reference`]: `HashMap` inflight/taint/waiters core,
//!   rescan-loop OoO select, per-cycle-allocating Ballerino issue and
//!   port arbitration).
//! * **New** — the work-stealing [`run_matrix`] pool (`BALLERINO_THREADS`
//!   workers, shared `TraceCache`) driving the slab-based
//!   [`ballerino_sim::run_machine`] pipeline.
//!
//! Both sides must produce byte-identical per-cell cycle counts — the
//! binary asserts this — so the wall-clock ratio is a pure throughput
//! number. See the crate docs for the JSON schema.
//!
//! Usage: `perf_smoke` (honors `BALLERINO_N` / `BALLERINO_SEED` /
//! `BALLERINO_THREADS`, plus `BALLERINO_MEM_NAIVE` to pin both sides to
//! the seed-exact memory lookup path for fast-path A/Bs;
//! `BALLERINO_REPS` overrides the repetition count, default 3 — the JSON
//! reports the median wall per side plus the min/max spread).
//! Exits non-zero on any cycle mismatch.

use ballerino_bench::{run_matrix, run_matrix_legacy, seed, suite_len, threads, Provenance};
use ballerino_sim::{run_machine_reference, MachineKind, SimResult, Width};
use ballerino_workloads::workload_names;
use std::fmt::Write as _;
use std::time::Instant;

/// Median of a small wall-clock sample (sorts in place).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite walls"));
    xs[xs.len() / 2]
}

fn main() {
    let kinds = MachineKind::FIG11;
    let width = Width::Eight;
    let names = workload_names();
    let mem_naive = ballerino_isa::env_flag("BALLERINO_MEM_NAIVE");
    let reps: usize = std::env::var("BALLERINO_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&r| r >= 1)
        .unwrap_or(3);
    println!(
        "perf_smoke: {} kinds x {} workloads, N={}, seed={}, threads={}, mem={}, reps={reps}",
        kinds.len(),
        names.len(),
        suite_len(),
        seed(),
        threads(),
        if mem_naive { "naive" } else { "fast" },
    );

    println!("running baseline (legacy runner x reference pipeline)...");
    let mut base_walls = Vec::with_capacity(reps);
    let mut base = Vec::new();
    for _ in 0..reps {
        let t0 = Instant::now();
        base = run_matrix_legacy(&kinds, width, run_machine_reference);
        base_walls.push(t0.elapsed().as_secs_f64());
    }

    println!("running new (work-stealing runner x slab pipeline)...");
    let mut new_walls = Vec::with_capacity(reps);
    let mut new = Vec::new();
    for _ in 0..reps {
        let t1 = Instant::now();
        new = run_matrix(&kinds, width);
        new_walls.push(t1.elapsed().as_secs_f64());
    }

    let base_wall = median(&mut base_walls);
    let new_wall = median(&mut new_walls);

    let mut mismatches = 0usize;
    for (ki, &kind) in kinds.iter().enumerate() {
        for (wi, wl) in names.iter().enumerate() {
            let (b, n) = (&base[ki][wi], &new[ki][wi]);
            if b.cycles != n.cycles || b.committed != n.committed {
                eprintln!(
                    "MISMATCH {} / {}: baseline {} cycles / {} committed, new {} / {}",
                    kind.label(),
                    wl,
                    b.cycles,
                    b.committed,
                    n.cycles,
                    n.committed
                );
                mismatches += 1;
            }
        }
    }

    let speedup = base_wall / new_wall;
    let total_uops: u64 = new.iter().flatten().map(|r| r.committed).sum();
    let total_cycles: u64 = new.iter().flatten().map(|r| r.cycles).sum();
    println!(
        "baseline {base_wall:.3}s [{:.3}..{:.3}], new {new_wall:.3}s [{:.3}..{:.3}] \
         -> {speedup:.2}x ({:.2} M uops/s, {:.2} M cycles/s aggregate; medians of {reps})",
        base_walls[0],
        base_walls[reps - 1],
        new_walls[0],
        new_walls[reps - 1],
        total_uops as f64 / new_wall / 1e6,
        total_cycles as f64 / new_wall / 1e6
    );

    // Per-workload event-horizon skip ratio (skipped / simulated cycles,
    // aggregated over kinds on the new side).
    println!("skip ratio by workload:");
    for (wi, wl) in names.iter().enumerate() {
        let skipped: u64 = new.iter().map(|row| row[wi].cycles_skipped).sum();
        let cycles: u64 = new.iter().map(|row| row[wi].cycles).sum();
        println!(
            "  {wl:<18} {:.1}%",
            100.0 * skipped as f64 / cycles.max(1) as f64
        );
    }

    let json = render_json(
        &kinds,
        &names,
        &base,
        &new,
        &base_walls,
        &new_walls,
        speedup,
        mismatches,
    );
    let path = "BENCH_simthroughput.json";
    Provenance::capture().warn_if_dirty(path);
    std::fs::write(path, json).expect("write BENCH_simthroughput.json");
    println!("wrote {path}");

    if mismatches > 0 {
        eprintln!("{mismatches} cycle-count mismatches — behavioral drift!");
        std::process::exit(1);
    }
}

#[allow(clippy::too_many_arguments)]
fn render_json(
    kinds: &[MachineKind],
    names: &[&str],
    base: &[Vec<SimResult>],
    new: &[Vec<SimResult>],
    base_walls: &[f64],
    new_walls: &[f64],
    speedup: f64,
    mismatches: usize,
) -> String {
    // Both slices arrive sorted (the median computation sorts in place).
    let (base_wall, new_wall) = (
        base_walls[base_walls.len() / 2],
        new_walls[new_walls.len() / 2],
    );
    let total_skipped: u64 = new.iter().flatten().map(|r| r.cycles_skipped).sum();
    let total_cycles: u64 = new.iter().flatten().map(|r| r.cycles).sum();
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"simthroughput\",");
    s.push_str(&Provenance::capture().json_fields());
    let _ = writeln!(s, "  \"n\": {},", suite_len());
    let _ = writeln!(s, "  \"seed\": {},", seed());
    let _ = writeln!(s, "  \"threads\": {},", threads());
    let _ = writeln!(
        s,
        "  \"mem_naive\": {},",
        ballerino_isa::env_flag("BALLERINO_MEM_NAIVE")
    );
    let _ = writeln!(s, "  \"reps\": {},", base_walls.len());
    let _ = writeln!(s, "  \"cycles_skipped\": {total_skipped},");
    let _ = writeln!(s, "  \"total_cycles\": {total_cycles},");
    let _ = writeln!(s, "  \"baseline_wall_s\": {base_wall:.6},");
    let _ = writeln!(s, "  \"baseline_wall_min_s\": {:.6},", base_walls[0]);
    let _ = writeln!(
        s,
        "  \"baseline_wall_max_s\": {:.6},",
        base_walls[base_walls.len() - 1]
    );
    let _ = writeln!(s, "  \"new_wall_s\": {new_wall:.6},");
    let _ = writeln!(s, "  \"new_wall_min_s\": {:.6},", new_walls[0]);
    let _ = writeln!(
        s,
        "  \"new_wall_max_s\": {:.6},",
        new_walls[new_walls.len() - 1]
    );
    let _ = writeln!(s, "  \"speedup\": {speedup:.4},");
    let _ = writeln!(s, "  \"cycle_mismatches\": {mismatches},");
    s.push_str("  \"cells\": [\n");
    let mut first = true;
    for (ki, kind) in kinds.iter().enumerate() {
        for (wi, wl) in names.iter().enumerate() {
            if !first {
                s.push_str(",\n");
            }
            first = false;
            let r = &new[ki][wi];
            let b = &base[ki][wi];
            let _ = write!(
                s,
                "    {{\"kind\": \"{}\", \"workload\": \"{}\", \"cycles\": {}, \
                 \"committed\": {}, \"cycles_skipped\": {}, \"host_wall_s\": {:.6}, \
                 \"baseline_host_wall_s\": {:.6}, \"sim_uops_per_sec\": {:.1}, \
                 \"sim_cycles_per_sec\": {:.1}}}",
                kind.label(),
                wl,
                r.cycles,
                r.committed,
                r.cycles_skipped,
                r.host_wall_s,
                b.host_wall_s,
                r.sim_uops_per_sec(),
                r.sim_cycles_per_sec()
            );
        }
    }
    s.push_str("\n  ]\n}\n");
    s
}
