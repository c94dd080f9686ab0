//! Design-space exploration with the tiered-fidelity sweep engine.
//!
//! Enumerates a small grid over scheduler kinds, machine widths and
//! IQ-entry budgets, triages every point with the tier-0 analytic model
//! (one lane-batched dataflow pass per schedule shape), and promotes only the points that could be on
//! the cost/performance Pareto frontier to cycle-accurate simulation —
//! the workflow an architect would use to cut a thousand-point space
//! down to the handful worth simulating (scaled down here so the example
//! finishes in seconds; `sweep_bench` runs the full 2556-point grid).
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use ballerino::bench::{run_sweep, SweepSpec};
use ballerino::sim::{MachineKind, Width};

fn main() {
    let spec = SweepSpec {
        kinds: vec![
            MachineKind::InOrder,
            MachineKind::Ces,
            MachineKind::Ballerino,
            MachineKind::OutOfOrder,
        ],
        widths: vec![Width::Two, Width::Eight],
        iq_budgets: vec![None, Some(32), Some(128)],
        dram_scales: vec![100],
        workloads: vec!["gemm_blocked", "pointer_chase", "branchy_sort"],
        n: 8_000,
        seed: 42,
    };
    let points = spec.points();
    println!(
        "tiered sweep: {} points, {} workloads, margin ±{}%\n",
        points.len(),
        spec.workloads.len(),
        spec.margin_pct()
    );

    let outcome = run_sweep(&spec);
    println!(
        "tier-0 triage {:.0} ms -> promoted {}/{} points -> simulation {:.2} s\n",
        outcome.tier0_wall_s * 1e3,
        outcome.promoted.len(),
        outcome.points.len(),
        outcome.sim_wall_s
    );

    println!("simulated Pareto frontier (cost-ascending):");
    println!(
        "{:<26} {:>8} {:>12} {:>12} {:>8}",
        "design point", "cost", "sim cycles", "tier0 est", "err"
    );
    for i in outcome.simulated_frontier() {
        let sim = outcome.sim_cycles[i].expect("frontier points are simulated");
        let est = outcome.est_cycles[i];
        println!(
            "{:<26} {:>8} {:>12} {:>12} {:>7.1}%",
            outcome.points[i].label(),
            outcome.costs[i],
            sim,
            est,
            100.0 * (est as f64 - sim as f64) / sim as f64
        );
    }
    println!(
        "\nEvery point the tier-0 model could not prove dominated was \
         simulated, so the frontier above is exact — the analytic tier \
         only decided *where to spend* cycle-accurate time."
    );
}
