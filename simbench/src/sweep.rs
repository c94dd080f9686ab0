//! The `tiered_sweep` workload: `SweepSpec::full()` at the run's seed,
//! tiered only — tier-0 triage of every point, simulation of the
//! estimated frontier, then sim-anchored promotion one point at a time
//! (the batch size `run_sweep` uses with one worker). The benchmark
//! composes the pass from the sweep engine's public pieces so it can
//! time tier 0 and every promoted cell from outside; the traced run
//! checks once that `run_sweep` itself reaches the same frontier.

use crate::cells::{run_caught, SimTotals};
use crate::clock::process_cpu_ns;
use crate::common::{
    self, best_of, best_per_item, median_of, percentile, Checks, Metrics, TraceSet,
};
use crate::digest::Golden;
use crate::spans::{traced, Tracer};
use crate::{Analytic, Ctx, LayerInputs, Run, ServeLayer};
use ballerino_bench::{
    anchored_survivors, pareto_indices, point_cost, run_sweep, tier0_scores, SimCell, SweepSpec,
};
use ballerino_sim::DesignPoint;

/// One tiered pass.
pub struct SweepPass {
    /// Tier-0 triage, CPU s.
    pub tier0_s: f64,
    /// Promoted-point simulation, CPU s.
    pub sim_s: f64,
    /// Per-cell CPU ms of every simulated cell.
    pub cell_ms: Vec<f64>,
    /// Tier-0 aggregate cycle estimate per point.
    pub est: Vec<u64>,
    /// Simulated aggregate cycles per promoted point.
    pub sim: Vec<Option<u64>>,
    /// Frontier of the simulated points (indices).
    pub frontier: Vec<usize>,
    /// Totals over every simulated cell.
    pub totals: SimTotals,
    /// Cells that panicked or lost μops.
    pub bad_cells: Vec<String>,
}

fn pass(spec: &SweepSpec, tracer: Option<&Tracer>) -> SweepPass {
    let points = spec.points();
    let costs: Vec<u64> = points.iter().map(point_cost).collect();
    let margin = spec.margin_pct();

    let c0 = process_cpu_ns();
    let est = traced(tracer, "analytic.tier0_scores", None, |_| {
        tier0_scores(spec, &points)
    });
    let c1 = process_cpu_ns();
    let mut p = SweepPass {
        tier0_s: (c1 - c0) as f64 / 1e9,
        sim_s: 0.0,
        cell_ms: Vec::new(),
        est,
        sim: vec![None; points.len()],
        frontier: Vec::new(),
        totals: SimTotals::default(),
        bad_cells: Vec::new(),
    };
    traced(tracer, "bench.sweep_sim", None, |parent| {
        for i in pareto_indices(&costs, &p.est) {
            p.sim[i] = Some(simulate(spec, &points[i], tracer, parent, &mut p));
        }
        loop {
            let survivors = anchored_survivors(&costs, &p.est, &p.sim, margin);
            let Some(&i) = survivors.iter().min_by_key(|&&i| (costs[i], p.est[i], i)) else {
                break;
            };
            p.sim[i] = Some(simulate(spec, &points[i], tracer, parent, &mut p));
        }
    });
    p.sim_s = (process_cpu_ns() - c1) as f64 / 1e9;

    let promoted: Vec<usize> = (0..points.len()).filter(|&i| p.sim[i].is_some()).collect();
    let pc: Vec<u64> = promoted.iter().map(|&i| costs[i]).collect();
    let ps: Vec<u64> = promoted
        .iter()
        .map(|&i| p.sim[i].expect("promoted"))
        .collect();
    p.frontier = pareto_indices(&pc, &ps)
        .into_iter()
        .map(|k| promoted[k])
        .collect();
    p
}

/// Simulates one point over the spec's workloads; aggregate cycles.
fn simulate(
    spec: &SweepSpec,
    point: &DesignPoint,
    tracer: Option<&Tracer>,
    parent: Option<u32>,
    p: &mut SweepPass,
) -> u64 {
    let mut cycles = 0u64;
    for &workload in &spec.workloads {
        let cell = SimCell {
            point: *point,
            workload,
            n: spec.n,
            seed: spec.seed,
        };
        let run = run_caught(&cell, tracer, parent);
        p.cell_ms.push(run.ms);
        match &run.result {
            Some(r) if r.committed == spec.n as u64 => {
                cycles += r.cycles;
                p.totals.add(r);
            }
            _ => p.bad_cells.push(cell.key()),
        }
    }
    cycles
}

/// The frontier as golden entries: point label → `cost:cycles`.
fn frontier_golden(points: &[DesignPoint], p: &SweepPass) -> Golden {
    p.frontier
        .iter()
        .map(|&i| {
            let cycles = p.sim[i].expect("frontier points are simulated");
            (
                points[i].label(),
                format!("{}:{cycles}", point_cost(&points[i])),
            )
        })
        .collect()
}

/// Runs `tiered_sweep`.
pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let spec = SweepSpec {
        seed: ctx.seed,
        ..SweepSpec::full()
    };
    let points = spec.points();
    let set = TraceSet {
        keys: spec.workloads.iter().map(|&w| (w, spec.n)).collect(),
        seed: spec.seed,
        features: true,
    };
    set.fill_global();

    let mut checks = Checks::default();
    let (untraced, traced_passes) = crate::phases(ctx, |t| pass(&spec, t));
    let first = &untraced[0].out;
    for p in untraced.iter().chain(traced_passes.iter().flatten()) {
        checks.attempted += p.out.cell_ms.len() as u64;
        for key in &p.out.bad_cells {
            checks.failed += 1;
            checks.notes.push(format!("FAILED: sweep cell {key}"));
        }
        checks.check(
            p.out.frontier == first.frontier && p.out.sim == first.sim,
            || "sweep results differ between passes".into(),
        );
    }
    let got = frontier_golden(&points, first);
    crate::check_golden(ctx, &got, &mut checks)?;

    let sim_s = best_of(&untraced, |p| p.out.sim_s);
    let promoted = first.sim.iter().filter(|s| s.is_some()).count();
    crate::note_passes(&mut checks, &untraced);
    checks.info.push((
        "samples".into(),
        format!(
            "{} passes; {} points triaged, {promoted} promoted, {} simulated cells per pass, \
             frontier of {}; each cell's time is its best pass, cpu_s sums the best pass of \
             each part (tier 0, cells, the rest)",
            untraced.len(),
            first.est.len(),
            first.cell_ms.len(),
            first.frontier.len()
        ),
    ));

    let mut m = Metrics::default();
    match (&traced_passes, &ctx.tracer) {
        (Some(passes), Some(t)) => {
            // The library's own sweep loop must reach the composed frontier.
            let out = t.span("bench.run_sweep", None, |_| run_sweep(&spec));
            let mut lib: Vec<String> = out
                .simulated_frontier()
                .iter()
                .map(|&i| out.points[i].label())
                .collect();
            lib.sort();
            checks.check(lib.iter().eq(got.keys()), || {
                "run_sweep's frontier differs from the composed pass".into()
            });

            let traced_totals = passes.iter().fold(SimTotals::default(), |mut acc, p| {
                acc.merge(&p.out.totals);
                acc
            });
            let err: Vec<f64> = first
                .est
                .iter()
                .zip(&first.sim)
                .filter_map(|(&e, s)| s.map(|s| (e as f64 - s as f64).abs() / s.max(1) as f64))
                .collect();
            crate::sim_layers(
                &mut m,
                crate::span_cpu_ns(t, "sim.run"),
                &traced_totals,
                &first.totals,
            );
            crate::layers_common(
                ctx,
                &mut m,
                &mut checks,
                &set,
                LayerInputs {
                    analytic: Analytic::Measured {
                        ns_per_point: best_of(passes, |p| p.out.tier0_s) * 1e9
                            / points.len() as f64,
                        promoted: promoted as f64,
                        mean_err_pct: 100.0 * err.iter().sum::<f64>() / err.len().max(1) as f64,
                        tier0_s: best_of(&untraced, |p| p.out.tier0_s),
                    },
                    serve: ServeLayer::Probe(crate::serve_probe_cells(
                        &points,
                        &spec.workloads,
                        spec.seed,
                    )),
                    sim_s,
                    wall_s: median_of(&untraced, |p| p.wall),
                    overhead_pct: crate::overhead_pct(&untraced, passes),
                },
            )?;
        }
        _ => {
            // Every pass simulates the same cells in the same order (the
            // determinism check above), so cell i of each pass is one cell.
            let cell_ms = best_per_item(
                &untraced
                    .iter()
                    .map(|p| &p.out.cell_ms[..])
                    .collect::<Vec<_>>(),
            );
            let cells_cpu = cell_ms.iter().sum::<f64>() / 1e3;
            // A pass is tier 0, the cells, and the engine's own work
            // around them; each part's best pass estimates its cost.
            let rest = best_of(&untraced, |p| {
                p.cpu - p.out.tier0_s - p.out.cell_ms.iter().sum::<f64>() / 1e3
            });
            let cpu = best_of(&untraced, |p| p.out.tier0_s) + cells_cpu + rest;
            m.push("cpu_s", cpu, "s");
            m.push("setup_s", common::setup_cpu_s(&set, || {}), "s");
            m.push("peak_rss_mb", untraced[0].peak_rss_mb, "MB");
            m.push(
                "sim_muops_per_cpu_s",
                first.totals.committed as f64 / cells_cpu / 1e6,
                "Muops/s",
            );
            m.push("cells_per_cpu_s", cell_ms.len() as f64 / cells_cpu, "1/s");
            m.push("cell_cpu_ms_p50", percentile(&cell_ms, 0.5), "ms");
            m.push("cell_cpu_ms_p90", percentile(&cell_ms, 0.9), "ms");
        }
    }
    Ok(Run { metrics: m, checks })
}
