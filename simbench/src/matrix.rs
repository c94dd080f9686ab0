//! The two matrix workloads: the 9 Fig. 11 kinds × 5 workloads × widths
//! {2, 4, 8} = 135 cells, each simulated once per pass on this thread.
//!
//! * `dense_matrix` — compute-bound workloads where per-cycle stepping
//!   (core step, scheduler wakeup/select) does almost all the work.
//! * `memory_matrix` — memory-bound workloads where the memory hierarchy
//!   and the idle-cycle skip engine dominate.

use crate::cells::{run_caught, SimTotals};
use crate::common::{
    self, best_of, best_per_item, median_of, percentile, Checks, Metrics, TraceSet,
};
use crate::digest::{self, Golden};
use crate::spans::{traced, Tracer};
use crate::{Analytic, Ctx, LayerInputs, Run, ServeLayer};
use ballerino_bench::{enumerate_cells, fig11_kinds, grid_points, SimCell};
use ballerino_sim::{DesignPoint, Width};

/// Compute-bound workloads of `dense_matrix`.
pub const DENSE: [&str; 5] = [
    "gemm_blocked",
    "int_crunch",
    "mixed_media",
    "compress_lz",
    "fft_butterfly",
];

/// Memory-bound workloads of `memory_matrix`.
pub const MEMORY: [&str; 5] = [
    "pointer_chase",
    "graph_bfs",
    "hash_join",
    "sparse_spmv",
    "stream_triad",
];

/// μops per matrix cell trace.
pub const MATRIX_N: usize = 20_000;

/// The matrix's design points: Fig. 11 kinds × widths, presets only.
pub fn points() -> Vec<DesignPoint> {
    grid_points(
        &fig11_kinds(),
        &[Width::Two, Width::Four, Width::Eight],
        &[None],
        &[100],
    )
}

/// One pass: every cell's host CPU time, digest and cycles.
pub struct MatrixPass {
    /// Per-cell CPU ms, cell order.
    pub ms: Vec<f64>,
    /// Per-cell digest (`None` if the cell panicked or lost μops).
    pub digests: Vec<Option<u64>>,
    /// Per-cell simulated cycles (0 if the cell failed).
    pub cycles: Vec<u64>,
    /// Totals over the pass.
    pub totals: SimTotals,
}

fn pass(cells: &[SimCell], tracer: Option<&Tracer>) -> MatrixPass {
    traced(tracer, "bench.matrix_pass", None, |parent| {
        let mut p = MatrixPass {
            ms: Vec::with_capacity(cells.len()),
            digests: Vec::with_capacity(cells.len()),
            cycles: Vec::with_capacity(cells.len()),
            totals: SimTotals::default(),
        };
        for c in cells {
            let run = run_caught(c, tracer, parent);
            p.ms.push(run.ms);
            match &run.result {
                Some(r) if r.committed == c.n as u64 => {
                    p.digests.push(Some(digest::digest(r)));
                    p.cycles.push(r.cycles);
                    p.totals.add(r);
                }
                _ => {
                    p.digests.push(None);
                    p.cycles.push(0);
                }
            }
        }
        p
    })
}

/// Runs `dense_matrix` or `memory_matrix`.
pub fn run(ctx: &Ctx, names: &[&'static str]) -> Result<Run, String> {
    let cells = enumerate_cells(&points(), names, MATRIX_N, ctx.seed);
    let set = TraceSet {
        keys: names.iter().map(|&w| (w, MATRIX_N)).collect(),
        seed: ctx.seed,
        features: false,
    };
    set.fill_global();

    let mut checks = Checks::default();
    let (untraced, traced_passes) = crate::phases(ctx, |t| pass(&cells, t));
    let reference = &untraced[0].out.digests;
    for p in untraced.iter().chain(traced_passes.iter().flatten()) {
        for (i, c) in cells.iter().enumerate() {
            checks.check(p.out.digests[i].is_some(), || {
                format!("cell {} panicked or lost μops", c.key())
            });
            // Determinism: every pass, traced or not, gives the same digest.
            checks.check(p.out.digests[i] == reference[i], || {
                format!("cell {} digest differs between passes", c.key())
            });
        }
    }
    let got: Golden = cells
        .iter()
        .zip(reference)
        .map(|(c, d)| (c.key(), d.map_or("failed".into(), |d| format!("{d:016x}"))))
        .collect();
    crate::check_golden(ctx, &got, &mut checks)?;

    let per_cell_ms = best_per_item(&untraced.iter().map(|p| &p.out.ms[..]).collect::<Vec<_>>());
    let cells_cpu = per_cell_ms.iter().sum::<f64>() / 1e3;
    // A pass is its cells plus the loop around them; each part's best
    // pass estimates its cost.
    let cpu = cells_cpu + best_of(&untraced, |p| p.cpu - p.out.ms.iter().sum::<f64>() / 1e3);
    let totals = untraced[0].out.totals;
    crate::note_passes(&mut checks, &untraced);
    checks.info.push((
        "samples".into(),
        format!(
            "{} passes of {} cells; each cell's time is its best pass, cpu_s adds the best \
             pass of the loop around them; cell CPU percentiles over {} cells",
            untraced.len(),
            cells.len(),
            per_cell_ms.len()
        ),
    ));

    let mut m = Metrics::default();
    match (&traced_passes, &ctx.tracer) {
        (Some(passes), Some(t)) => {
            let traced_totals = passes.iter().fold(SimTotals::default(), |mut acc, p| {
                acc.merge(&p.out.totals);
                acc
            });
            crate::sim_layers(
                &mut m,
                crate::span_cpu_ns(t, "sim.run"),
                &traced_totals,
                &totals,
            );
            crate::layers_common(
                ctx,
                &mut m,
                &mut checks,
                &set,
                LayerInputs {
                    analytic: Analytic::Probe {
                        points: points(),
                        workloads: names.to_vec(),
                        n: MATRIX_N,
                        sim_per_point: untraced[0]
                            .out
                            .cycles
                            .chunks(names.len())
                            .map(|c| c.iter().sum())
                            .collect(),
                    },
                    serve: ServeLayer::Probe(crate::serve_probe_cells(&points(), names, ctx.seed)),
                    sim_s: cpu,
                    wall_s: median_of(&untraced, |p| p.wall),
                    overhead_pct: crate::overhead_pct(&untraced, passes),
                },
            )?;
        }
        _ => {
            m.push("cpu_s", cpu, "s");
            m.push("setup_s", common::setup_cpu_s(&set, || {}), "s");
            m.push("peak_rss_mb", untraced[0].peak_rss_mb, "MB");
            m.push(
                "sim_muops_per_cpu_s",
                totals.committed as f64 / cells_cpu / 1e6,
                "Muops/s",
            );
            m.push("cells_per_cpu_s", cells.len() as f64 / cells_cpu, "1/s");
            m.push("cell_cpu_ms_p50", percentile(&per_cell_ms, 0.5), "ms");
            m.push("cell_cpu_ms_p90", percentile(&per_cell_ms, 0.9), "ms");
        }
    }
    Ok(Run { metrics: m, checks })
}
