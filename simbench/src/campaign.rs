//! The `campaign` workload: `run_campaign` over a large grid of tiny
//! cells, given as campaign-spec JSON documents that overlap, so the
//! engine coalesces duplicates. Each pass writes a fresh journal, then
//! replays it in a second run that simulates nothing.

use crate::cells::{run_caught, SimTotals};
use crate::common::{self, best_of, median_of, percentile, Checks, Metrics, Timed, TraceSet};
use crate::digest::Golden;
use crate::serve::{check_pass, serve_pass, ServePass};
use crate::{Analytic, Ctx, LayerInputs, Run, ServeLayer};
use ballerino_bench::{fnv1a, SimCell, KIND_REGISTRY};
use ballerino_serve::{to_jsonl, CampaignSpec};
use std::collections::{HashMap, HashSet};

/// Engine workers for the campaign. One, not two: on a two-core host
/// shared with other tenants, the CPU the engine burns spinning on its
/// mailbox lock with two workers varied twofold between runs, which no
/// bound on `cpu_s` could absorb.
pub const CAMPAIGN_WORKERS: usize = 1;

/// Trace lengths of the three full-grid specs.
const GRID_NS: [usize; 3] = [200, 300, 500];

/// Trace length of the overlapping spec (a subset of one grid spec).
const OVERLAP_N: usize = 300;

/// Cells the traced run simulates directly for the `sim.*` layer
/// metrics (the engine's runner returns records, not full results).
const SIM_SAMPLE: usize = 600;

/// The campaign's spec documents: every registered kind × widths
/// {2, 4, 8} × IQ {preset, 48} × DRAM {100, 250} × the whole suite at
/// three trace lengths, plus a 4/8-wide preset subset that repeats
/// cells of the second.
pub fn spec_docs(seed: u64) -> Vec<String> {
    let kinds: Vec<String> = KIND_REGISTRY
        .iter()
        .map(|k| format!("\"{}\"", k.name))
        .collect();
    let kinds = kinds.join(",");
    let mut docs: Vec<String> = GRID_NS
        .iter()
        .map(|n| {
            format!(
                r#"{{"name":"grid-n{n}","kinds":[{kinds}],"widths":[2,4,8],"iq_budgets":[null,48],"dram_scales":[100,250],"n":{n},"seed":{seed}}}"#
            )
        })
        .collect();
    docs.push(format!(
        r#"{{"name":"overlap","kinds":[{kinds}],"widths":[4,8],"n":{OVERLAP_N},"seed":{seed}}}"#
    ));
    docs
}

/// Parses every spec and concatenates their cells.
pub fn campaign_cells(seed: u64) -> Result<Vec<SimCell>, String> {
    let mut cells = Vec::new();
    for doc in spec_docs(seed) {
        cells.extend(CampaignSpec::from_json(&doc)?.cells());
    }
    Ok(cells)
}

/// Runs `campaign`.
pub fn run(ctx: &Ctx) -> Result<Run, String> {
    let cells = campaign_cells(ctx.seed)?;
    let mut keys: Vec<(&'static str, usize)> = cells.iter().map(|c| (c.workload, c.n)).collect();
    keys.sort_unstable();
    keys.dedup();
    let set = TraceSet {
        keys,
        seed: ctx.seed,
        features: false,
    };
    set.fill_global();

    let journal = ctx.out_dir.join(format!("campaign-s{}.journal", ctx.seed));
    let (untraced, traced_passes) =
        crate::phases(ctx, |t| serve_pass(&cells, CAMPAIGN_WORKERS, &journal, t));
    let untraced = collect(untraced)?;
    let traced_passes = traced_passes.map(collect).transpose()?;

    let mut checks = Checks::default();
    let first = &untraced[0].out;
    let record_digest = |p: &ServePass| fnv1a(to_jsonl(&p.first.records).as_bytes());
    for p in untraced.iter().chain(traced_passes.iter().flatten()) {
        check_pass(&p.out, &cells, &mut checks);
        checks.check(record_digest(&p.out) == record_digest(first), || {
            "campaign records differ between passes".into()
        });
    }
    let got: Golden = [
        (
            "records_fnv1a".to_string(),
            format!("{:016x}", record_digest(first)),
        ),
        (
            "record_count".to_string(),
            first.first.records.len().to_string(),
        ),
    ]
    .into_iter()
    .collect();
    crate::check_golden(ctx, &got, &mut checks)?;

    // A pass is the runner's cells, the engine's work around them in the
    // first run, and the replay; each part's best pass estimates its cost.
    let mut best: HashMap<u64, f64> = HashMap::new();
    for p in &untraced {
        for &(cell, ms) in &p.out.cell_ms {
            let b = best.entry(cell).or_insert(ms);
            *b = b.min(ms);
        }
    }
    let cell_ms: Vec<f64> = best.into_values().collect();
    let first_cpu =
        cell_ms.iter().sum::<f64>() / 1e3 + best_of(&untraced, |p| p.out.first_cpu - p.out.busy);
    let cpu = first_cpu + best_of(&untraced, |p| p.cpu - p.out.first_cpu);
    let committed: u64 = first.first.records.iter().map(|r| r.committed).sum();
    crate::note_passes(&mut checks, &untraced);
    checks.info.push((
        "samples".into(),
        format!(
            "{} passes; {} input cells, {} distinct, {} workers; each cell's time is its best \
             pass, cpu_s sums the best pass of each part (cells, engine, replay); cell CPU \
             percentiles over {} cells",
            untraced.len(),
            cells.len(),
            first.first.total_cells,
            CAMPAIGN_WORKERS,
            cell_ms.len()
        ),
    ));

    let mut m = Metrics::default();
    match (&traced_passes, &ctx.tracer) {
        (Some(passes), Some(t)) => {
            // A sample of distinct cells simulated directly, for the sim.*
            // metrics the engine's records do not carry.
            let mut seen = HashSet::new();
            let distinct: Vec<&SimCell> = cells.iter().filter(|c| seen.insert(c.key())).collect();
            let step = (distinct.len() / SIM_SAMPLE).max(1);
            let mut totals = SimTotals::default();
            for c in distinct.iter().step_by(step) {
                match run_caught(c, Some(t), None).result {
                    Some(r) if r.committed == c.n as u64 => totals.add(&r),
                    _ => checks.check(false, || format!("sampled cell {} failed", c.key())),
                }
            }
            crate::sim_layers(&mut m, crate::span_cpu_ns(t, "sim.run"), &totals, &totals);

            // Tier 0 against the simulated records of one grid spec.
            let spec = CampaignSpec::from_json(&spec_docs(ctx.seed)[1])?;
            let cycles: HashMap<&str, u64> = first
                .first
                .records
                .iter()
                .map(|r| (r.key.as_str(), r.cycles))
                .collect();
            let sim_per_point: Vec<u64> = spec
                .cells()
                .chunks(spec.workloads.len())
                .map(|chunk| {
                    chunk
                        .iter()
                        .map(|c| cycles.get(c.key().as_str()).copied().unwrap_or(0))
                        .sum()
                })
                .collect();
            crate::layers_common(
                ctx,
                &mut m,
                &mut checks,
                &set,
                LayerInputs {
                    analytic: Analytic::Probe {
                        points: spec.points(),
                        workloads: spec.workloads.clone(),
                        n: spec.n,
                        sim_per_point,
                    },
                    serve: ServeLayer::Measured {
                        overhead_us_per_cell: best_of(&untraced, |p| p.out.overhead_us_per_cell()),
                        replay_us_per_record: best_of(&untraced, |p| p.out.replay_us_per_record()),
                        coalesced: first.first.coalesced as f64,
                        retries: first.first.retries as f64,
                        journal_bytes: first.journal_bytes as f64,
                    },
                    sim_s: first_cpu,
                    wall_s: median_of(&untraced, |p| p.wall),
                    overhead_pct: crate::overhead_pct(&untraced, passes),
                },
            )?;
        }
        _ => {
            m.push("cpu_s", cpu, "s");
            let setup_s = common::setup_cpu_s(&set, || {
                std::hint::black_box(
                    campaign_cells(ctx.seed).expect("the specs parsed once already"),
                );
            });
            m.push("setup_s", setup_s, "s");
            m.push("peak_rss_mb", untraced[0].peak_rss_mb, "MB");
            m.push(
                "sim_muops_per_cpu_s",
                committed as f64 / first_cpu / 1e6,
                "Muops/s",
            );
            m.push(
                "cells_per_cpu_s",
                first.first.executed as f64 / first_cpu,
                "1/s",
            );
            m.push("cell_cpu_ms_p50", percentile(&cell_ms, 0.5), "ms");
            m.push("cell_cpu_ms_p90", percentile(&cell_ms, 0.9), "ms");
        }
    }
    Ok(Run { metrics: m, checks })
}

/// Turns a list of fallible passes into the passes, or the first error.
fn collect(passes: Vec<Timed<Result<ServePass, String>>>) -> Result<Vec<Timed<ServePass>>, String> {
    passes
        .into_iter()
        .map(|p| {
            p.out.map(|out| Timed {
                wall: p.wall,
                cpu: p.cpu,
                peak_rss_mb: p.peak_rss_mb,
                out,
            })
        })
        .collect()
}
