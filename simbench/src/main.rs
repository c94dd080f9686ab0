//! The simulator benchmark: one command, four workloads, every output
//! checked.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload <dense_matrix|memory_matrix|tiered_sweep|campaign> \
//!     [--seed 42] [--seconds 10] [--trace 0|1] [--bless]
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it measures the per-layer metrics instead: a span around
//! every call into a layer, layer probes that replay the workload's own
//! traces through one crate at a time, and the tracing overhead (traced
//! passes against untraced passes of the same run). Either way the last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; a fuller report (provenance,
//! sample counts, golden status, span self times) goes to
//! `.bench_out/report-<workload>-s<seed>-trace<k>.json`, and the traced
//! run's spans to `.bench_out/spans-<workload>-s<seed>.jsonl`.
//!
//! `--bless` rewrites the golden file of the workload at the run's seed
//! (only the committed golden seeds, see [`digest::GOLDEN_SEEDS`]).

mod campaign;
mod cells;
mod clock;
mod common;
mod digest;
mod layers;
mod matrix;
mod serve;
mod spans;
mod sweep;

use ballerino_bench::{
    enumerate_cells, point_cost, promote_indices, Provenance, SimCell, SweepSpec,
};
use ballerino_sim::{CoreConfig, DesignPoint, Width};
use cells::SimTotals;
use clock::process_cpu_ns;
use common::{best_of, Checks, Metrics, Timed, TraceSet};
use spans::{rollup, Tracer};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["dense_matrix", "memory_matrix", "tiered_sweep", "campaign"];

/// Directory (under the working directory) for reports, spans and
/// journals.
const OUT_DIR: &str = ".bench_out";

/// One run's settings.
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring budget, s.
    pub seconds: f64,
    /// The span recorder of a traced run.
    pub tracer: Option<Tracer>,
    /// Rewrite the golden instead of checking it.
    pub bless: bool,
    /// Where reports, spans and journals go.
    pub out_dir: PathBuf,
}

/// What a workload run produced.
pub struct Run {
    /// End-to-end (untraced) or per-layer (traced) metrics.
    pub metrics: Metrics,
    /// Correctness bookkeeping and report facts.
    pub checks: Checks,
}

fn usage() -> String {
    format!(
        "usage: simbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--bless]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bless) =
        (None, 42u64, 10.0f64, false, false);
    while let Some(a) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                }
            }
            "--bless" => bless = true,
            other => return Err(format!("unknown argument '{other}'\n{}", usage())),
        }
    }
    let workload = workload.ok_or_else(usage)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'\n{}", usage()));
    }
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, got {seconds}"
        ));
    }
    Ok(Ctx {
        workload,
        seed,
        seconds,
        tracer: trace.then(Tracer::new),
        bless,
        out_dir: PathBuf::from(OUT_DIR),
    })
}

fn main() {
    // The library reads tuning knobs from `BALLERINO_*` variables; the
    // benchmark measures the defaults, with the library's pooled helpers
    // on one worker thread.
    for (k, _) in std::env::vars() {
        if k.starts_with("BALLERINO_") {
            std::env::remove_var(k);
        }
    }
    std::env::set_var("BALLERINO_THREADS", "1");
    // The report's provenance shells out to git: keep it from reading
    // above the working directory or the user's and system's config.
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(PathBuf::from))
    {
        std::env::set_var("GIT_CEILING_DIRECTORIES", parent);
    }
    std::env::set_var("GIT_CONFIG_NOSYSTEM", "1");
    std::env::set_var("GIT_CONFIG_GLOBAL", "/dev/null");

    let ctx = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&ctx) {
        eprintln!("simbench: {e}");
        std::process::exit(1);
    }
}

fn run(ctx: &Ctx) -> Result<(), String> {
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    let t0 = Instant::now();
    let mut run = match ctx.workload.as_str() {
        "dense_matrix" => matrix::run(ctx, &matrix::DENSE)?,
        "memory_matrix" => matrix::run(ctx, &matrix::MEMORY)?,
        "tiered_sweep" => sweep::run(ctx)?,
        "campaign" => campaign::run(ctx)?,
        other => unreachable!("workload '{other}' passed argument checks"),
    };
    if ctx.tracer.is_some() {
        let c = &run.checks;
        run.metrics.push(
            "bench.fail_frac",
            c.failed as f64 / c.attempted.max(1) as f64,
            "ratio",
        );
    }
    let total_s = t0.elapsed().as_secs_f64();
    for m in &run.metrics.0 {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not a finite number", m.name));
        }
    }
    let report = render_report(ctx, &run, total_s);
    let report_path = ctx.out_dir.join(format!(
        "report-{}-s{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.tracer.is_some())
    ));
    std::fs::write(&report_path, &report).map_err(|e| format!("{}: {e}", report_path.display()))?;
    if let Some(t) = &ctx.tracer {
        let p = ctx
            .out_dir
            .join(format!("spans-{}-s{}.jsonl", ctx.workload, ctx.seed));
        t.write_jsonl(&p)
            .map_err(|e| format!("{}: {e}", p.display()))?;
    }

    let c = &run.checks;
    println!(
        "simbench {} seed={} trace={} golden={} attempted={} failed={} ({total_s:.1}s, report {})",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.tracer.is_some()),
        golden_status(c),
        c.attempted,
        c.failed,
        report_path.display()
    );
    for (k, v) in &c.info {
        println!("  {k}: {v}");
    }
    for m in &run.metrics.0 {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}}"#,
        c.failed == 0 && c.attempted > 0,
        c.attempted.max(1),
        c.failed,
        run.metrics.to_json()
    );
    Ok(())
}

fn golden_status(c: &Checks) -> String {
    match c.golden_mismatches {
        None => "unchecked".into(),
        Some(0) => "passed".into(),
        Some(n) => format!("FAILED({n} mismatches)"),
    }
}

/// Runs the timed passes: all of `--seconds` untraced, or (traced run)
/// untraced and traced passes alternating, so the overhead compares
/// passes of the same process under the same conditions.
pub fn phases<P>(
    ctx: &Ctx,
    mut pass: impl FnMut(Option<&Tracer>) -> P,
) -> (Vec<Timed<P>>, Option<Vec<Timed<P>>>) {
    let Some(t) = &ctx.tracer else {
        return (common::timed_passes(ctx.seconds, 2, None, pass), None);
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
        untraced.extend(common::timed_passes(0.0, 1, None, &mut pass));
        traced.extend(common::timed_passes(0.0, 1, Some(t), &mut pass));
    }
    (untraced, Some(traced))
}

/// Traced pass CPU over untraced pass CPU (best passes), minus one, in %.
pub fn overhead_pct<P>(untraced: &[Timed<P>], traced: &[Timed<P>]) -> f64 {
    (best_of(traced, |p| p.cpu) / best_of(untraced, |p| p.cpu) - 1.0) * 100.0
}

/// Records every pass's wall and CPU seconds in the report.
pub fn note_passes<P>(checks: &mut Checks, passes: &[Timed<P>]) {
    let fmt = |f: &dyn Fn(&Timed<P>) -> f64| {
        passes
            .iter()
            .map(|p| format!("{:.4}", f(p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    checks.info.push(("pass_wall_s".into(), fmt(&|p| p.wall)));
    checks.info.push(("pass_cpu_s".into(), fmt(&|p| p.cpu)));
}

/// CPU ns the calling threads spent inside every span named `name`.
pub fn span_cpu_ns(t: &Tracer, name: &str) -> u64 {
    t.spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.cpu_ns)
        .sum()
}

/// Compares `got` with the committed golden of the run's seed (or
/// writes it, with `--bless`). Every mismatching entry is a failure.
pub fn check_golden(ctx: &Ctx, got: &digest::Golden, checks: &mut Checks) -> Result<(), String> {
    if ctx.bless {
        if !digest::GOLDEN_SEEDS.contains(&ctx.seed) {
            return Err(format!(
                "--bless needs a golden seed ({:?})",
                digest::GOLDEN_SEEDS
            ));
        }
        let p = digest::write_golden(&ctx.workload, ctx.seed, got).map_err(|e| e.to_string())?;
        checks
            .info
            .push(("golden".into(), format!("wrote {}", p.display())));
        return Ok(());
    }
    match digest::load_golden(&ctx.workload, ctx.seed)? {
        None => checks.info.push((
            "golden".into(),
            format!(
                "unchecked: seed {} has no committed golden (golden seeds {:?})",
                ctx.seed,
                digest::GOLDEN_SEEDS
            ),
        )),
        Some(want) => {
            let mm = digest::mismatches(&want, got) as u64;
            checks.attempted += want.len() as u64;
            checks.failed += mm;
            checks.golden_mismatches = Some(mm);
            if mm > 0 {
                checks
                    .notes
                    .push(format!("FAILED: {mm} entries differ from the golden"));
            }
            checks.info.push((
                "golden".into(),
                format!("checked {} entries, {mm} mismatches", want.len()),
            ));
        }
    }
    Ok(())
}

/// The `sim.*`, `mem.*` count and select-work metrics: host CPU time of
/// the traced cells (`sim_ns` over `traced`), simulated counts from one
/// untraced pass (`counts`).
pub fn sim_layers(m: &mut Metrics, sim_ns: u64, traced: &SimTotals, counts: &SimTotals) {
    m.push(
        "sim.ns_per_uop",
        sim_ns as f64 / traced.committed.max(1) as f64,
        "ns",
    );
    m.push(
        "sim.ns_per_stepped_cycle",
        sim_ns as f64 / traced.stepped().max(1) as f64,
        "ns",
    );
    m.push(
        "sim.skipped_cycle_frac",
        counts.skipped as f64 / counts.cycles.max(1) as f64,
        "ratio",
    );
    m.push("mem.l1_miss_frac", counts.l1_miss_frac(), "ratio");
    m.push("mem.dram_accesses", counts.dram as f64, "count");
    m.push(
        "sched.select_inputs_per_stepped_cycle",
        counts.select_inputs as f64 / counts.stepped().max(1) as f64,
        "count",
    );
}

/// Where the `analytic.*` metrics come from.
pub enum Analytic {
    /// Measured by the workload's own passes (`tiered_sweep`).
    Measured {
        /// Tier-0 CPU ns per design point.
        ns_per_point: f64,
        /// Points promoted to simulation.
        promoted: f64,
        /// Mean |estimate − simulated| / simulated over promoted points, %.
        mean_err_pct: f64,
        /// Tier-0 CPU per pass, s.
        tier0_s: f64,
    },
    /// Probed: tier 0 over the workload's own design points, compared
    /// with their simulated aggregate cycles.
    Probe {
        /// The workload's design points.
        points: Vec<DesignPoint>,
        /// Its workloads.
        workloads: Vec<&'static str>,
        /// Trace length.
        n: usize,
        /// Simulated aggregate cycles per point.
        sim_per_point: Vec<u64>,
    },
}

/// Where the `serve.*` metrics come from.
pub enum ServeLayer {
    /// Measured by the workload's own passes (`campaign`).
    Measured {
        /// CPU time outside the runner per cell, µs.
        overhead_us_per_cell: f64,
        /// Replay CPU time per record, µs.
        replay_us_per_record: f64,
        /// Duplicates coalesced.
        coalesced: f64,
        /// Retry attempts.
        retries: f64,
        /// Journal size, bytes.
        journal_bytes: f64,
    },
    /// Probed: these cells (a sample of the workload's design points,
    /// with duplicates) through one write-then-replay campaign pass on
    /// one worker.
    Probe(Vec<SimCell>),
}

/// Workload-specific inputs of [`layers_common`].
pub struct LayerInputs {
    /// Tier-0 source.
    pub analytic: Analytic,
    /// Serving source.
    pub serve: ServeLayer,
    /// Simulation phase CPU per pass, s.
    pub sim_s: f64,
    /// Wall per untraced pass, s.
    pub wall_s: f64,
    /// Tracing overhead, %.
    pub overhead_pct: f64,
}

/// μops, accesses and branches the layer probes process at least.
const PROBE_UOPS: usize = 200_000;
const PROBE_ACCESSES: u64 = 200_000;
const PROBE_BRANCHES: u64 = 100_000;
/// μops per trace and in total each scheduler probe replays.
const SCHED_CAP: usize = 20_000;
const SCHED_MIN_UOPS: usize = 60_000;
/// Least host time the tier-0 probe accumulates, s.
const TIER0_PROBE_S: f64 = 0.2;
/// Serving probe: design points sampled and their trace length.
const SERVE_PROBE_POINTS: usize = 27;
const SERVE_PROBE_N: usize = 1_000;

/// The serving probe's cells: up to [`SERVE_PROBE_POINTS`] of the
/// workload's design points × its workloads at [`SERVE_PROBE_N`] μops,
/// with every tenth cell repeated.
pub fn serve_probe_cells(
    points: &[DesignPoint],
    workloads: &[&'static str],
    seed: u64,
) -> Vec<SimCell> {
    let pts = &points[..points.len().min(SERVE_PROBE_POINTS)];
    let mut cells = enumerate_cells(pts, workloads, SERVE_PROBE_N, seed);
    let dups: Vec<SimCell> = cells.iter().step_by(10).copied().collect();
    cells.extend(dups);
    cells
}

/// Per-layer metrics every workload reports: set-up layers, memory,
/// front end, schedulers, tier 0, serving and the run's own split.
pub fn layers_common(
    ctx: &Ctx,
    m: &mut Metrics,
    checks: &mut Checks,
    set: &TraceSet,
    inp: LayerInputs,
) -> Result<(), String> {
    let t = ctx
        .tracer
        .as_ref()
        .expect("layer probes run in the traced run");
    t.next_run();
    let (gen, dag, feat) = common::probe_setup_layers(t, set, PROBE_UOPS);
    m.push("workloads.gen_ns_per_uop", gen, "ns");
    m.push("isa.dag_ns_per_uop", dag, "ns");
    m.push("isa.features_ns_per_uop", feat, "ns");

    let (accesses, ns) = layers::probe_mem(
        t,
        set,
        &CoreConfig::preset(Width::Eight).mem,
        PROBE_ACCESSES,
    );
    m.push(
        "mem.ns_per_access",
        ns as f64 / accesses.max(1) as f64,
        "ns",
    );
    let (branches, ns, mispredicts) = layers::probe_frontend(t, set, PROBE_BRANCHES);
    m.push(
        "frontend.ns_per_branch",
        ns as f64 / branches.max(1) as f64,
        "ns",
    );
    m.push("frontend.mispredicts", mispredicts as f64, "count");

    for (prefix, span, kind) in layers::SCHED_PROBES {
        let v = match layers::probe_sched(t, span, kind, set, SCHED_CAP, SCHED_MIN_UOPS) {
            Ok((issues, ns)) => ns as f64 / issues.max(1) as f64,
            Err(e) => {
                checks.check(false, || format!("scheduler probe: {e}"));
                0.0
            }
        };
        m.push(format!("{prefix}.ns_per_issue"), v, "ns");
    }

    let (ns_per_point, promoted, err_pct, tier0_s) = match inp.analytic {
        Analytic::Measured {
            ns_per_point,
            promoted,
            mean_err_pct,
            tier0_s,
        } => (ns_per_point, promoted, mean_err_pct, tier0_s),
        Analytic::Probe {
            points,
            workloads,
            n,
            sim_per_point,
        } => tier0_probe(t, &points, workloads, n, ctx.seed, &sim_per_point),
    };
    m.push("analytic.ns_per_point", ns_per_point, "ns");
    m.push("analytic.promoted_points", promoted, "count");
    m.push("analytic.mean_err_pct", err_pct, "%");

    let (overhead, replay, coalesced, retries, journal_bytes) = match inp.serve {
        ServeLayer::Measured {
            overhead_us_per_cell,
            replay_us_per_record,
            coalesced,
            retries,
            journal_bytes,
        } => (
            overhead_us_per_cell,
            replay_us_per_record,
            coalesced,
            retries,
            journal_bytes,
        ),
        ServeLayer::Probe(cells) => {
            let mut keys: Vec<(&'static str, usize)> =
                cells.iter().map(|c| (c.workload, c.n)).collect();
            keys.sort_unstable();
            keys.dedup();
            TraceSet {
                keys,
                seed: ctx.seed,
                features: false,
            }
            .fill_global();
            let journal = ctx.out_dir.join(format!(
                "serve-probe-{}-s{}.journal",
                ctx.workload, ctx.seed
            ));
            let p = serve::serve_pass(&cells, 1, &journal, Some(t))?;
            serve::check_pass(&p, &cells, checks);
            (
                p.overhead_us_per_cell(),
                p.replay_us_per_record(),
                p.first.coalesced as f64,
                p.first.retries as f64,
                p.journal_bytes as f64,
            )
        }
    };
    m.push("serve.overhead_us_per_cell", overhead, "us");
    m.push("serve.replay_us_per_record", replay, "us");
    m.push("serve.coalesced", coalesced, "count");
    m.push("serve.retries", retries, "count");
    m.push("serve.journal_bytes", journal_bytes, "bytes");

    m.push("bench.tier0_s", tier0_s, "s");
    m.push("bench.sim_s", inp.sim_s, "s");
    m.push("bench.wall_s", inp.wall_s, "s");
    m.push("bench.trace_overhead_pct", inp.overhead_pct, "%");
    Ok(())
}

/// Tier 0 over a workload's own points: `(CPU ns per point, points the
/// single-round promotion rule keeps, mean error % against simulation,
/// median CPU s per call)`. `tier0_scores` runs on a pool thread, so the
/// probe reads the process CPU clock.
fn tier0_probe(
    t: &Tracer,
    points: &[DesignPoint],
    workloads: Vec<&'static str>,
    n: usize,
    seed: u64,
    sim_per_point: &[u64],
) -> (f64, f64, f64, f64) {
    let spec = SweepSpec {
        kinds: Vec::new(),
        widths: Vec::new(),
        iq_budgets: Vec::new(),
        dram_scales: Vec::new(),
        workloads,
        n,
        seed,
    };
    // The first call fills the feature cache; time the later ones.
    let est = ballerino_bench::tier0_scores(&spec, points);
    let mut cpu = Vec::new();
    let start = Instant::now();
    while cpu.len() < 3 || start.elapsed().as_secs_f64() < TIER0_PROBE_S {
        let c0 = process_cpu_ns();
        let e = t.span("analytic.tier0_scores", None, |_| {
            ballerino_bench::tier0_scores(&spec, points)
        });
        cpu.push((process_cpu_ns() - c0) as f64 / 1e9);
        std::hint::black_box(e);
    }
    let wall = common::median(&cpu);
    let costs: Vec<u64> = points.iter().map(point_cost).collect();
    let promoted = promote_indices(&costs, &est, spec.margin_pct()).len();
    let errs: Vec<f64> = est
        .iter()
        .zip(sim_per_point)
        .filter(|(_, &s)| s > 0)
        .map(|(&e, &s)| (e as f64 - s as f64).abs() / s as f64)
        .collect();
    (
        wall * 1e9 / points.len().max(1) as f64,
        promoted as f64,
        100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64,
        wall,
    )
}

/// The run report: provenance, settings, checks, metrics and (traced
/// run) every layer's span self time.
fn render_report(ctx: &Ctx, run: &Run, total_s: f64) -> String {
    use ballerino_serve::json::escape;
    let prov = Provenance::capture();
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let workers = if ctx.workload == "campaign" {
        campaign::CAMPAIGN_WORKERS
    } else {
        1
    };
    let c = &run.checks;
    let mut s = String::from("{\n  \"benchmark\": \"simbench\",\n");
    s.push_str(&prov.json_fields());
    let _ = writeln!(s, "  \"workload\": \"{}\",", ctx.workload);
    let _ = writeln!(s, "  \"seed\": {},", ctx.seed);
    let _ = writeln!(s, "  \"seconds\": {},", ctx.seconds);
    let _ = writeln!(s, "  \"traced\": {},", ctx.tracer.is_some());
    let _ = writeln!(s, "  \"nproc\": {nproc},");
    let _ = writeln!(s, "  \"worker_threads\": {workers},");
    let _ = writeln!(
        s,
        "  \"caches\": \"cold: every simulated cell builds its machine with empty caches, \
         predictors and queues, and statistics include the warm-up\","
    );
    let _ = writeln!(
        s,
        "  \"validation\": \"the model is checked only against the paper's qualitative claims \
         (tests/paper_claims.rs); there is no reference measurement on hardware, so no error \
         figure is given\","
    );
    let _ = writeln!(s, "  \"golden\": \"{}\",", golden_status(c));
    let _ = writeln!(s, "  \"attempted\": {},", c.attempted);
    let _ = writeln!(s, "  \"failed\": {},", c.failed);
    let _ = writeln!(s, "  \"run_wall_s\": {total_s},");
    s.push_str("  \"info\": {");
    for (i, (k, v)) in c.info.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\n    \"{}\": \"{}\"", escape(k), escape(v));
    }
    s.push_str("\n  },\n  \"notes\": [");
    for (i, n) in c.notes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}\n    \"{}\"", escape(n));
    }
    let _ = write!(s, "\n  ],\n  \"metrics\": {}", run.metrics.to_json());
    if let Some(t) = &ctx.tracer {
        s.push_str(",\n  \"span_self_time\": {");
        for (i, (name, r)) in rollup(&t.spans()).iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\n    \"{name}\": {{\"count\": {}, \"wall_ms\": {:.3}, \
                 \"self_wall_ms\": {:.3}, \"cpu_ms\": {:.3}, \"self_cpu_ms\": {:.3}}}",
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                r.cpu_ns as f64 / 1e6,
                r.self_cpu_ns as f64 / 1e6
            );
        }
        s.push_str("\n  }");
    }
    s.push_str("\n}\n");
    s
}
