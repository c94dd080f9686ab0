//! Pieces every workload shares: metrics, statistics, the trace sets a
//! workload consumes, set-up timing and the timed pass loop.

use crate::clock::{process_cpu_ns, thread_cpu_ns};
use crate::spans::Tracer;
use ballerino_isa::{MemGeometry, TraceDag, TraceFeatures};
use ballerino_workloads::{cached_dag, cached_features, cached_workload, workload, TraceCache};
use std::time::Instant;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// An ordered metric list with a push helper.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// The metrics as one JSON object: name → `{"value", "unit"}`, values
    /// with all their digits.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(
                    r#""{}": {{"value": {}, "unit": "{}"}}"#,
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// What a workload run reports besides its metrics.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations attempted (cells, frontier checks, replayed records).
    pub attempted: u64,
    /// Operations that failed: a panicking cell, a digest or frontier
    /// mismatch, a failed campaign key, a replay that differs.
    pub failed: u64,
    /// The golden comparison: `None` when the seed has no golden.
    pub golden_mismatches: Option<u64>,
    /// Free-form report lines.
    pub notes: Vec<String>,
    /// Named facts for the report header (sample counts and the like).
    pub info: Vec<(String, String)>,
}

impl Checks {
    /// Counts one operation; `ok = false` also counts a failure, with a
    /// note saying what failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("FAILED: {msg}");
            self.notes.push(format!("FAILED: {msg}"));
        }
    }
}

/// Median of a sample (the mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile, `p` in `(0, 1]`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The traces one workload consumes: `(workload name, μops)` at a seed,
/// and whether tier 0 needs their static features.
#[derive(Debug, Clone)]
pub struct TraceSet {
    /// Distinct `(name, n)` pairs.
    pub keys: Vec<(&'static str, usize)>,
    /// Generator seed.
    pub seed: u64,
    /// Whether the feature cache is filled too.
    pub features: bool,
}

impl TraceSet {
    /// Fills `cache` with every trace and DAG (and features) of the set.
    pub fn fill(&self, cache: &TraceCache) {
        for &(w, n) in &self.keys {
            cache.get(w, n, self.seed);
            cache.dag(w, n, self.seed);
            if self.features {
                cache.features(w, n, self.seed);
            }
        }
    }

    /// Fills the process-wide cache the simulation cells read.
    pub fn fill_global(&self) {
        for &(w, n) in &self.keys {
            cached_workload(w, n, self.seed);
            cached_dag(w, n, self.seed);
            if self.features {
                cached_features(w, n, self.seed);
            }
        }
    }
}

/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 15;

/// Times `SETUP_REPS` set-ups in CPU time, each into a fresh cache
/// (`extra` runs first, for workload-specific set-up such as parsing a
/// spec), and returns the median in seconds. Workloads call it after
/// their timed passes, when the process has settled; the passes
/// themselves read the process-wide cache, filled once beforehand.
pub fn setup_cpu_s(set: &TraceSet, extra: impl Fn()) -> f64 {
    let mut cpu = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let c0 = process_cpu_ns();
        extra();
        let cache = TraceCache::new();
        set.fill(&cache);
        cpu.push((process_cpu_ns() - c0) as f64 / 1e9);
    }
    median(&cpu)
}

/// One timed pass: wall and process CPU seconds, the peak resident set
/// so far, and what the pass returned.
pub struct Timed<P> {
    /// Wall seconds.
    pub wall: f64,
    /// CPU seconds of the whole process (every thread).
    pub cpu: f64,
    /// Peak resident set of the process when the pass ended, MB.
    pub peak_rss_mb: f64,
    /// The pass's result.
    pub out: P,
}

/// Runs `pass` until `seconds` of wall time have elapsed (and at least
/// `min_passes` times).
pub fn timed_passes<P>(
    seconds: f64,
    min_passes: usize,
    tracer: Option<&Tracer>,
    mut pass: impl FnMut(Option<&Tracer>) -> P,
) -> Vec<Timed<P>> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_passes.max(1) || start.elapsed().as_secs_f64() < seconds {
        if let Some(t) = tracer {
            t.next_run();
        }
        let (t0, c0) = (Instant::now(), process_cpu_ns());
        let p = pass(tracer);
        out.push(Timed {
            cpu: (process_cpu_ns() - c0) as f64 / 1e9,
            wall: t0.elapsed().as_secs_f64(),
            peak_rss_mb: peak_rss_mb(),
            out: p,
        });
    }
    out
}

/// Median over passes of one per-pass number.
pub fn median_of<P>(passes: &[Timed<P>], f: impl Fn(&Timed<P>) -> f64) -> f64 {
    median(&passes.iter().map(f).collect::<Vec<_>>())
}

/// Least value over passes of one per-pass time: the pass least
/// disturbed by other tenants of the host, whose interference only ever
/// adds time.
pub fn best_of<P>(passes: &[Timed<P>], f: impl Fn(&Timed<P>) -> f64) -> f64 {
    passes.iter().map(f).fold(f64::INFINITY, f64::min)
}

/// Element-wise least value over passes of a per-item time vector
/// (over the items every pass has).
pub fn best_per_item(samples: &[&[f64]]) -> Vec<f64> {
    let n = samples.iter().map(|s| s.len()).min().unwrap_or(0);
    (0..n)
        .map(|i| samples.iter().map(|s| s[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Per-layer set-up costs measured by calling the layer functions
/// directly (the caches would hide repeat work): CPU ns per μop of
/// generation, DAG resolution and feature extraction. Rounds over the
/// set repeat until at least `min_uops` μops were processed.
pub fn probe_setup_layers(t: &Tracer, set: &TraceSet, min_uops: usize) -> (f64, f64, f64) {
    let (mut gen, mut dag, mut feat, mut uops) = (0u64, 0u64, 0u64, 0usize);
    while uops < min_uops.max(1) {
        for &(w, n) in &set.keys {
            let (trace, g) = timed_span(t, "workloads.workload", || workload(w, n, set.seed));
            let (d, r) = timed_span(t, "isa.dag_resolve", || TraceDag::resolve(&trace));
            let (f, x) = timed_span(t, "isa.features_extract", || {
                TraceFeatures::extract(&trace, &d, &MemGeometry::default())
            });
            std::hint::black_box(&f);
            gen += g;
            dag += r;
            feat += x;
            uops += trace.len();
        }
    }
    let per = |ns: u64| ns as f64 / uops as f64;
    (per(gen), per(dag), per(feat))
}

/// Runs `f` in a span and also returns the CPU ns it took on this
/// thread.
pub fn timed_span<R>(t: &Tracer, name: &'static str, f: impl FnOnce() -> R) -> (R, u64) {
    let c0 = thread_cpu_ns();
    let r = t.span(name, None, |_| f());
    (r, thread_cpu_ns() - c0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.9), 90.0);
        assert_eq!(percentile(&[5.0], 0.9), 5.0);
    }

    #[test]
    fn checks_count_failures() {
        let mut c = Checks::default();
        c.check(true, || "ok".into());
        c.check(false, || "bad".into());
        assert_eq!((c.attempted, c.failed), (2, 1));
    }
}
