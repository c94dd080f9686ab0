//! One campaign pass through `ballerino_serve::run_campaign`: a first
//! run that simulates every distinct cell and writes the journal, then a
//! second run over the same journal that only replays it.
//!
//! The runner handed to the engine is a timing wrapper around
//! `run_cell`; campaign CPU time not spent inside it is the serving
//! overhead (dedup, mailbox, journal write and flush, JSON, threads).

use crate::clock::{process_cpu_ns, thread_cpu_ns};
use crate::spans::{traced, Tracer};
use ballerino_bench::SimCell;
use ballerino_serve::{run_campaign, run_cell, CampaignReport, CellRecord, EngineConfig, Shard};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Everything one write-then-replay pass measured.
pub struct ServePass {
    /// Process CPU time of the first (simulating) run, s.
    pub first_cpu: f64,
    /// CPU time inside the runner, summed over workers, s.
    pub busy: f64,
    /// Per-cell runner CPU time, ms, keyed by the cell's stable hash.
    pub cell_ms: Vec<(u64, f64)>,
    /// The first run's report.
    pub first: CampaignReport,
    /// Journal size after the first run, bytes.
    pub journal_bytes: u64,
    /// Process CPU time of the replay-only second run, s.
    pub resume_cpu: f64,
    /// The second run's report.
    pub second: CampaignReport,
    /// Cells the second run simulated again (must be 0).
    pub reran: u64,
}

impl ServePass {
    /// CPU time outside the runner per executed cell, µs.
    pub fn overhead_us_per_cell(&self) -> f64 {
        (self.first_cpu - self.busy) / self.first.executed.max(1) as f64 * 1e6
    }

    /// Replay CPU time per replayed record, µs.
    pub fn replay_us_per_record(&self) -> f64 {
        self.resume_cpu / self.second.replayed.max(1) as f64 * 1e6
    }
}

/// Runs one pass over `cells` with a fresh journal at `journal`.
pub fn serve_pass(
    cells: &[SimCell],
    workers: usize,
    journal: &Path,
    tracer: Option<&Tracer>,
) -> Result<ServePass, String> {
    match std::fs::remove_file(journal) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("journal {}: {e}", journal.display())),
    }
    let cfg = EngineConfig {
        workers,
        mailbox_cap: 2 * workers,
        max_attempts: 3,
        backoff_ms: 0,
        shard: Shard::single(),
        halt_after: None,
    };
    let busy_ns = AtomicU64::new(0);
    let cell_ms = Mutex::new(Vec::with_capacity(cells.len()));

    let c0 = process_cpu_ns();
    let first = traced(tracer, "serve.run_campaign", None, |parent| {
        let runner = |c: &SimCell| -> CellRecord {
            let t = thread_cpu_ns();
            let rec = traced(tracer, "serve.run_cell", parent, |_| run_cell(c));
            let ns = thread_cpu_ns() - t;
            busy_ns.fetch_add(ns, Ordering::Relaxed);
            cell_ms
                .lock()
                .expect("a runner panicked while holding the timing buffer")
                .push((c.stable_hash(), ns as f64 / 1e6));
            rec
        };
        run_campaign(cells, &cfg, Some(journal), runner, |_| {})
    })?;
    let first_cpu = (process_cpu_ns() - c0) as f64 / 1e9;
    let journal_bytes = std::fs::metadata(journal).map_or(0, |m| m.len());

    let reran = AtomicU64::new(0);
    let c1 = process_cpu_ns();
    let second = traced(tracer, "serve.replay", None, |_| {
        let runner = |c: &SimCell| -> CellRecord {
            reran.fetch_add(1, Ordering::Relaxed);
            run_cell(c)
        };
        run_campaign(cells, &cfg, Some(journal), runner, |_| {})
    })?;
    let resume_cpu = (process_cpu_ns() - c1) as f64 / 1e9;

    Ok(ServePass {
        first_cpu,
        busy: busy_ns.into_inner() as f64 / 1e9,
        cell_ms: cell_ms
            .into_inner()
            .expect("a runner panicked while holding the timing buffer"),
        first,
        journal_bytes,
        resume_cpu,
        second,
        reran: reran.into_inner(),
    })
}

/// Checks a pass: nothing failed, dedup coalesced exactly the
/// duplicates, every record committed its cell's μops, and the replay
/// re-ran nothing and returned the first run's records.
pub fn check_pass(p: &ServePass, cells: &[SimCell], checks: &mut crate::common::Checks) {
    use std::collections::HashMap;
    let n_of: HashMap<String, usize> = cells.iter().map(|c| (c.key(), c.n)).collect();
    let distinct = n_of.len();
    for key in &p.first.failed {
        checks.check(false, || format!("campaign cell {key} failed"));
    }
    for rec in &p.first.records {
        checks.check(
            n_of.get(&rec.key) == Some(&(rec.committed as usize)),
            || format!("campaign record {} committed {}", rec.key, rec.committed),
        );
    }
    checks.check(p.first.coalesced == cells.len() - distinct, || {
        format!(
            "dedup coalesced {} of {} duplicates",
            p.first.coalesced,
            cells.len() - distinct
        )
    });
    checks.check(
        p.second.replayed == distinct && p.second.executed == 0 && p.reran == 0,
        || {
            format!(
                "replay ran {} cells and replayed {} of {distinct}",
                p.reran, p.second.replayed
            )
        },
    );
    let differing = p
        .first
        .records
        .iter()
        .zip(&p.second.records)
        .filter(|(a, b)| a != b)
        .count()
        + p.first.records.len().abs_diff(p.second.records.len());
    checks.attempted += p.second.records.len() as u64;
    if differing > 0 {
        checks.failed += differing as u64;
        checks
            .notes
            .push(format!("FAILED: {differing} replayed records differ"));
    }
}
