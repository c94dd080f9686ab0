//! The supervised campaign engine.
//!
//! [`run_campaign`] turns a list of [`SimCell`]s into a set of
//! [`CellRecord`]s on a fixed pool of workers, with the
//! service-shaped machinery a long campaign needs:
//!
//! * **Sharding** — `BALLERINO_SHARD=i/n` keeps only the cells whose
//!   stable FNV-1a key hash satisfies `hash % n == i`. Every shard
//!   derives its subset independently from the spec; the subsets
//!   partition the campaign exactly, so `n` processes on `n` machines
//!   cover every cell once.
//! * **Dedup** — cells with identical keys are coalesced before
//!   dispatch and simulated once (batched requests often overlap).
//! * **Checkpoint/replay** — completed cells append to a journal
//!   (`journal` module); on restart the journal is replayed first and
//!   only the missing cells run.
//! * **Claiming** — workers take cells in enumeration order from one
//!   atomic cursor over the pending list, which already holds the whole
//!   campaign; there is no feeder thread and no work queue. The calling
//!   thread is worker 0 and the collector, so `workers` = 1 spawns no
//!   thread and streams and journals records in enumeration order.
//! * **Supervision** — each cell runs under `catch_unwind`; a panicking
//!   cell is retried with exponential backoff up to a cap, then
//!   reported failed. One poisoned cell can't take down the campaign or
//!   wedge a worker.
//! * **Streaming** — records are handed to the caller's sink as they
//!   complete (arrival order), while the returned report carries the
//!   canonical key-sorted set.
//!
//! ## Determinism contract
//!
//! The *streamed* order depends on scheduling; the *merged result set*
//! does not. Simulation is deterministic per cell, the key→shard map is
//! a pure function, and the report sorts by key — so the union of the
//! shard reports (or journals) of any run topology — 1 shard or many,
//! any worker count, any arrival order, crashed-and-resumed or not — is
//! byte-identical as canonical JSONL. `tests/` pins this.

use crate::journal::{read_journal, CellRecord, JournalWriter};
use ballerino_bench::SimCell;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::channel;

/// A horizontal slice of a campaign: this process owns the cells whose
/// stable hash lands on `index` modulo `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This process's slice, `0..count`.
    pub index: u64,
    /// Total number of slices.
    pub count: u64,
}

impl Shard {
    /// The whole campaign in one process.
    pub fn single() -> Shard {
        Shard { index: 0, count: 1 }
    }

    /// Parses `"i/n"` (e.g. `"0/3"`); requires `i < n` and `n >= 1`.
    pub fn parse(s: &str) -> Result<Shard, String> {
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| format!("bad shard '{s}' (want i/n, e.g. 0/3)"))?;
        let index: u64 = i
            .trim()
            .parse()
            .map_err(|_| format!("bad shard index '{i}'"))?;
        let count: u64 = n
            .trim()
            .parse()
            .map_err(|_| format!("bad shard count '{n}'"))?;
        if count == 0 || index >= count {
            return Err(format!(
                "shard {index}/{count} out of range (need index < count)"
            ));
        }
        Ok(Shard { index, count })
    }

    /// The shard from `BALLERINO_SHARD` (unset or empty = single).
    pub fn from_env() -> Result<Shard, String> {
        match std::env::var("BALLERINO_SHARD") {
            Ok(s) if !s.trim().is_empty() => Shard::parse(&s),
            _ => Ok(Shard::single()),
        }
    }

    /// Whether this shard owns `cell`. A pure function of the cell key,
    /// so every process agrees without coordination.
    pub fn owns(&self, cell: &SimCell) -> bool {
        cell.stable_hash() % self.count == self.index
    }
}

/// Engine tuning knobs. [`EngineConfig::from_env`] is the service
/// default; tests construct configs directly.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Workers, the calling thread included: the engine spawns
    /// `workers - 1` threads.
    pub workers: usize,
    /// Ignored: the engine has no dispatch mailbox. Kept only so that
    /// existing struct literals still compile.
    pub mailbox_cap: usize,
    /// Attempts per cell (1 = no retry).
    pub max_attempts: usize,
    /// Base backoff between attempts; doubles per retry. 0 = no sleep.
    pub backoff_ms: u64,
    /// This process's campaign slice.
    pub shard: Shard,
    /// Crash injection for tests/CI: stop dispatching after this many
    /// newly-executed cells (journaled work keeps its records).
    pub halt_after: Option<usize>,
}

impl EngineConfig {
    /// The service defaults: `BALLERINO_THREADS` workers, 2 retries
    /// (`BALLERINO_SERVE_RETRIES`), 10 ms base backoff
    /// (`BALLERINO_SERVE_BACKOFF_MS`), shard from `BALLERINO_SHARD`.
    pub fn from_env() -> Result<EngineConfig, String> {
        let workers = ballerino_bench::threads();
        let env_num =
            |name: &str| -> Option<u64> { std::env::var(name).ok().and_then(|s| s.parse().ok()) };
        Ok(EngineConfig {
            workers,
            mailbox_cap: 0,
            max_attempts: 1 + env_num("BALLERINO_SERVE_RETRIES").unwrap_or(2) as usize,
            backoff_ms: env_num("BALLERINO_SERVE_BACKOFF_MS").unwrap_or(10),
            shard: Shard::from_env()?,
            halt_after: None,
        })
    }
}

/// What a campaign run produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// All completed records this shard holds (replayed + newly run),
    /// sorted by key.
    pub records: Vec<CellRecord>,
    /// Keys that exhausted their attempts, sorted.
    pub failed: Vec<String>,
    /// Cells this shard owns after dedup.
    pub total_cells: usize,
    /// Duplicate cells coalesced away before dispatch.
    pub coalesced: usize,
    /// Cells satisfied from the journal without re-running.
    pub replayed: usize,
    /// Cells newly executed by this run.
    pub executed: usize,
    /// Retry attempts consumed (beyond each cell's first attempt).
    pub retries: u64,
    /// Whether the run stopped early (`halt_after`).
    pub halted: bool,
}

/// A worker → collector message.
enum Done {
    Ok(CellRecord),
    Failed(String),
}

/// Runs a campaign slice: shard-filter and dedup `cells`, replay the
/// journal, execute what's missing on `cfg.workers` supervised workers
/// (this thread plus `cfg.workers - 1` scoped threads), stream every
/// record (replayed first, then completion order) through `sink`, and
/// return the key-sorted report.
///
/// `runner` maps a cell to its record; the service passes
/// [`run_cell`], tests inject panicking or synthetic runners.
pub fn run_campaign<F>(
    cells: &[SimCell],
    cfg: &EngineConfig,
    journal_path: Option<&Path>,
    runner: F,
    mut sink: impl FnMut(&CellRecord),
) -> Result<CampaignReport, String>
where
    F: Fn(&SimCell) -> CellRecord + Sync,
{
    // Shard filter + dedup (first occurrence wins; keys are canonical,
    // so identical keys mean identical work).
    let mut seen = HashSet::new();
    let mut owned: Vec<(String, SimCell)> = Vec::new();
    let mut coalesced = 0usize;
    for cell in cells.iter().filter(|c| cfg.shard.owns(c)) {
        let key = cell.key();
        if seen.insert(key.clone()) {
            owned.push((key, *cell));
        } else {
            coalesced += 1;
        }
    }
    let total_cells = owned.len();

    // Journal replay: completed cells keep their records and never
    // re-run. Journal entries for cells outside this campaign slice
    // (stale specs, other shards) are ignored.
    let mut records: Vec<CellRecord> = Vec::with_capacity(total_cells);
    let mut pending: Vec<(String, SimCell)> = Vec::new();
    let mut replayed = 0usize;
    {
        let journaled: HashMap<String, CellRecord> = match journal_path {
            Some(p) => read_journal(p)
                .map_err(|e| format!("journal {}: {e}", p.display()))?
                .into_iter()
                .map(|r| (r.key.clone(), r))
                .collect(),
            None => HashMap::new(),
        };
        for (key, cell) in owned {
            match journaled.get(&key) {
                Some(rec) => {
                    sink(rec);
                    records.push(rec.clone());
                    replayed += 1;
                }
                None => pending.push((key, cell)),
            }
        }
    }

    let mut journal = match journal_path {
        Some(p) => {
            Some(JournalWriter::append_to(p).map_err(|e| format!("journal {}: {e}", p.display()))?)
        }
        None => None,
    };

    // The engine proper: workers claim cells in enumeration order from
    // one cursor; the calling thread is worker 0 and the collector.
    let halt = AtomicBool::new(false);
    let retries = AtomicU64::new(0);
    let executed = AtomicUsize::new(0);
    let cursor = AtomicUsize::new(0);
    let mut failed: Vec<String> = Vec::new();
    let max_attempts = cfg.max_attempts.max(1);

    // The next unclaimed cell, or `None` once the campaign is exhausted
    // or halted.
    let claim = || {
        if halt.load(Ordering::SeqCst) {
            return None;
        }
        pending.get(cursor.fetch_add(1, Ordering::SeqCst))
    };
    // One cell under supervision: `catch_unwind` with backed-off retries.
    let supervise = |(key, cell): &(String, SimCell)| {
        let mut attempt = 0;
        loop {
            attempt += 1;
            match catch_unwind(AssertUnwindSafe(|| runner(cell))) {
                Ok(rec) => {
                    executed.fetch_add(1, Ordering::SeqCst);
                    return Done::Ok(rec);
                }
                Err(_) if attempt < max_attempts => {
                    retries.fetch_add(1, Ordering::SeqCst);
                    if cfg.backoff_ms > 0 {
                        let ms = cfg.backoff_ms << (attempt - 1).min(6);
                        std::thread::sleep(std::time::Duration::from_millis(ms));
                    }
                }
                Err(_) => return Done::Failed(key.clone()),
            }
        }
    };

    std::thread::scope(|scope| {
        let (done_tx, done_rx) = channel::<Done>();
        for _ in 1..cfg.workers {
            let done_tx = done_tx.clone();
            let (claim, supervise) = (&claim, &supervise);
            scope.spawn(move || {
                while let Some(item) = claim() {
                    let _ = done_tx.send(supervise(item));
                }
            });
        }
        // The collector holds no sender; disconnect == all workers done.
        drop(done_tx);

        // Collector: journal + stream in arrival order, trip the halt
        // fuse when the crash-injection threshold is reached.
        let mut new_done = 0usize;
        let mut collect = |msg: Done| match msg {
            Done::Ok(rec) => {
                if let Some(j) = journal.as_mut() {
                    if let Err(e) = j.write(&rec) {
                        eprintln!("journal write failed: {e}");
                    }
                }
                sink(&rec);
                records.push(rec);
                new_done += 1;
                if cfg.halt_after.is_some_and(|limit| new_done >= limit) {
                    halt.store(true, Ordering::SeqCst);
                }
            }
            Done::Failed(key) => failed.push(key),
        };
        while let Some(item) = claim() {
            collect(supervise(item));
            done_rx.try_iter().for_each(&mut collect);
        }
        done_rx.iter().for_each(collect);
    });

    records.sort_by(|a, b| a.key.cmp(&b.key));
    failed.sort();
    Ok(CampaignReport {
        records,
        failed,
        total_cells,
        coalesced,
        replayed,
        executed: executed.into_inner(),
        retries: retries.into_inner(),
        halted: halt.into_inner(),
    })
}

/// The production runner: cycle-accurate simulation via
/// [`SimCell::run`], recorded under the cell's canonical key.
pub fn run_cell(cell: &SimCell) -> CellRecord {
    CellRecord::from_result(cell.key(), &cell.run())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballerino_bench::{enumerate_cells, grid_points};
    use ballerino_sim::{MachineKind, Width};
    use std::sync::Mutex;

    /// A deterministic synthetic runner: no simulation, instant.
    fn synth(cell: &SimCell) -> CellRecord {
        CellRecord {
            key: cell.key(),
            cycles: cell.stable_hash() % 100_000,
            committed: cell.n as u64,
            mispredicts: cell.seed,
            violations: 0,
        }
    }

    fn test_cells() -> Vec<SimCell> {
        let points = grid_points(
            &[
                MachineKind::InOrder,
                MachineKind::OutOfOrder,
                MachineKind::Ballerino,
            ],
            &[Width::Two, Width::Eight],
            &[None, Some(32)],
            &[100, 200],
        );
        enumerate_cells(&points, &["int_crunch", "pointer_chase"], 1000, 42)
    }

    fn cfg(workers: usize) -> EngineConfig {
        EngineConfig {
            workers,
            mailbox_cap: 4,
            max_attempts: 3,
            backoff_ms: 0,
            shard: Shard::single(),
            halt_after: None,
        }
    }

    #[test]
    fn shard_parse_validates() {
        assert_eq!(Shard::parse("0/3").unwrap(), Shard { index: 0, count: 3 });
        assert_eq!(Shard::parse("2/3").unwrap(), Shard { index: 2, count: 3 });
        assert!(Shard::parse("3/3").is_err());
        assert!(Shard::parse("0/0").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/b").is_err());
    }

    #[test]
    fn shards_partition_the_campaign_exactly() {
        let cells = test_cells();
        for count in [1u64, 2, 3, 5] {
            let mut owners = vec![0usize; cells.len()];
            for index in 0..count {
                let shard = Shard { index, count };
                for (i, c) in cells.iter().enumerate() {
                    if shard.owns(c) {
                        owners[i] += 1;
                    }
                }
            }
            assert!(owners.iter().all(|&o| o == 1), "count={count}: {owners:?}");
        }
    }

    #[test]
    fn report_is_sorted_and_worker_count_invariant() {
        let cells = test_cells();
        let base = run_campaign(&cells, &cfg(1), None, synth, |_| {}).unwrap();
        for workers in [2, 4, 7] {
            let r = run_campaign(&cells, &cfg(workers), None, synth, |_| {}).unwrap();
            assert_eq!(r.records, base.records, "workers={workers}");
        }
        let mut keys: Vec<&str> = base.records.iter().map(|r| r.key.as_str()).collect();
        let sorted = {
            let mut s = keys.clone();
            s.sort();
            s
        };
        assert_eq!(keys, sorted);
        keys.dedup();
        assert_eq!(keys.len(), cells.len());
    }

    #[test]
    fn duplicate_cells_coalesce_to_one_execution() {
        let cells = test_cells();
        let mut doubled = cells.clone();
        doubled.extend(cells.iter().copied());
        let calls = AtomicUsize::new(0);
        let r = run_campaign(
            &doubled,
            &cfg(4),
            None,
            |c| {
                calls.fetch_add(1, Ordering::SeqCst);
                synth(c)
            },
            |_| {},
        )
        .unwrap();
        assert_eq!(r.coalesced, cells.len());
        assert_eq!(r.records.len(), cells.len());
        assert_eq!(calls.load(Ordering::SeqCst), cells.len());
    }

    #[test]
    fn flaky_cells_retry_and_poisoned_cells_fail_in_isolation() {
        let cells = test_cells();
        let flaky_key = cells[3].key();
        let poison_key = cells[10].key();
        let attempts = Mutex::new(HashMap::<String, usize>::new());
        let r = run_campaign(
            &cells,
            &cfg(4),
            None,
            |c| {
                let key = c.key();
                let n = {
                    let mut m = attempts.lock().unwrap();
                    let e = m.entry(key.clone()).or_insert(0);
                    *e += 1;
                    *e
                };
                if key == poison_key || (key == flaky_key && n < 3) {
                    panic!("injected fault for {key}");
                }
                synth(c)
            },
            |_| {},
        )
        .unwrap();
        // The poisoned cell fails alone; everything else completes.
        assert_eq!(r.failed, vec![poison_key]);
        assert_eq!(r.records.len(), cells.len() - 1);
        // The flaky cell succeeded on its final allowed attempt.
        assert!(r.records.iter().any(|rec| rec.key == flaky_key));
        // 2 flaky retries + 2 poisoned retries.
        assert_eq!(r.retries, 4);
    }

    #[test]
    fn streaming_sink_sees_every_record_once() {
        let cells = test_cells();
        let mut streamed = Vec::new();
        let r = run_campaign(&cells, &cfg(3), None, synth, |rec| {
            streamed.push(rec.clone());
        })
        .unwrap();
        streamed.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(streamed, r.records);
    }

    #[test]
    fn crash_and_resume_reconstructs_the_exact_result_set() {
        let cells = test_cells();
        let uninterrupted = run_campaign(&cells, &cfg(3), None, synth, |_| {}).unwrap();

        let dir =
            std::env::temp_dir().join(format!("ballerino-engine-crash-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // An LCG drives the "random" crash points (no std randomness in
        // tests either — reproducible failures beat novel ones). The
        // runner is throttled: the instant synthetic runner can drain
        // every cell before the collector trips the halt flag, which
        // would make the resume leg vacuous.
        let throttled = |c: &SimCell| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            synth(c)
        };
        let mut lcg: u64 = 0x5eed;
        let mut interrupted_trials = 0;
        for trial in 0..5 {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Leave headroom below the cell count: workers already past
            // the halt check legitimately finish their in-flight cell.
            let halt_after = 1 + (lcg >> 33) as usize % (cells.len() - 8);
            let journal = dir.join(format!("trial{trial}.jsonl"));
            let _ = std::fs::remove_file(&journal);

            // First run: killed after a random prefix.
            let mut crash_cfg = cfg(3);
            crash_cfg.halt_after = Some(halt_after);
            let first =
                run_campaign(&cells, &crash_cfg, Some(&journal), throttled, |_| {}).unwrap();
            assert!(first.halted);
            assert!(first.executed >= halt_after);
            if first.records.len() < cells.len() {
                interrupted_trials += 1;
            }

            // Resume: replays the journal, runs only the missing cells.
            let resumed = run_campaign(&cells, &cfg(3), Some(&journal), synth, |_| {}).unwrap();
            assert!(!resumed.halted);
            assert_eq!(resumed.replayed, first.records.len());
            assert_eq!(resumed.executed, cells.len() - first.records.len());
            assert_eq!(
                resumed.records, uninterrupted.records,
                "trial {trial}: resumed set diverged (halt_after={halt_after})"
            );
        }
        // The resume leg must have been genuinely exercised, not just
        // replay-everything-and-run-nothing.
        assert!(
            interrupted_trials > 0,
            "no trial left cells for the resume to run"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_union_equals_single_shard_run() {
        let cells = test_cells();
        let single = run_campaign(&cells, &cfg(2), None, synth, |_| {}).unwrap();
        for count in [2u64, 3] {
            let mut sets = Vec::new();
            for index in 0..count {
                let mut c = cfg(2);
                c.shard = Shard { index, count };
                sets.push(
                    run_campaign(&cells, &c, None, synth, |_| {})
                        .unwrap()
                        .records,
                );
            }
            let merged = crate::journal::merge_records(&sets).unwrap();
            assert_eq!(merged, single.records, "count={count}");
        }
    }
}
