//! Cell records and the checkpoint journal.
//!
//! Every completed cell becomes one [`CellRecord`], serialized as one
//! canonical JSONL line — fixed field order, no whitespace, integers
//! only — so that "same result set" and "byte-identical file" coincide
//! once lines are sorted by key. The journal is an append-only file of
//! those lines; on restart the engine replays it and re-runs only the
//! cells that are missing. A torn final line (the process died
//! mid-write) parses as garbage and is skipped, which is exactly the
//! right recovery: that cell simply runs again.

use crate::json::{self, escape};
use ballerino_sim::SimResult;
use std::io::{BufRead, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// The result of one simulation cell, as journaled and streamed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRecord {
    /// The cell's canonical key (`ballerino_bench::SimCell::key`).
    pub key: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// μops committed.
    pub committed: u64,
    /// Branch mispredictions observed.
    pub mispredicts: u64,
    /// Memory-order violation squashes.
    pub violations: u64,
}

impl CellRecord {
    /// Builds a record from a simulation result.
    pub fn from_result(key: String, r: &SimResult) -> CellRecord {
        CellRecord {
            key,
            cycles: r.cycles,
            committed: r.committed,
            mispredicts: r.mispredicts,
            violations: r.violations,
        }
    }

    /// The canonical JSONL line (no trailing newline). Field order and
    /// spacing are fixed: merged outputs are compared byte-for-byte.
    pub fn to_line(&self) -> String {
        format!(
            r#"{{"key":"{}","cycles":{},"committed":{},"mispredicts":{},"violations":{}}}"#,
            escape(&self.key),
            self.cycles,
            self.committed,
            self.mispredicts,
            self.violations
        )
    }

    /// Parses one journal/JSONL line; `None` for corrupt or truncated
    /// lines (the caller skips them — the cell just re-runs).
    pub fn parse_line(line: &str) -> Option<CellRecord> {
        let doc = json::parse(line.trim()).ok()?;
        Some(CellRecord {
            key: doc.get("key")?.as_str()?.to_string(),
            cycles: doc.get("cycles")?.as_u64()?,
            committed: doc.get("committed")?.as_u64()?,
            mispredicts: doc.get("mispredicts")?.as_u64()?,
            violations: doc.get("violations")?.as_u64()?,
        })
    }
}

/// Parses JSONL text into records, silently skipping blank and corrupt
/// lines (a crash can tear the final line of a journal).
pub fn parse_records(text: &str) -> Vec<CellRecord> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(CellRecord::parse_line)
        .collect()
}

/// Reads a journal file; a missing file is an empty journal.
pub fn read_journal(path: &Path) -> std::io::Result<Vec<CellRecord>> {
    match std::fs::File::open(path) {
        Ok(f) => {
            let mut out = Vec::new();
            for line in std::io::BufReader::new(f).lines() {
                let line = line?;
                if line.trim().is_empty() {
                    continue;
                }
                if let Some(rec) = CellRecord::parse_line(&line) {
                    out.push(rec);
                }
            }
            Ok(out)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// An append-only journal writer: each record is one line handed to the
/// OS in a single write, so every record written before a crash
/// survives it.
pub struct JournalWriter {
    file: std::fs::File,
}

impl JournalWriter {
    /// Opens (or creates) the journal for appending. A journal whose
    /// last line was torn by a crash gets its newline first, so the next
    /// record starts a line of its own instead of joining the garbage.
    pub fn append_to(path: &Path) -> std::io::Result<JournalWriter> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(path)?;
        if file.metadata()?.len() > 0 {
            let mut last = [0u8];
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                file.write_all(b"\n")?;
            }
        }
        Ok(JournalWriter { file })
    }

    /// Appends one record with its newline in one `write_all`.
    pub fn write(&mut self, rec: &CellRecord) -> std::io::Result<()> {
        let mut line = rec.to_line();
        line.push('\n');
        self.file.write_all(line.as_bytes())
    }
}

/// Merges record sets into one canonical, key-sorted set: duplicates
/// with identical payloads collapse (shards overlap only via replayed
/// journals, which carry the same deterministic results); duplicates
/// with *conflicting* payloads are an error — that means two runs
/// disagreed on a deterministic simulation, which must never pass
/// silently.
pub fn merge_records(sets: &[Vec<CellRecord>]) -> Result<Vec<CellRecord>, String> {
    let mut by_key: std::collections::BTreeMap<&str, &CellRecord> =
        std::collections::BTreeMap::new();
    for set in sets {
        for rec in set {
            match by_key.get(rec.key.as_str()) {
                None => {
                    by_key.insert(&rec.key, rec);
                }
                Some(prev) if *prev == rec => {}
                Some(prev) => {
                    return Err(format!(
                        "conflicting records for '{}': {} vs {}",
                        rec.key,
                        prev.to_line(),
                        rec.to_line()
                    ));
                }
            }
        }
    }
    Ok(by_key.into_values().cloned().collect())
}

/// Renders records as canonical JSONL (one line per record, trailing
/// newline after each).
pub fn to_jsonl(records: &[CellRecord]) -> String {
    let mut out = String::new();
    for rec in records {
        out.push_str(&rec.to_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: &str, cycles: u64) -> CellRecord {
        CellRecord {
            key: key.into(),
            cycles,
            committed: 2000,
            mispredicts: 17,
            violations: 0,
        }
    }

    #[test]
    fn lines_round_trip() {
        let r = rec("OoO/8w/iqdflt/dram100/int_crunch/n2000/s42", 12345);
        assert_eq!(CellRecord::parse_line(&r.to_line()), Some(r));
    }

    #[test]
    fn line_shape_is_pinned() {
        // Byte-identity of merged outputs depends on this exact shape.
        assert_eq!(
            rec("k", 5).to_line(),
            r#"{"key":"k","cycles":5,"committed":2000,"mispredicts":17,"violations":0}"#
        );
    }

    #[test]
    fn torn_tail_lines_are_skipped() {
        let text = format!(
            "{}\n{}\n{}",
            rec("a", 1).to_line(),
            rec("b", 2).to_line(),
            r#"{"key":"c","cyc"#
        ); // torn mid-write
        let recs = parse_records(&text);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].key, "b");
    }

    #[test]
    fn deeply_nested_line_is_skipped() {
        let deep = format!(r#"{{"key":{}"#, "[".repeat(100_000));
        assert_eq!(CellRecord::parse_line(&deep), None);
        let text = format!(
            "{}\n{deep}\n{}",
            rec("a", 1).to_line(),
            rec("b", 2).to_line()
        );
        assert_eq!(parse_records(&text), vec![rec("a", 1), rec("b", 2)]);
    }

    #[test]
    fn merge_unions_sorts_and_dedups() {
        let a = vec![rec("b", 2), rec("a", 1)];
        let b = vec![rec("c", 3), rec("a", 1)];
        let merged = merge_records(&[a, b]).unwrap();
        assert_eq!(
            merged.iter().map(|r| r.key.as_str()).collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
    }

    #[test]
    fn merge_rejects_conflicting_duplicates() {
        let a = vec![rec("a", 1)];
        let b = vec![rec("a", 999)];
        assert!(merge_records(&[a, b]).is_err());
    }

    #[test]
    fn journal_file_round_trips_and_survives_a_torn_tail() {
        let dir =
            std::env::temp_dir().join(format!("ballerino-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);

        let mut w = JournalWriter::append_to(&path).unwrap();
        w.write(&rec("a", 1)).unwrap();
        w.write(&rec("b", 2)).unwrap();
        drop(w);
        // Simulate a crash mid-append.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"key\":\"c\",\"cy").unwrap();
        }
        let recs = read_journal(&path).unwrap();
        assert_eq!(recs, vec![rec("a", 1), rec("b", 2)]);
        // Missing file = empty journal.
        assert_eq!(read_journal(&dir.join("nope.jsonl")).unwrap(), vec![]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_resume_after_a_torn_tail_keeps_its_records() {
        let dir =
            std::env::temp_dir().join(format!("ballerino-journal-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let torn = &rec("b", 2).to_line()[..20];
        std::fs::write(&path, format!("{}\n{torn}", rec("a", 1).to_line())).unwrap();

        let mut w = JournalWriter::append_to(&path).unwrap();
        w.write(&rec("c", 3)).unwrap();
        drop(w);
        assert_eq!(read_journal(&path).unwrap(), vec![rec("a", 1), rec("c", 3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
