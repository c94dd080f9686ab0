//! Per-cell result digests and the golden files they are checked
//! against.
//!
//! A digest is FNV-1a over an explicit list of simulated statistics:
//! cycles, committed, mispredicts, violations, stall reasons, the memory
//! hierarchy counts, every energy event count and the issue breakdown.
//! Host timing and the stepping engines' own bookkeeping stay out, so a
//! change that only makes the simulator faster (or deletes a stepping
//! engine) keeps every digest.

use ballerino_bench::fnv1a;
use ballerino_sim::SimResult;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The statistics a digest covers, in a fixed order.
pub fn digest_words(r: &SimResult) -> Vec<u64> {
    let mut w = vec![r.cycles, r.committed, r.mispredicts, r.violations];
    w.extend(r.stall_reasons);
    let m = &r.mem;
    w.extend([m.hits_l1, m.hits_l2, m.hits_l3, m.hits_mem, m.prefetches]);
    let e = &r.energy;
    w.extend([
        e.cycles,
        e.fetched_uops,
        e.decoded_uops,
        e.l1i_accesses,
        e.bp_lookups,
        e.rename_lookups,
        e.rename_writes,
        e.mdp_lookups,
        e.mdp_updates,
        e.rob_writes,
        e.rob_reads,
        e.lsq_searches,
        e.lsq_writes,
        e.prf_reads,
        e.prf_writes,
        e.l1d_accesses,
        e.l2_accesses,
        e.l3_accesses,
        e.dram_accesses,
    ]);
    let s = &e.sched;
    w.extend([
        s.cam_broadcasts,
        s.cam_entries_searched,
        s.select_inputs,
        s.queue_writes,
        s.queue_reads,
        s.head_examinations,
        s.copies,
        s.steer_ops,
        s.loc_reads,
        s.loc_writes,
    ]);
    let f = &e.fu;
    w.extend([
        f.ialu, f.imul, f.idiv, f.fadd, f.fmul, f.fdiv, f.agu, f.branch,
    ]);
    let i = &r.issue_breakdown;
    w.extend([
        i.from_siq,
        i.from_piq,
        i.from_inorder,
        i.from_ooo,
        i.from_ixu,
    ]);
    w
}

/// FNV-1a over [`digest_words`], little-endian.
pub fn digest(r: &SimResult) -> u64 {
    let bytes: Vec<u8> = digest_words(r)
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

/// Seeds whose goldens are committed: the default and one held out.
pub const GOLDEN_SEEDS: [u64; 2] = [42, 7];

/// A golden file: `key value` lines, in a fixed order.
pub type Golden = BTreeMap<String, String>;

/// Where the golden of `workload` at `seed` lives, relative to the
/// checkout root.
pub fn golden_path(workload: &str, seed: u64) -> PathBuf {
    Path::new("simbench")
        .join("golden")
        .join(format!("{workload}.s{seed}.txt"))
}

/// Loads the golden of `workload` at `seed`: `None` when the seed has no
/// committed golden. A golden seed whose file is missing or empty is an
/// error, never a pass.
pub fn load_golden(workload: &str, seed: u64) -> Result<Option<Golden>, String> {
    if !GOLDEN_SEEDS.contains(&seed) {
        return Ok(None);
    }
    let path = golden_path(workload, seed);
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("golden {}: {e}", path.display()))?;
    let mut g = Golden::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let (k, v) = line
            .split_once(' ')
            .ok_or_else(|| format!("golden {}: bad line '{line}'", path.display()))?;
        g.insert(k.to_string(), v.to_string());
    }
    if g.is_empty() {
        return Err(format!("golden {} is empty", path.display()));
    }
    Ok(Some(g))
}

/// Writes a golden file (the `--bless` mode).
pub fn write_golden(workload: &str, seed: u64, g: &Golden) -> std::io::Result<PathBuf> {
    let path = golden_path(workload, seed);
    let mut s = String::new();
    for (k, v) in g {
        s.push_str(k);
        s.push(' ');
        s.push_str(v);
        s.push('\n');
    }
    std::fs::write(&path, s)?;
    Ok(path)
}

/// Counts the entries of `got` that differ from (or are missing in)
/// `want`, plus entries of `want` that `got` lacks.
pub fn mismatches(want: &Golden, got: &Golden) -> usize {
    let missing = want.keys().filter(|k| !got.contains_key(*k)).count();
    let wrong = got.iter().filter(|(k, v)| want.get(*k) != Some(v)).count();
    missing + wrong
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mismatches_count_wrong_missing_and_extra() {
        let want: Golden = [("a", "1"), ("b", "2")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        let mut got = want.clone();
        assert_eq!(mismatches(&want, &got), 0);
        got.insert("b".into(), "3".into());
        got.insert("c".into(), "4".into());
        got.remove("a");
        assert_eq!(mismatches(&want, &got), 3);
    }
}
