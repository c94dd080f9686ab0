//! Static trace features for the tier-0 analytic estimator.
//!
//! The cycle-accurate pipeline discovers everything dynamically; the
//! analytic tier needs the same facts *statically*, once per trace:
//!
//! * **Memory level classification** — for every load/store, the cache
//!   level it is expected to hit, from an exact LRU stack-distance pass
//!   over line addresses (Mattson's algorithm via a Fenwick tree) plus a
//!   stride-prefetcher model that reclassifies covered accesses as L1
//!   hits while still charging their DRAM bus transfers.
//! * **Branch misprediction estimate** — a gshare pass over the trace's
//!   recorded outcomes marks which branches a realistic predictor would
//!   miss, so the estimator can model pipeline redirects per-op instead
//!   of guessing a global rate.
//! * **Store→load memory dependences** — the youngest older store whose
//!   byte range overlaps each load, i.e. the edges a perfect memory
//!   dependence predictor would enforce (the register DAG alone would
//!   let memory-carried chains collapse to infinite MLP).
//! * **Functional-unit work** — μop and occupancy counts per [`FuKind`]
//!   for closed-form bandwidth bounds.
//!
//! Everything here is deterministic in the trace alone and independent
//! of the design point being estimated, so harnesses memoize a
//! [`TraceFeatures`] per `(workload, n, seed)` through
//! `ballerino_workloads::TraceCache` and re-use it across thousands of
//! design points.

use crate::dag::TraceDag;
use crate::op::{BranchKind, OpClass};
use crate::ports::FuKind;
use crate::trace::Trace;
use std::collections::HashMap;

/// Which level of the hierarchy a memory access is expected to hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum HitLevel {
    /// L1 data cache (or covered by the stride prefetcher).
    L1 = 0,
    /// L2 unified cache.
    L2 = 1,
    /// L3 last-level cache.
    L3 = 2,
    /// DRAM (including cold misses).
    Dram = 3,
}

/// Number of [`HitLevel`] variants (for level-indexed tables).
pub const NUM_HIT_LEVELS: usize = 4;

impl HitLevel {
    /// Dense index of this level, `0..NUM_HIT_LEVELS`.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Cache geometry the classifier assumes, in 64-byte lines per level.
///
/// The default mirrors `ballerino_mem::MemConfig::default()` (Table I:
/// 32 KiB L1, 256 KiB L2, 1 MiB L3). Only *capacities* matter here —
/// latencies belong to the design point, not the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemGeometry {
    /// Cache line size in bytes.
    pub line_bytes: u64,
    /// L1 capacity in lines.
    pub l1_lines: u64,
    /// L2 capacity in lines.
    pub l2_lines: u64,
    /// L3 capacity in lines.
    pub l3_lines: u64,
    /// DRAM row size in bytes (row-buffer locality granularity).
    pub row_bytes: u64,
    /// DRAM banks (each bank keeps one row open).
    pub banks: u64,
}

impl Default for MemGeometry {
    fn default() -> Self {
        MemGeometry {
            line_bytes: 64,
            l1_lines: 32 * 1024 / 64,
            l2_lines: 256 * 1024 / 64,
            l3_lines: 1024 * 1024 / 64,
            row_bytes: 8192,
            banks: 16,
        }
    }
}

/// Sentinel for "no store dependence" in [`TraceFeatures::store_dep`].
pub const NO_STORE_DEP: u32 = u32::MAX;

/// Pre-computed static features of one trace (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct TraceFeatures {
    /// Expected hit level per trace index ([`HitLevel::L1`] for non-memory
    /// μops, so the vector is uniformly indexable).
    pub level: Vec<HitLevel>,
    /// Whether a gshare predictor would mispredict this μop (always
    /// `false` for non-branches).
    pub mispredicted: Vec<bool>,
    /// For loads: trace index of the youngest older store whose byte
    /// range overlaps, else [`NO_STORE_DEP`].
    pub store_dep: Vec<u32>,
    /// μops per functional-unit kind.
    pub fu_uops: [u64; FuKind::COUNT],
    /// FU occupancy cycles per kind: 1 per μop for pipelined units, the
    /// full latency for unpipelined ones (divides).
    pub fu_occupancy: [u64; FuKind::COUNT],
    /// Memory accesses per expected hit level.
    pub level_counts: [u64; NUM_HIT_LEVELS],
    /// 64-byte lines expected to cross the DRAM bus (misses past L3 by
    /// stack distance, *including* prefetched ones — prefetching hides
    /// latency, not bandwidth).
    pub dram_line_transfers: u64,
    /// DRAM transfers landing on a *different row* than their bank's
    /// previously open row (row conflicts: precharge + activate on top
    /// of CAS). `dram_row_switches / dram_line_transfers` is the trace's
    /// row-buffer locality — ~0 for streaming, ~1 for pointer chasing.
    pub dram_row_switches: u64,
    /// Estimated branch mispredictions (count of `mispredicted`).
    pub est_mispredicts: u64,
    /// Load μops.
    pub loads: u64,
    /// Store μops.
    pub stores: u64,
    /// Branch μops.
    pub branches: u64,
}

/// Fenwick tree over access ordinals, used to count distinct lines
/// touched between two positions (LRU stack distance).
struct Fenwick {
    tree: Vec<u32>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    fn add(&mut self, mut i: usize, delta: i32) {
        i += 1;
        while i < self.tree.len() {
            self.tree[i] = (self.tree[i] as i32 + delta) as u32;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of marks in `[0, i]`.
    fn prefix(&self, mut i: usize) -> u32 {
        i += 1;
        let mut s = 0;
        while i > 0 {
            s += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Per-PC stride-prefetcher state for the coverage heuristic.
#[derive(Clone, Copy)]
struct StrideEntry {
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

impl TraceFeatures {
    /// Extracts all features in one deterministic pass. `O(n log n)` in
    /// the trace length (the log factor is the stack-distance Fenwick
    /// tree); independent of any machine configuration.
    pub fn extract(trace: &Trace, dag: &TraceDag, geom: &MemGeometry) -> TraceFeatures {
        let n = trace.ops.len();
        assert_eq!(dag.len(), n, "dag must be resolved from the same trace");
        let mut f = TraceFeatures {
            level: vec![HitLevel::L1; n],
            mispredicted: vec![false; n],
            store_dep: vec![NO_STORE_DEP; n],
            ..TraceFeatures::default()
        };

        // --- LRU stack distance over line addresses -------------------
        // Mattson: reuse distance of an access = number of *distinct*
        // lines touched since the previous access to the same line. The
        // Fenwick tree keeps one mark per line at its most recent access
        // ordinal; a range count between the previous and current
        // ordinals is exactly the distinct-line count.
        let mut last_pos: HashMap<u64, usize> = HashMap::new();
        let mut fenwick = Fenwick::new(n);
        // --- stride prefetcher coverage -------------------------------
        let mut strides: HashMap<u64, StrideEntry> = HashMap::new();
        // --- store→load dependences (8-byte granules) -----------------
        let mut granule_writer: HashMap<u64, u32> = HashMap::new();
        // --- DRAM row-buffer locality ---------------------------------
        let mut open_row: HashMap<u64, u64> = HashMap::new(); // bank -> row
                                                              // --- tournament branch predictor ------------------------------
                                                              // A bimodal table, a gshare table and a per-PC chooser: close
                                                              // enough to the simulator's TAGE on biased and short-pattern
                                                              // branches that the mispredict *count* tracks it, at a fraction
                                                              // of the code. A lone gshare overestimates misses on loops with
                                                              // strong per-PC bias (the chooser falls back to bimodal there).
        const PRED_BITS: u32 = 12;
        const PRED_MASK: u64 = (1 << PRED_BITS) - 1;
        let mut bimodal = vec![2u8; 1 << PRED_BITS]; // weakly taken
        let mut gshare = vec![2u8; 1 << PRED_BITS];
        let mut chooser = vec![2u8; 1 << PRED_BITS]; // weakly prefer gshare
        let mut history: u64 = 0;

        for (i, op) in trace.ops.iter().enumerate() {
            let d = dag.op(i);
            let fu = d.fu().index();
            f.fu_uops[fu] += 1;
            f.fu_occupancy[fu] += if op.class.unpipelined() {
                d.exec_latency() as u64
            } else {
                1
            };

            if let Some(mem) = op.mem {
                if op.class == OpClass::Load {
                    f.loads += 1;
                } else {
                    f.stores += 1;
                }

                let line = mem.addr / geom.line_bytes;
                let raw_level = match last_pos.get(&line) {
                    Some(&p) => {
                        // Distinct lines in (p, i): total marks ≤ i minus
                        // marks ≤ p; the mark *at* p is this line itself.
                        let dist = (fenwick.prefix(i.saturating_sub(1)) - fenwick.prefix(p)) as u64;
                        if dist < geom.l1_lines {
                            HitLevel::L1
                        } else if dist < geom.l2_lines {
                            HitLevel::L2
                        } else if dist < geom.l3_lines {
                            HitLevel::L3
                        } else {
                            HitLevel::Dram
                        }
                    }
                    None => HitLevel::Dram, // cold miss
                };
                if let Some(&p) = last_pos.get(&line) {
                    fenwick.add(p, -1);
                }
                fenwick.add(i, 1);
                last_pos.insert(line, i);

                if raw_level == HitLevel::Dram {
                    f.dram_line_transfers += 1;
                    let row = mem.addr / geom.row_bytes;
                    let bank = row % geom.banks.max(1);
                    if open_row.insert(bank, row) != Some(row) {
                        f.dram_row_switches += 1;
                    }
                }

                // Stride prefetcher: after two confirmations of the same
                // non-zero stride at a PC, further accesses are covered.
                let covered = match strides.get_mut(&op.pc) {
                    Some(e) => {
                        let s = mem.addr as i64 - e.last_addr as i64;
                        let hit = s == e.stride && s != 0;
                        if hit {
                            e.confidence = e.confidence.saturating_add(1);
                        } else {
                            e.stride = s;
                            e.confidence = 0;
                        }
                        e.last_addr = mem.addr;
                        hit && e.confidence >= 2
                    }
                    None => {
                        strides.insert(
                            op.pc,
                            StrideEntry {
                                last_addr: mem.addr,
                                stride: 0,
                                confidence: 0,
                            },
                        );
                        false
                    }
                };
                let level = if covered { HitLevel::L1 } else { raw_level };
                f.level[i] = level;
                f.level_counts[level.index()] += 1;

                // Store→load dependences through 8-byte granules, up to
                // the access's last byte (sizes are non-zero).
                let g0 = mem.addr / 8;
                let g1 = (mem.addr + u64::from(mem.size.get() - 1)) / 8;
                if op.class == OpClass::Store {
                    for g in g0..=g1 {
                        granule_writer.insert(g, i as u32);
                    }
                } else {
                    let mut dep = NO_STORE_DEP;
                    for g in g0..=g1 {
                        if let Some(&w) = granule_writer.get(&g) {
                            if dep == NO_STORE_DEP || w > dep {
                                dep = w;
                            }
                        }
                    }
                    f.store_dep[i] = dep;
                }
            }

            if let Some(br) = op.branch {
                f.branches += 1;
                let miss = match br.kind {
                    BranchKind::Conditional => {
                        let pc_idx = ((op.pc >> 2) & PRED_MASK) as usize;
                        let gs_idx = (((op.pc >> 2) ^ history) & PRED_MASK) as usize;
                        let bi_taken = bimodal[pc_idx] >= 2;
                        let gs_taken = gshare[gs_idx] >= 2;
                        let predicted_taken = if chooser[pc_idx] >= 2 {
                            gs_taken
                        } else {
                            bi_taken
                        };
                        // Chooser trains toward whichever component was
                        // right when they disagree.
                        if gs_taken != bi_taken {
                            if gs_taken == br.taken {
                                chooser[pc_idx] = (chooser[pc_idx] + 1).min(3);
                            } else {
                                chooser[pc_idx] = chooser[pc_idx].saturating_sub(1);
                            }
                        }
                        for (tbl, idx) in [(&mut bimodal, pc_idx), (&mut gshare, gs_idx)] {
                            if br.taken {
                                tbl[idx] = (tbl[idx] + 1).min(3);
                            } else {
                                tbl[idx] = tbl[idx].saturating_sub(1);
                            }
                        }
                        history = ((history << 1) | br.taken as u64) & PRED_MASK;
                        predicted_taken != br.taken
                    }
                    // Direct jumps always predict; indirect targets are
                    // assumed BTB-resident (the suite's indirect branches
                    // are few — calibration absorbs the residue).
                    BranchKind::Direct | BranchKind::Indirect => false,
                };
                if miss {
                    f.mispredicted[i] = true;
                    f.est_mispredicts += 1;
                }
            }
        }
        f
    }

    /// Number of μops the features describe.
    pub fn len(&self) -> usize {
        self.level.len()
    }

    /// Whether the trace was empty.
    pub fn is_empty(&self) -> bool {
        self.level.is_empty()
    }

    /// Fraction of memory accesses expected to miss L1 (a quick
    /// memory-intensity scalar for reporting).
    pub fn l1_miss_fraction(&self) -> f64 {
        let mem = self.loads + self.stores;
        if mem == 0 {
            return 0.0;
        }
        (mem - self.level_counts[HitLevel::L1.index()]) as f64 / mem as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MicroOp;
    use crate::regs::ArchReg;

    fn features(t: &Trace) -> TraceFeatures {
        let dag = TraceDag::resolve(t);
        TraceFeatures::extract(t, &dag, &MemGeometry::default())
    }

    #[test]
    fn cold_misses_are_dram_and_reuse_is_l1() {
        let mut t = Trace::new("reuse");
        t.push(MicroOp::load(0x0, ArchReg::int(1), None, 0x1000));
        t.push(MicroOp::load(0x4, ArchReg::int(2), None, 0x1000));
        let f = features(&t);
        assert_eq!(f.level[0], HitLevel::Dram);
        assert_eq!(f.level[1], HitLevel::L1);
        assert_eq!(f.dram_line_transfers, 1);
        assert_eq!(f.loads, 2);
    }

    #[test]
    fn capacity_misses_classify_by_stack_distance() {
        // Touch more distinct lines than L1 holds, then re-touch the
        // first: its reuse distance lands in L2 territory.
        let geom = MemGeometry::default();
        let mut t = Trace::new("cap");
        let distinct = geom.l1_lines + 10;
        for i in 0..distinct {
            // Distinct PCs so the stride prefetcher never gains
            // confidence at one PC.
            t.push(MicroOp::load(
                0x1000 * i,
                ArchReg::int(1),
                None,
                i * geom.line_bytes,
            ));
        }
        t.push(MicroOp::load(0x999_0000, ArchReg::int(2), None, 0));
        let f = features(&t);
        assert_eq!(f.level[distinct as usize], HitLevel::L2);
    }

    #[test]
    fn stride_streams_are_prefetch_covered_but_still_pay_bus() {
        let mut t = Trace::new("stream");
        for i in 0..16u64 {
            t.push(MicroOp::load(0x40, ArchReg::int(1), None, 0x10000 + i * 64));
        }
        let f = features(&t);
        // First accesses train the predictor; the steady state is L1.
        assert_eq!(f.level[10], HitLevel::L1);
        // Every line still crosses the DRAM bus exactly once.
        assert_eq!(f.dram_line_transfers, 16);
    }

    #[test]
    fn store_load_dependences_use_byte_overlap() {
        let mut t = Trace::new("fwd");
        t.push(MicroOp::store(0x0, Some(ArchReg::int(1)), None, 0x2000));
        t.push(MicroOp::load(0x4, ArchReg::int(2), None, 0x2000));
        t.push(MicroOp::load(0x8, ArchReg::int(3), None, 0x3000));
        let f = features(&t);
        assert_eq!(f.store_dep[1], 0);
        assert_eq!(f.store_dep[2], NO_STORE_DEP);
        assert_eq!(f.store_dep[0], NO_STORE_DEP, "stores carry no dep");
    }

    #[test]
    fn biased_branches_train_and_flaky_ones_miss() {
        let mut t = Trace::new("br");
        for _ in 0..64 {
            t.push(MicroOp::branch(0x100, Some(ArchReg::int(1)), true, 0x40));
        }
        let f = features(&t);
        // An always-taken branch warms up within a few iterations.
        assert!(f.est_mispredicts <= 4, "got {}", f.est_mispredicts);

        let mut t2 = Trace::new("flaky");
        for i in 0..64u64 {
            // Period-3 pattern defeats a plain history predictor enough
            // to produce a nonzero miss estimate.
            t2.push(MicroOp::branch(
                0x100 + (i % 7) * 8,
                Some(ArchReg::int(1)),
                i % 3 == 0,
                0x40,
            ));
        }
        let f2 = features(&t2);
        assert!(f2.est_mispredicts > 0);
        assert_eq!(f2.branches, 64);
    }

    #[test]
    fn fu_work_counts_unpipelined_occupancy() {
        let mut t = Trace::new("fu");
        t.push(MicroOp::compute(
            0x0,
            OpClass::IntDiv,
            ArchReg::int(1),
            [None, None],
        ));
        t.push(MicroOp::alu(0x4, ArchReg::int(2), [None, None]));
        let f = features(&t);
        assert_eq!(f.fu_uops[FuKind::IntDiv.index()], 1);
        assert_eq!(
            f.fu_occupancy[FuKind::IntDiv.index()],
            OpClass::IntDiv.exec_latency() as u64
        );
        assert_eq!(f.fu_occupancy[FuKind::IntAlu.index()], 1);
    }

    #[test]
    fn empty_trace_has_empty_features() {
        let f = features(&Trace::new("empty"));
        assert!(f.is_empty());
        assert_eq!(f.est_mispredicts, 0);
        assert_eq!(f.l1_miss_fraction(), 0.0);
    }
}
