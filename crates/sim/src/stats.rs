//! Simulation results: IPC, scheduling-delay breakdowns (Figs. 3c/12),
//! and all the per-structure statistics the figures consume.

use ballerino_energy::{EnergyEvents, FuOpCounts, StructureSizes};
use ballerino_mem::MemStats;
use ballerino_sched::{HeadStateStats, IssueBreakdown, SchedEnergyEvents, SteerStats};

/// Instruction class of Fig. 3c: loads, load-dependents, and the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingClass {
    /// Loads.
    Ld,
    /// μops directly or transitively dependent on an incomplete older
    /// load at dispatch.
    LdC,
    /// Everything else.
    Rst,
}

/// All classes in display order.
pub const TIMING_CLASSES: [TimingClass; 3] = [TimingClass::Ld, TimingClass::LdC, TimingClass::Rst];

impl TimingClass {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            TimingClass::Ld => "Ld",
            TimingClass::LdC => "LdC",
            TimingClass::Rst => "Rst",
        }
    }
}

/// Accumulated decode→dispatch→ready→issue delays per class.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimingBreakdown {
    sums: [[u64; 3]; 3], // [class][segment]
    counts: [u64; 3],
}

impl TimingBreakdown {
    fn idx(c: TimingClass) -> usize {
        match c {
            TimingClass::Ld => 0,
            TimingClass::LdC => 1,
            TimingClass::Rst => 2,
        }
    }

    /// Records one committed μop's delays.
    pub fn record(
        &mut self,
        class: TimingClass,
        decode: u64,
        dispatch: u64,
        ready: u64,
        issue: u64,
    ) {
        let i = Self::idx(class);
        debug_assert!(decode <= dispatch && dispatch <= issue);
        let ready = ready.clamp(dispatch, issue);
        self.sums[i][0] += dispatch - decode;
        self.sums[i][1] += ready - dispatch;
        self.sums[i][2] += issue - ready;
        self.counts[i] += 1;
    }

    /// Average `(decode→dispatch, dispatch→ready, ready→issue)` cycles
    /// for a class.
    pub fn avg(&self, class: TimingClass) -> (f64, f64, f64) {
        let i = Self::idx(class);
        let n = self.counts[i].max(1) as f64;
        (
            self.sums[i][0] as f64 / n,
            self.sums[i][1] as f64 / n,
            self.sums[i][2] as f64 / n,
        )
    }

    /// Average over all classes combined.
    pub fn avg_all(&self) -> (f64, f64, f64) {
        let n: u64 = self.counts.iter().sum();
        let n = n.max(1) as f64;
        let seg = |s: usize| self.sums.iter().map(|row| row[s]).sum::<u64>() as f64 / n;
        (seg(0), seg(1), seg(2))
    }

    /// Committed μops recorded for a class.
    pub fn count(&self, class: TimingClass) -> u64 {
        self.counts[Self::idx(class)]
    }
}

/// Destructures `$value` (a reference) as `$T`, naming every field — no
/// `..`, so a field added to `$T` does not compile until it is listed —
/// and appends the counters to `$w` in the listed order, then the
/// counters of each nested struct after the `;`.
macro_rules! push_words {
    ($w:ident, $value:expr => $T:ident {
        $($field:ident),+ $(,)?
        $(; $($nested:ident: $N:ident { $($inner:tt)+ }),+ $(,)?)?
    }) => {{
        let $T { $($field,)+ $($($nested,)+)? } = $value;
        $w.extend([$(*$field as u64),+]);
        $($(push_words! { $w, $nested => $N { $($inner)+ } })+)?
    }};
}

/// The complete result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Scheduler name (e.g. `"ooo"`, `"ballerino-12"`).
    pub scheduler: String,
    /// Workload name.
    pub workload: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// μops committed.
    pub committed: u64,
    /// Branch mispredictions observed.
    pub mispredicts: u64,
    /// Memory-order violation squashes.
    pub violations: u64,
    /// Dispatch-stall cycles (scheduler refused).
    pub dispatch_stalls: u64,
    /// Dispatch slots lost per structural reason:
    /// `[rob, lq, sq, regs, sched]`.
    pub stall_reasons: [u64; 5],
    /// Per-class scheduling-delay breakdown.
    pub timing: TimingBreakdown,
    /// Which structure issued each μop.
    pub issue_breakdown: IssueBreakdown,
    /// Steering outcomes (CES/Ballerino).
    pub steer: SteerStats,
    /// P-IQ head states (CES/Ballerino).
    pub heads: HeadStateStats,
    /// Memory hierarchy statistics.
    pub mem: MemStats,
    /// Energy micro-events.
    pub energy: EnergyEvents,
    /// Structure sizes for the energy model's leakage terms.
    pub sizes: StructureSizes,
    /// Core frequency (GHz) the run represents.
    pub freq_ghz: f64,
    /// Host wall-clock seconds the simulation itself took (throughput
    /// instrumentation; excludes trace generation).
    pub host_wall_s: f64,
    /// Cycles the event-horizon engine fast-forwarded instead of stepping
    /// (throughput instrumentation; a subset of `cycles`). Always zero
    /// when `skip_idle` is off.
    pub cycles_skipped: u64,
}

impl SimResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Wall-clock seconds at the configured frequency.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Speedup versus a baseline run of the same workload, in execution
    /// time (accounts for frequency differences).
    pub fn speedup_over(&self, base: &SimResult) -> f64 {
        base.seconds() / self.seconds()
    }

    /// Simulator throughput: committed μops per host wall-clock second.
    pub fn sim_uops_per_sec(&self) -> f64 {
        if self.host_wall_s > 0.0 {
            self.committed as f64 / self.host_wall_s
        } else {
            0.0
        }
    }

    /// Simulator throughput: simulated cycles per host wall-clock second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.host_wall_s > 0.0 {
            self.cycles as f64 / self.host_wall_s
        } else {
            0.0
        }
    }

    /// Every simulated statistic of the run as one flat word list, in a
    /// fixed order: the input of the harness's result digests and
    /// goldens. Only the host-side instrumentation (`host_wall_s`,
    /// `cycles_skipped`) is left out, so a change that merely makes the
    /// simulator faster keeps every word.
    ///
    /// Every struct is destructured without `..`: a new statistic field
    /// does not compile until it is listed here.
    pub fn stat_words(&self) -> Vec<u64> {
        let SimResult {
            scheduler,
            workload,
            cycles,
            committed,
            mispredicts,
            violations,
            dispatch_stalls,
            stall_reasons,
            timing: TimingBreakdown { sums, counts },
            issue_breakdown,
            steer,
            heads,
            mem,
            energy,
            sizes,
            freq_ghz,
            host_wall_s: _,
            cycles_skipped: _,
        } = self;
        let mut w = vec![
            *cycles,
            *committed,
            *mispredicts,
            *violations,
            *dispatch_stalls,
        ];
        w.extend(stall_reasons);
        w.extend(sums.iter().flatten());
        w.extend(counts);
        push_words! { w, issue_breakdown => IssueBreakdown {
            from_siq, from_piq, from_inorder, from_ooo, from_ixu,
        } }
        push_words! { w, steer => SteerStats {
            steer_dc, alloc_ready, alloc_nonready, stall_ready, stall_nonready, spec_issue,
            steer_shared,
        } }
        push_words! { w, heads => HeadStateStats {
            issuing, stall_mdep_load, stall_nonready, stall_port_conflict, empty,
        } }
        push_words! { w, mem => MemStats { hits_l1, hits_l2, hits_l3, hits_mem, prefetches } }
        push_words! { w, energy => EnergyEvents {
            cycles, fetched_uops, decoded_uops, l1i_accesses, bp_lookups, rename_lookups,
            rename_writes, mdp_lookups, mdp_updates, rob_writes, rob_reads, lsq_searches,
            lsq_writes, prf_reads, prf_writes, l1d_accesses, l2_accesses, l3_accesses,
            dram_accesses;
            sched: SchedEnergyEvents {
                cam_broadcasts, cam_entries_searched, select_inputs, queue_writes, queue_reads,
                head_examinations, copies, steer_ops, loc_reads, loc_writes,
            },
            fu: FuOpCounts { ialu, imul, idiv, fadd, fmul, fdiv, agu, branch },
        } }
        push_words! { w, sizes => StructureSizes {
            cam_entries, fifo_entries, rob_entries, lsq_entries, prf_entries, has_steer, has_mdp,
        } }
        w.push(freq_ghz.to_bits());
        // The names go last, so the variable-length tail never shifts a
        // statistic's position.
        for name in [scheduler, workload] {
            // Length first, then the bytes packed eight to a word.
            w.push(name.len() as u64);
            w.extend(name.as_bytes().chunks(8).map(|c| {
                let mut b = [0u8; 8];
                b[..c.len()].copy_from_slice(c);
                u64::from_le_bytes(b)
            }));
        }
        w
    }
}

/// Geometric mean over a slice of positive values.
pub fn geomean(vals: &[f64]) -> f64 {
    assert!(!vals.is_empty(), "geomean of empty slice");
    let s: f64 = vals.iter().map(|v| v.ln()).sum();
    (s / vals.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_breakdown_averages_segments() {
        let mut t = TimingBreakdown::default();
        t.record(TimingClass::Ld, 0, 2, 5, 9);
        t.record(TimingClass::Ld, 10, 12, 12, 14);
        let (d2d, d2r, r2i) = t.avg(TimingClass::Ld);
        assert_eq!(d2d, 2.0);
        assert_eq!(d2r, 1.5);
        assert_eq!(r2i, 3.0);
        assert_eq!(t.count(TimingClass::Ld), 2);
    }

    #[test]
    fn ready_is_clamped_into_dispatch_issue_range() {
        let mut t = TimingBreakdown::default();
        // Ready before dispatch (ready-at-dispatch μop).
        t.record(TimingClass::Rst, 0, 4, 1, 6);
        let (_, d2r, r2i) = t.avg(TimingClass::Rst);
        assert_eq!(d2r, 0.0);
        assert_eq!(r2i, 2.0);
    }

    /// One `(name, mutation)` pair per listed field path, each mutation
    /// adding one to that field.
    macro_rules! bumps {
        ($($head:ident $(.$field:ident)* $([$i:literal])*),+ $(,)?) => {
            vec![$((
                stringify!($head $(.$field)* $([$i])*),
                (|r: &mut SimResult| r.$head $(.$field)* $([$i])* += 1) as fn(&mut SimResult),
            )),+]
        };
    }

    #[test]
    fn stat_words_change_with_every_statistic() {
        let trace = ballerino_workloads::workload("int_crunch", 500, 1);
        let base = crate::run_machine(crate::MachineKind::Ballerino, crate::Width::Four, &trace);
        let words = base.stat_words();
        let mut mutations = bumps! {
            cycles, committed, mispredicts, violations, dispatch_stalls,
            stall_reasons[0], stall_reasons[1], stall_reasons[2], stall_reasons[3],
            stall_reasons[4],
            timing.sums[0][0], timing.sums[0][1], timing.sums[0][2],
            timing.sums[1][0], timing.sums[1][1], timing.sums[1][2],
            timing.sums[2][0], timing.sums[2][1], timing.sums[2][2],
            timing.counts[0], timing.counts[1], timing.counts[2],
            issue_breakdown.from_siq, issue_breakdown.from_piq, issue_breakdown.from_inorder,
            issue_breakdown.from_ooo, issue_breakdown.from_ixu,
            steer.steer_dc, steer.alloc_ready, steer.alloc_nonready, steer.stall_ready,
            steer.stall_nonready, steer.spec_issue, steer.steer_shared,
            heads.issuing, heads.stall_mdep_load, heads.stall_nonready,
            heads.stall_port_conflict, heads.empty,
            mem.hits_l1, mem.hits_l2, mem.hits_l3, mem.hits_mem, mem.prefetches,
            energy.cycles, energy.fetched_uops, energy.decoded_uops, energy.l1i_accesses,
            energy.bp_lookups, energy.rename_lookups, energy.rename_writes,
            energy.mdp_lookups, energy.mdp_updates, energy.rob_writes, energy.rob_reads,
            energy.lsq_searches, energy.lsq_writes, energy.prf_reads, energy.prf_writes,
            energy.l1d_accesses, energy.l2_accesses, energy.l3_accesses,
            energy.dram_accesses,
            energy.sched.cam_broadcasts, energy.sched.cam_entries_searched,
            energy.sched.select_inputs, energy.sched.queue_writes, energy.sched.queue_reads,
            energy.sched.head_examinations, energy.sched.copies, energy.sched.steer_ops,
            energy.sched.loc_reads, energy.sched.loc_writes,
            energy.fu.ialu, energy.fu.imul, energy.fu.idiv, energy.fu.fadd, energy.fu.fmul,
            energy.fu.fdiv, energy.fu.agu, energy.fu.branch,
            sizes.cam_entries, sizes.fifo_entries, sizes.rob_entries, sizes.lsq_entries,
            sizes.prf_entries,
        };
        mutations.extend([
            (
                "sizes.has_steer",
                (|r| r.sizes.has_steer ^= true) as fn(&mut SimResult),
            ),
            ("sizes.has_mdp", |r| r.sizes.has_mdp ^= true),
            ("freq_ghz", |r| r.freq_ghz += 0.1),
            ("scheduler", |r| r.scheduler.insert(0, 'x')),
            ("workload", |r| r.workload.insert(0, 'x')),
        ]);
        // Every mutation changes the words, and together they touch
        // every word position: a statistic added to `stat_words` without
        // a mutation here leaves a position uncovered.
        let mut touched = vec![false; words.len()];
        for (name, mutate) in mutations {
            let mut r = base.clone();
            mutate(&mut r);
            let got = r.stat_words();
            assert_ne!(got, words, "{name} does not reach stat_words");
            for (i, (a, b)) in got.iter().zip(&words).enumerate() {
                touched[i] |= a != b;
            }
        }
        let untouched: Vec<usize> = (0..words.len()).filter(|&i| !touched[i]).collect();
        assert!(
            untouched.is_empty(),
            "word positions no mutation reaches: {untouched:?}"
        );

        // Host-side instrumentation stays out.
        let mut r = base.clone();
        r.host_wall_s += 9.0;
        r.cycles_skipped += 1;
        assert_eq!(r.stat_words(), words);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geomean_empty_panics() {
        let _ = geomean(&[]);
    }
}
