//! The seed's pipeline-state layout, kept as a reference model.
//!
//! This is the pre-refactor [`Core`](crate::core::Core): identical cycle
//! semantics, but in-flight state lives in `HashMap`/`HashSet`
//! structures and the issue path allocates fresh buffers every cycle.
//! The production core replaced those with the sequence-indexed
//! [`SeqSlab`](crate::slab::SeqSlab), a dense taint vector, waiter lists
//! folded into each store's entry, and reused scratch buffers.
//!
//! It exists for exactly two purposes, both exercised by the
//! `perf_smoke` bench binary:
//!
//! 1. **Equivalence**: the refactor is a pure performance change, so the
//!    reference and production cores must report byte-identical cycle
//!    counts on every workload.
//! 2. **Throughput A/B**: the measured speedup of the production core
//!    over this reference is the data-layout half of the
//!    `BENCH_simthroughput.json` trajectory.
//!
//! Only the adaptations needed to share today's interfaces were made
//! (the scheduler contract takes [`HeldSet`] and [`SimResult`] carries
//! `host_wall_s`); the data layout is the seed's.

use crate::config::CoreConfig;
use crate::stats::{SimResult, TimingBreakdown, TimingClass};
use ballerino_energy::{EnergyEvents, StructureSizes};
use ballerino_frontend::{Btb, RenamedOp, Renamer, Tage};
use ballerino_isa::{MicroOp, OpClass, Trace};
use ballerino_mem::lsq::{Forward, MemRange};
use ballerino_mem::{AccessKind, Hierarchy, LoadQueue, Mdp, MdpConfig, StoreQueue};
use ballerino_sched::ports::PortArbiter;
use ballerino_sched::{
    DispatchOutcome, FuBusy, HeldSet, PortAlloc, ReadyCtx, SchedUop, Scheduler, Scoreboard,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Store-to-load forwarding latency (cycles after AGU).
const FORWARD_LATENCY: u64 = 3;

#[derive(Debug)]
struct Inflight {
    op: MicroOp,
    trace_idx: usize,
    renamed: RenamedOp,
    uop: SchedUop,
    decode_cycle: u64,
    dispatch_cycle: u64,
    issue_cycle: Option<u64>,
    complete_at: Option<u64>,
    completed: bool,
    class: TimingClass,
    mispredicted: bool,
    ready_cycle: u64,
}

#[derive(Debug)]
struct Prepared {
    seq: u64,
    uop: SchedUop,
}

/// The reference core: seed data layout, production semantics.
pub struct CoreRef {
    cfg: CoreConfig,
    sched: Box<dyn Scheduler>,
    sizes: StructureSizes,

    cycle: u64,
    next_seq: u64,

    renamer: Renamer,
    scb: Scoreboard,
    rob: VecDeque<u64>,
    inflight: HashMap<u64, Inflight>,
    pending: Option<Prepared>,

    alloc_q: VecDeque<(usize, u64, bool)>,
    fetch_idx: usize,
    fetch_resume_at: u64,
    fetch_stalled: bool,
    /// Cache line currently streaming out of the L1I.
    fetch_line: Option<u64>,

    tage: Tage,
    btb: Btb,
    hier: Hierarchy,
    lq: LoadQueue,
    sq: StoreQueue,
    mdp: Option<Mdp>,
    held: HeldSet,
    waiters: HashMap<u64, Vec<u64>>,
    arbiter: PortArbiter,
    fu_busy: FuBusy,
    events: BinaryHeap<Reverse<(u64, u64)>>,
    taint: HashMap<u32, u64>,

    committed: u64,
    mispredicts: u64,
    stall_reasons: [u64; 5],
    violations: u64,
    dispatch_stalls: u64,
    timing: TimingBreakdown,
    energy: EnergyEvents,
}

impl CoreRef {
    /// Builds a core around a scheduler.
    pub fn new(cfg: CoreConfig, sched: Box<dyn Scheduler>, sizes: StructureSizes) -> Self {
        let renamer = Renamer::new(cfg.int_regs, cfg.fp_regs);
        let scb = Scoreboard::new(renamer.total_phys());
        let hier = Hierarchy::new(&cfg.mem);
        let lq = LoadQueue::new(cfg.lq_entries);
        let sq = StoreQueue::new(cfg.sq_entries);
        let mdp = if cfg.use_mdp {
            Some(Mdp::new(MdpConfig::default()))
        } else {
            None
        };
        let arbiter = PortArbiter::new(cfg.port_map.clone());
        CoreRef {
            cfg,
            sched,
            sizes,
            cycle: 0,
            next_seq: 1,
            renamer,
            scb,
            rob: VecDeque::new(),
            inflight: HashMap::new(),
            pending: None,
            alloc_q: VecDeque::new(),
            fetch_idx: 0,
            fetch_resume_at: 0,
            fetch_stalled: false,
            fetch_line: None,
            tage: Tage::new(),
            btb: Btb::default(),
            hier,
            lq,
            sq,
            mdp,
            held: HeldSet::new(),
            waiters: HashMap::new(),
            arbiter,
            fu_busy: FuBusy::new(),
            events: BinaryHeap::new(),
            taint: HashMap::new(),
            committed: 0,
            mispredicts: 0,
            stall_reasons: [0; 5],
            violations: 0,
            dispatch_stalls: 0,
            timing: TimingBreakdown::default(),
            energy: EnergyEvents::default(),
        }
    }

    /// Runs the trace to completion and returns the results.
    ///
    /// # Panics
    ///
    /// Panics if the machine stops making progress (a scheduler deadlock
    /// is always a bug, never a valid outcome).
    pub fn run(mut self, trace: &Trace) -> SimResult {
        let started = std::time::Instant::now();
        let target = trace.len() as u64;
        let max_cycles = 600 * target + 200_000;
        while self.committed < target {
            self.step(trace);
            if self.cycle >= max_cycles {
                let head = self.rob.front().map(|s| {
                    let i = &self.inflight[s];
                    format!(
                        "seq={} class={:?} port={} issued={:?} complete={:?} held={} srcs_ready={} mdp_wait={:?}",
                        s, i.uop.class, i.uop.port, i.issue_cycle, i.complete_at,
                        self.held.contains(*s),
                        self.scb.srcs_ready(&i.uop.srcs, self.cycle),
                        i.uop.mdp_wait,
                    )
                });
                panic!(
                    "no forward progress: {} committed of {target} after {} cycles (sched {}, wl {}); rob head: {head:?}; occupancy {}/{}; held {}",
                    self.committed, self.cycle, self.sched.name(), trace.name,
                    self.sched.occupancy(), self.sched.capacity(), self.held.len(),
                );
            }
        }
        let mut result = self.finish(trace);
        result.host_wall_s = started.elapsed().as_secs_f64();
        result
    }

    fn step(&mut self, trace: &Trace) {
        self.writeback();
        self.commit();
        self.issue_stage();
        self.dispatch(trace);
        self.fetch(trace);
        self.cycle += 1;
    }

    // ---------------------------------------------------------- writeback
    fn writeback(&mut self) {
        while let Some(&Reverse((t, seq))) = self.events.peek() {
            if t > self.cycle {
                break;
            }
            self.events.pop();
            let Some(inf) = self.inflight.get_mut(&seq) else {
                continue;
            };
            inf.completed = true;
            if let Some(d) = inf.uop.dst {
                self.energy.prf_writes += 1;
                self.sched.on_complete(d);
            }
            if inf.op.is_branch() && inf.mispredicted {
                // Resolution redirects the front end after the recovery
                // penalty (Table I).
                self.fetch_stalled = false;
                self.fetch_resume_at = self.cycle + self.cfg.recovery_penalty;
            }
        }
    }

    // ------------------------------------------------------------- commit
    fn commit(&mut self) {
        for _ in 0..self.cfg.issue_width {
            let Some(&seq) = self.rob.front() else { break };
            let done = {
                let inf = &self.inflight[&seq];
                inf.completed && inf.complete_at.map(|t| t <= self.cycle).unwrap_or(false)
            };
            if !done {
                break;
            }
            self.rob.pop_front();
            let inf = self.inflight.remove(&seq).expect("committing inflight");
            self.energy.rob_reads += 1;
            if let Some(prev) = inf.renamed.prev_dst {
                self.renamer.release(prev);
                self.taint.remove(&prev.raw());
            }
            if inf.op.is_load() {
                self.lq.release(seq);
            }
            if inf.op.is_store() {
                self.sq.release(seq);
                // The store writes the cache at commit.
                if let Some(m) = inf.op.mem {
                    let _ = self
                        .hier
                        .access(m.addr, inf.op.pc, self.cycle, AccessKind::Store);
                }
            }
            self.timing.record(
                inf.class,
                inf.decode_cycle,
                inf.dispatch_cycle,
                inf.ready_cycle,
                inf.issue_cycle.expect("committed ⇒ issued"),
            );
            self.committed += 1;
        }
    }

    // -------------------------------------------------------------- issue
    fn issue_stage(&mut self) {
        let mut out = Vec::new();
        {
            let ctx = ReadyCtx {
                cycle: self.cycle,
                scb: &self.scb,
                held: &self.held,
            };
            let mut ports = PortAlloc::new(
                self.cfg.port_map.num_ports(),
                self.cfg.issue_width,
                &self.fu_busy,
                self.cycle,
            );
            self.sched.issue(&ctx, &mut ports, &mut out);
        }
        out.sort_unstable();
        for seq in out {
            if !self.inflight.contains_key(&seq) {
                continue; // flushed by an earlier violation in this batch
            }
            self.process_issue(seq);
        }
    }

    /// Executes one issued μop: computes its completion time, updates the
    /// LSQ/scoreboard, and handles violations and MDP releases.
    fn process_issue(&mut self, seq: u64) {
        let cycle = self.cycle;
        let (op, uop, trace_idx) = {
            let inf = self.inflight.get_mut(&seq).expect("issued inflight");
            debug_assert!(inf.issue_cycle.is_none(), "double issue of {seq}");
            inf.issue_cycle = Some(cycle);
            (inf.op.clone(), inf.uop, inf.trace_idx)
        };
        let _ = trace_idx;
        self.arbiter.release(uop.port);
        self.energy.prf_reads += uop.srcs.iter().flatten().count() as u64;
        self.energy.fu.record(uop.class);

        let completion = match uop.class {
            OpClass::Load => {
                let m = op.mem.expect("load has mem info");
                let range = MemRange {
                    addr: m.addr,
                    size: m.size.get(),
                };
                self.energy.lsq_searches += 1;
                let fwd = self.sq.forward_source(seq, range);
                let done = match fwd {
                    Forward::FromStore { .. } => cycle + 1 + FORWARD_LATENCY,
                    Forward::FromCache => {
                        let (done, _) =
                            self.hier.access(m.addr, op.pc, cycle + 1, AccessKind::Load);
                        done
                    }
                };
                let fwd_from = match fwd {
                    Forward::FromStore { store_seq } => Some(store_seq),
                    Forward::FromCache => None,
                };
                self.lq.set_executed(seq, range, fwd_from);
                self.energy.lsq_writes += 1;
                done
            }
            OpClass::Store => {
                let m = op.mem.expect("store has mem info");
                let range = MemRange {
                    addr: m.addr,
                    size: m.size.get(),
                };
                self.sq.set_addr(seq, range);
                self.energy.lsq_writes += 1;
                self.energy.lsq_searches += 1;
                let violation = self.lq.violation_on_store(seq, range);

                // Release MDP waiters: the store has issued.
                if let Some(mdp) = self.mdp.as_mut() {
                    if let Some(ssid) = uop.ssid {
                        mdp.on_store_issued(ssid, seq);
                    }
                }
                if let Some(ws) = self.waiters.remove(&seq) {
                    for w in ws {
                        self.held.remove(w);
                        if let Some(wi) = self.inflight.get_mut(&w) {
                            wi.ready_cycle = wi.ready_cycle.max(cycle + 1);
                        }
                    }
                }

                if let Some((load_seq, load_pc)) = violation {
                    self.squash_from(load_seq, op.pc, load_pc);
                }
                cycle + 1
            }
            other => cycle + other.exec_latency() as u64,
        };

        // The violation squash may have flushed this store? Never: the
        // squash point is a *younger* load. The store itself survives.
        let Some(inf) = self.inflight.get_mut(&seq) else {
            return;
        };
        inf.complete_at = Some(completion);
        inf.ready_cycle = inf
            .ready_cycle
            .max(self.scb.srcs_ready_cycle(&uop.srcs).min(cycle));
        if uop.class.unpipelined() {
            self.fu_busy
                .reserve(uop.port, uop.class, cycle + uop.class.exec_latency() as u64);
        }
        if let Some(d) = uop.dst {
            self.scb.set_ready_at(d, completion);
        }
        self.events.push(Reverse((completion, seq)));
    }

    // ----------------------------------------------------------- dispatch
    fn dispatch(&mut self, trace: &Trace) {
        for _ in 0..self.cfg.front_width {
            // Retry a previously prepared-but-stalled μop first.
            if let Some(p) = self.pending.take() {
                match self.offer(p) {
                    Some(p) => {
                        self.pending = Some(p);
                        self.dispatch_stalls += 1;
                        self.stall_reasons[4] += 1;
                        return;
                    }
                    None => continue,
                }
            }
            let Some(&(trace_idx, decode_cycle, mispred)) = self.alloc_q.front() else {
                return;
            };
            if decode_cycle + self.cfg.rename_latency > self.cycle {
                return;
            }
            let op = &trace.ops[trace_idx];
            // Structural resources checked before renaming.
            if self.rob.len() >= self.cfg.rob_entries {
                self.stall_reasons[0] += 1;
                return;
            }
            if op.is_load() && !self.lq.has_space() {
                self.stall_reasons[1] += 1;
                return;
            }
            if op.is_store() && !self.sq.has_space() {
                self.stall_reasons[2] += 1;
                return;
            }
            let Some(prepared) = self.prepare(trace_idx, decode_cycle, mispred, op.clone()) else {
                self.stall_reasons[3] += 1;
                return; // out of physical registers; retry next cycle
            };
            self.alloc_q.pop_front();
            // Frozen reference path: kept verbatim rather than reshaped
            // into `if let`.
            #[allow(clippy::single_match)]
            match self.offer(prepared) {
                Some(p) => {
                    self.pending = Some(p);
                    self.dispatch_stalls += 1;
                    return;
                }
                None => {}
            }
        }
    }

    /// Renames one μop and builds its scheduler view. Returns `None` when
    /// the free list is empty (nothing is consumed).
    fn prepare(
        &mut self,
        trace_idx: usize,
        decode_cycle: u64,
        mispredicted: bool,
        op: MicroOp,
    ) -> Option<Prepared> {
        let renamed = self.renamer.rename(&op).ok()?;
        let seq = self.next_seq;
        self.next_seq += 1;

        self.energy.rename_lookups += (op.num_srcs() + op.dst.is_some() as usize) as u64;
        if op.dst.is_some() {
            self.energy.rename_writes += 1;
        }
        if let Some(d) = renamed.dst {
            self.scb.allocate(d);
        }

        // MDP advice: store sets serialize loads (and stores) behind the
        // last in-flight store of their set.
        let mut ssid = None;
        let mut mdp_wait = None;
        if let Some(mdp) = self.mdp.as_mut() {
            if op.is_load() {
                self.energy.mdp_lookups += 1;
                let a = mdp.on_rename_load(op.pc);
                ssid = a.ssid;
                mdp_wait = a.wait_for;
            } else if op.is_store() {
                self.energy.mdp_lookups += 1;
                self.energy.mdp_updates += 1;
                let a = mdp.on_rename_store(op.pc, seq);
                ssid = a.ssid;
                mdp_wait = a.wait_for;
            }
        }
        // Only hold on stores that are still in flight and un-issued.
        if let Some(ws) = mdp_wait {
            let store_pending = self
                .inflight
                .get(&ws)
                .map(|i| i.issue_cycle.is_none())
                .unwrap_or(false);
            if store_pending {
                self.held.insert(seq);
                self.waiters.entry(ws).or_default().push(seq);
            } else {
                mdp_wait = None;
            }
        }

        // Fig. 3c class: Ld / LdC / Rst via load-taint propagation.
        let class = if op.is_load() {
            TimingClass::Ld
        } else {
            let tainted = renamed.srcs.iter().flatten().any(|s| {
                self.taint
                    .get(&s.raw())
                    .map(|lseq| {
                        self.inflight
                            .get(lseq)
                            .map(|i| !i.completed)
                            .unwrap_or(false)
                    })
                    .unwrap_or(false)
            });
            if tainted {
                TimingClass::LdC
            } else {
                TimingClass::Rst
            }
        };
        if let Some(d) = renamed.dst {
            if op.is_load() {
                self.taint.insert(d.raw(), seq);
            } else if class == TimingClass::LdC {
                let inherited = renamed
                    .srcs
                    .iter()
                    .flatten()
                    .find_map(|s| self.taint.get(&s.raw()).copied());
                if let Some(l) = inherited {
                    self.taint.insert(d.raw(), l);
                } else {
                    self.taint.remove(&d.raw());
                }
            } else {
                self.taint.remove(&d.raw());
            }
        }

        let port = self.arbiter.assign_reference(op.class);
        let uop = SchedUop {
            seq,
            pc: op.pc,
            class: op.class,
            port,
            srcs: renamed.srcs,
            dst: renamed.dst,
            ssid,
            mdp_wait,
            load_dep: class == TimingClass::LdC,
        };
        let inf = Inflight {
            op,
            trace_idx,
            renamed,
            uop,
            decode_cycle,
            dispatch_cycle: 0,
            issue_cycle: None,
            complete_at: None,
            completed: false,
            class,
            mispredicted,
            ready_cycle: 0,
        };
        self.inflight.insert(seq, inf);
        Some(Prepared { seq, uop })
    }

    /// Offers a prepared μop to the scheduler; returns it back on stall.
    fn offer(&mut self, p: Prepared) -> Option<Prepared> {
        let outcome = {
            let ctx = ReadyCtx {
                cycle: self.cycle,
                scb: &self.scb,
                held: &self.held,
            };
            self.sched.try_dispatch(p.uop, &ctx)
        };
        match outcome {
            DispatchOutcome::Stall(_) => return Some(p),
            DispatchOutcome::Accepted | DispatchOutcome::AcceptedIssued => {}
        }
        let seq = p.seq;
        self.rob.push_back(seq);
        self.energy.rob_writes += 1;
        {
            let inf = self.inflight.get_mut(&seq).expect("prepared inflight");
            inf.dispatch_cycle = self.cycle;
            if inf.op.is_load() {
                let ok = self.lq.allocate(seq, inf.op.pc);
                debug_assert!(ok, "LQ space checked at prepare");
                self.energy.lsq_writes += 1;
            }
            if inf.op.is_store() {
                let ok = self.sq.allocate(seq, inf.op.pc);
                debug_assert!(ok, "SQ space checked at prepare");
                self.energy.lsq_writes += 1;
            }
        }
        if outcome == DispatchOutcome::AcceptedIssued {
            self.process_issue(seq);
        }
        None
    }

    // -------------------------------------------------------------- fetch
    fn fetch(&mut self, trace: &Trace) {
        if self.fetch_stalled || self.cycle < self.fetch_resume_at {
            return;
        }
        let mut fetched = 0;
        while fetched < self.cfg.front_width
            && self.alloc_q.len() < self.cfg.alloc_queue
            && self.fetch_idx < trace.len()
        {
            let op = &trace.ops[self.fetch_idx];
            // Instruction-cache access: crossing into a new line consults
            // the L1I; a miss stalls fetch until the line arrives.
            let line = op.pc / 64;
            if self.fetch_line != Some(line) {
                let ready = self.hier.ifetch(op.pc, self.cycle);
                self.fetch_line = Some(line);
                if ready > self.cycle + self.hier.l1i.latency() {
                    self.fetch_resume_at = ready;
                    break;
                }
            }
            let mut mispred = false;
            if let Some(b) = op.branch {
                self.energy.bp_lookups += 1;
                let pred = self.tage.predict(op.pc);
                let dir_correct = self.tage.update(op.pc, pred, b.taken);
                let target_pred = self.btb.lookup(op.pc);
                self.btb.update(op.pc, b.target);
                mispred = !dir_correct || (b.taken && target_pred != Some(b.target));
                if mispred {
                    self.mispredicts += 1;
                }
            }
            self.alloc_q
                .push_back((self.fetch_idx, self.cycle, mispred));
            self.energy.fetched_uops += 1;
            self.energy.decoded_uops += 1;
            self.fetch_idx += 1;
            fetched += 1;
            if mispred {
                // Wrong-path fetch is not simulated: the front end waits
                // for the branch to resolve.
                self.fetch_stalled = true;
                break;
            }
        }
        if fetched > 0 {
            self.energy.l1i_accesses += 1;
        }
    }

    // -------------------------------------------------------------- squash
    /// Flushes every μop with `seq >= first_bad` (the violating load and
    /// everything younger), restores the RAT by walking the ROB tail
    /// first, trains the MDP, and redirects fetch.
    fn squash_from(&mut self, first_bad: u64, store_pc: u64, load_pc: u64) {
        self.violations += 1;
        let cycle = self.cycle;
        let flush_upto = first_bad - 1;
        let mut dests = Vec::new();
        let mut refetch_idx = None;

        // The pending (renamed but un-dispatched) μop is the youngest.
        if let Some(p) = self.pending.take() {
            if p.seq >= first_bad {
                let inf = self.inflight.remove(&p.seq).expect("pending inflight");
                self.rollback_one(&inf, &mut dests);
                refetch_idx = Some(inf.trace_idx);
            } else {
                self.pending = Some(p);
            }
        }

        while let Some(&back) = self.rob.back() {
            if back < first_bad {
                break;
            }
            self.rob.pop_back();
            let inf = self.inflight.remove(&back).expect("rob entry inflight");
            self.rollback_one(&inf, &mut dests);
            refetch_idx = Some(inf.trace_idx);
        }

        self.sched.flush_after(flush_upto, &dests);
        self.lq.flush_after(flush_upto);
        self.sq.flush_after(flush_upto);
        if let Some(mdp) = self.mdp.as_mut() {
            mdp.flush_after(flush_upto);
            mdp.on_violation(load_pc, store_pc);
            self.energy.mdp_updates += 2;
        }
        self.waiters.retain(|store, _| *store <= flush_upto);

        self.alloc_q.clear();
        self.fetch_idx = refetch_idx.expect("squash flushed at least the load");
        self.fetch_stalled = false;
        self.fetch_resume_at = cycle + self.cfg.recovery_penalty;
    }

    fn rollback_one(&mut self, inf: &Inflight, dests: &mut Vec<ballerino_isa::PhysReg>) {
        self.renamer.rollback(inf.op.dst, &inf.renamed);
        if let Some(d) = inf.renamed.dst {
            self.scb.force_ready(d);
            self.taint.remove(&d.raw());
            dests.push(d);
        }
        if inf.issue_cycle.is_none() {
            self.arbiter.release(inf.uop.port);
        }
        self.held.remove(inf.uop.seq);
        self.energy.rename_writes += 1; // RAT restore
    }

    // -------------------------------------------------------------- finish
    fn finish(mut self, trace: &Trace) -> SimResult {
        self.energy.cycles = self.cycle;
        self.energy.sched = self.sched.energy_events();
        self.energy.l1d_accesses = self.hier.l1d.hits + self.hier.l1d.misses;
        self.energy.l2_accesses = self.hier.l2.hits + self.hier.l2.misses;
        self.energy.l3_accesses = self.hier.l3.hits + self.hier.l3.misses;
        self.energy.dram_accesses = self.hier.dram.row_hits + self.hier.dram.row_misses;

        SimResult {
            scheduler: self.sched.name().to_string(),
            workload: trace.name.clone(),
            cycles: self.cycle,
            committed: self.committed,
            mispredicts: self.mispredicts,
            violations: self.violations,
            dispatch_stalls: self.dispatch_stalls,
            stall_reasons: self.stall_reasons,
            timing: self.timing,
            issue_breakdown: self.sched.issue_breakdown(),
            steer: self.sched.steer_stats(),
            heads: self.sched.head_stats(),
            mem: self.hier.stats,
            energy: self.energy,
            sizes: self.sizes,
            freq_ghz: self.cfg.freq_ghz,
            host_wall_s: 0.0,
            cycles_skipped: 0,
        }
    }
}
