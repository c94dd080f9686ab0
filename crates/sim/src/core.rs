//! The cycle-level core pipeline.
//!
//! Per-cycle stage order (oldest work first, so same-cycle forwarding
//! flows naturally): writeback → commit → issue → dispatch → fetch.

use crate::config::CoreConfig;
use crate::slab::SeqSlab;
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
use std::collections::{BinaryHeap, VecDeque};

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
    /// For stores: loads/stores the MDP serialized behind this store,
    /// released when it issues. Folding the list into the store's own
    /// entry (instead of a side `HashMap<store, Vec<waiter>>`) makes
    /// squash cleanup automatic — flushed stores take their waiter lists
    /// with them.
    waiters: Vec<u64>,
}

#[derive(Debug)]
struct Prepared {
    seq: u64,
    uop: SchedUop,
}

/// A simulated core: configuration + scheduler + all pipeline state.
pub struct Core {
    cfg: CoreConfig,
    sched: Box<dyn Scheduler>,
    sizes: StructureSizes,

    cycle: u64,
    next_seq: u64,

    renamer: Renamer,
    scb: Scoreboard,
    rob: VecDeque<u64>,
    inflight: SeqSlab<Inflight>,
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
    arbiter: PortArbiter,
    fu_busy: FuBusy,
    events: BinaryHeap<Reverse<(u64, u64)>>,
    /// Load-taint table indexed by physical-register number: the seq of
    /// the in-flight load whose value (transitively) feeds the register,
    /// or 0 for untainted (seqs start at 1). Dense because every rename
    /// consults it for each source.
    taint: Vec<u64>,
    /// Scratch buffer for issued seqs, reused across cycles.
    issue_buf: Vec<u64>,

    committed: u64,
    mispredicts: u64,
    /// Cycles fast-forwarded by the event-horizon engine.
    cycles_skipped: u64,
    /// The last horizon the event-horizon engine jumped to (diagnostic
    /// context for the no-forward-progress panic).
    last_skip_horizon: u64,
    stall_reasons: [u64; 5],
    violations: u64,
    dispatch_stalls: u64,
    timing: TimingBreakdown,
    energy: EnergyEvents,
}

impl Core {
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
        let total_phys = renamer.total_phys();
        let arbiter = PortArbiter::new(cfg.port_map.clone());
        Core {
            cfg,
            sched,
            sizes,
            cycle: 0,
            next_seq: 1,
            renamer,
            scb,
            rob: VecDeque::new(),
            inflight: SeqSlab::new(),
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
            arbiter,
            fu_busy: FuBusy::new(),
            events: BinaryHeap::new(),
            taint: vec![0; total_phys],
            issue_buf: Vec::new(),
            committed: 0,
            mispredicts: 0,
            cycles_skipped: 0,
            last_skip_horizon: 0,
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
            if self.cfg.skip_idle {
                self.try_skip(trace, max_cycles);
            }
            self.step(trace);
            if self.cycle >= max_cycles {
                let head = self.rob.front().map(|s| {
                    let i = self.inflight.get(*s).expect("rob head inflight");
                    format!(
                        "seq={} class={:?} port={} issued={:?} complete={:?} held={} srcs_ready={} mdp_wait={:?}",
                        s, i.uop.class, i.uop.port, i.issue_cycle, i.complete_at,
                        self.held.contains(*s),
                        self.scb.srcs_ready(&i.uop.srcs, self.cycle),
                        i.uop.mdp_wait,
                    )
                });
                let loc = self.rob.front().map(|s| self.sched.debug_locate(*s));
                panic!(
                    "no forward progress: {} committed of {target} after {} cycles (sched {}, wl {}); rob head: {head:?}; locate: {loc:?}; occupancy {}/{}; held {}; cycles_skipped {}; last skip horizon {}",
                    self.committed, self.cycle, self.sched.name(), trace.name,
                    self.sched.occupancy(), self.sched.capacity(), self.held.len(),
                    self.cycles_skipped, self.last_skip_horizon,
                );
            }
        }
        let mut result = self.finish(trace);
        result.host_wall_s = started.elapsed().as_secs_f64();
        result
    }

    // ------------------------------------------------------ event horizon
    /// Fast-forwards `cycle` across a provably idle stretch.
    ///
    /// A cycle is *idle* when every stage would do nothing but
    /// deterministic bookkeeping: no completion event fires, the ROB head
    /// cannot commit, the scheduler is quiesced (its
    /// [`Scheduler::next_event_cycle`] contract), dispatch is stalled for
    /// a reason that cannot clear on its own, and fetch is stalled or
    /// drained. The earliest cycle at which any of those change is the
    /// *event horizon*; the skipped cycles' bookkeeping (stall counters,
    /// scheduler energy/head-state accounting) is replayed in closed form
    /// via [`Scheduler::note_idle_cycles`], so results are byte-identical
    /// to stepping every cycle. See ARCHITECTURE.md, "The quiesce
    /// contract".
    fn try_skip(&mut self, trace: &Trace, max_cycles: u64) {
        enum StallKind {
            /// A prepared μop is retrying dispatch each cycle.
            Pending,
            /// The alloc-queue head is blocked on `stall_reasons[i]`.
            Structural(usize),
            /// Nothing reaches the dispatch checks (empty or decode-gated).
            Idle,
        }

        let c0 = self.cycle;
        let mut horizon = u64::MAX;

        // Writeback: the earliest queued completion bounds the horizon; a
        // due event means this cycle is not idle.
        if let Some(&Reverse((t, _))) = self.events.peek() {
            if t <= c0 {
                return;
            }
            horizon = t;
        }

        // Commit: a completed ROB head would retire this cycle. (Completed
        // implies its event already fired, so the horizon needs no extra
        // bound here; issued-but-incomplete μops are covered by `events`.)
        if let Some(&seq) = self.rob.front() {
            let inf = self.inflight.get(seq).expect("rob head inflight");
            if inf.completed && inf.complete_at.map(|t| t <= c0).unwrap_or(false) {
                return;
            }
        }

        // Fetch: active fetch means the cycle is not idle; a pending
        // resume bounds the horizon. Checked before the scheduler because
        // it is by far the cheaper test — on busy cycles it returns
        // without paying for the scheduler's window walk.
        if !self.fetch_stalled
            && self.alloc_q.len() < self.cfg.alloc_queue
            && self.fetch_idx < trace.len()
        {
            if c0 >= self.fetch_resume_at {
                return;
            }
            horizon = horizon.min(self.fetch_resume_at);
        }

        // Dispatch: classify why it stalls, mirroring `dispatch` exactly.
        // Any path that would mutate state (prepare/offer success) aborts.
        let pending_uop = self.pending.as_ref().map(|p| p.uop);
        let stall = if pending_uop.is_some() {
            // Retry refused by the scheduler (it is quiesced with a
            // pending μop, which the contract defines as "would refuse").
            StallKind::Pending
        } else if let Some(&(trace_idx, decode_cycle, _)) = self.alloc_q.front() {
            if decode_cycle + self.cfg.rename_latency > c0 {
                horizon = horizon.min(decode_cycle + self.cfg.rename_latency);
                StallKind::Idle
            } else {
                let op = &trace.ops[trace_idx];
                if self.rob.len() >= self.cfg.rob_entries {
                    StallKind::Structural(0)
                } else if op.is_load() && !self.lq.has_space() {
                    StallKind::Structural(1)
                } else if op.is_store() && !self.sq.has_space() {
                    StallKind::Structural(2)
                } else if op
                    .dst
                    .is_some_and(|d| self.renamer.free_count(d.class()) == 0)
                {
                    // `prepare` fails on the free-list pop before any
                    // mutation, so this check is exact and side-effect-free.
                    StallKind::Structural(3)
                } else {
                    return; // dispatch would make progress
                }
            }
        } else {
            StallKind::Idle
        };

        // Scheduler (the most expensive test, so it runs last): `None`
        // means it cannot prove quiescence.
        {
            let ctx = ReadyCtx {
                cycle: c0,
                scb: &self.scb,
                held: &self.held,
            };
            match self.sched.next_event_cycle(&ctx, pending_uop.as_ref()) {
                None => return,
                Some(t) => {
                    if t <= c0 {
                        return;
                    }
                    horizon = horizon.min(t);
                }
            }
        }

        // Defensive floor: every completion is already queued in `events`
        // (scoreboard ready-at values and inflight `complete_at`s are set
        // in the same `process_issue` that pushes the event, so separate
        // scans of those structures would be redundant), but the memory
        // hierarchy's internal MSHR state is one abstraction boundary
        // away — bound by it cheaply. Only ever tightens the horizon.
        if let Some(t) = self.hier.next_fill_cycle(c0) {
            horizon = horizon.min(t);
        }
        debug_assert!(
            self.scb
                .min_pending_ready_cycle(c0)
                .is_none_or(|t| t >= horizon),
            "scoreboard wakeup below the horizon with no covering event"
        );

        // An unbounded horizon means a genuine deadlock; keep stepping so
        // the no-forward-progress panic fires with its diagnostics.
        if horizon == u64::MAX {
            return;
        }
        let x = horizon.min(max_cycles);
        if x <= c0 {
            return;
        }
        self.last_skip_horizon = x;
        let k = x - c0;

        // Replay the skipped cycles' bookkeeping in closed form.
        {
            let ctx = ReadyCtx {
                cycle: c0,
                scb: &self.scb,
                held: &self.held,
            };
            self.sched.note_idle_cycles(&ctx, pending_uop.as_ref(), k);
        }
        match stall {
            StallKind::Pending => {
                self.dispatch_stalls += k;
                self.stall_reasons[4] += k;
            }
            StallKind::Structural(i) => self.stall_reasons[i] += k,
            StallKind::Idle => {}
        }
        self.cycles_skipped += k;
        self.cycle = x;
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
            // Seqs flushed by a squash after their event was queued are
            // skipped harmlessly.
            let Some(inf) = self.inflight.get_mut(seq) else {
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
                let inf = self.inflight.get(seq).expect("rob head inflight");
                inf.completed && inf.complete_at.map(|t| t <= self.cycle).unwrap_or(false)
            };
            if !done {
                break;
            }
            self.rob.pop_front();
            // Copy out the handful of fields commit needs, then drop the
            // entry in place — cheaper than moving the whole `Inflight`
            // off the slab just to read six words from it.
            let (prev_dst, class_op, pc, mem, class, dc, pd, rc, ic) = {
                let inf = self.inflight.get(seq).expect("committing inflight");
                (
                    inf.renamed.prev_dst,
                    inf.op.class,
                    inf.op.pc,
                    inf.op.mem,
                    inf.class,
                    inf.decode_cycle,
                    inf.dispatch_cycle,
                    inf.ready_cycle,
                    inf.issue_cycle.expect("committed ⇒ issued"),
                )
            };
            self.inflight.discard(seq);
            self.energy.rob_reads += 1;
            if let Some(prev) = prev_dst {
                self.renamer.release(prev);
                self.taint[prev.raw() as usize] = 0;
            }
            if class_op == OpClass::Load {
                self.lq.release(seq);
            }
            if class_op == OpClass::Store {
                self.sq.release(seq);
                // The store writes the cache at commit.
                if let Some(m) = mem {
                    let _ = self.hier.access(m.addr, pc, self.cycle, AccessKind::Store);
                }
            }
            self.timing.record(class, dc, pd, rc, ic);
            self.committed += 1;
        }
    }

    // -------------------------------------------------------------- issue
    fn issue_stage(&mut self) {
        let mut out = std::mem::take(&mut self.issue_buf);
        out.clear();
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
        for &seq in &out {
            self.process_issue(seq);
        }
        self.issue_buf = out;
    }

    /// Executes one issued μop: computes its completion time, updates the
    /// LSQ/scoreboard, and handles violations and MDP releases.
    fn process_issue(&mut self, seq: u64) {
        let cycle = self.cycle;
        // μops flushed by an earlier violation in the same issue batch
        // are silently skipped.
        let Some(inf) = self.inflight.get_mut(seq) else {
            return;
        };
        debug_assert!(inf.issue_cycle.is_none(), "double issue of {seq}");
        inf.issue_cycle = Some(cycle);
        let (pc, mem, uop) = (inf.op.pc, inf.op.mem, inf.uop);
        self.arbiter.release(uop.port);
        self.energy.prf_reads += uop.srcs.iter().flatten().count() as u64;
        self.energy.fu.record(uop.class);

        let completion = match uop.class {
            OpClass::Load => {
                let m = mem.expect("load has mem info");
                let range = MemRange {
                    addr: m.addr,
                    size: m.size.get(),
                };
                self.energy.lsq_searches += 1;
                let fwd = self.sq.forward_source(seq, range);
                let done = match fwd {
                    Forward::FromStore { .. } => cycle + 1 + FORWARD_LATENCY,
                    Forward::FromCache => {
                        let (done, _) = self.hier.access(m.addr, pc, cycle + 1, AccessKind::Load);
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
                let m = mem.expect("store has mem info");
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
                let ws = self
                    .inflight
                    .get_mut(seq)
                    .map(|i| std::mem::take(&mut i.waiters))
                    .unwrap_or_default();
                for w in ws {
                    self.held.remove(w);
                    if let Some(wi) = self.inflight.get_mut(w) {
                        wi.ready_cycle = wi.ready_cycle.max(cycle + 1);
                    }
                }

                if let Some((load_seq, load_pc)) = violation {
                    self.squash_from(load_seq, pc, load_pc);
                }
                cycle + 1
            }
            other => cycle + other.exec_latency() as u64,
        };

        // The violation squash may have flushed this store? Never: the
        // squash point is a *younger* load. The store itself survives.
        let Some(inf) = self.inflight.get_mut(seq) else {
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
            if let Some(p) = self.offer(prepared) {
                self.pending = Some(p);
                self.dispatch_stalls += 1;
                return;
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
            match self.inflight.get_mut(ws) {
                Some(store) if store.issue_cycle.is_none() => {
                    self.held.insert(seq);
                    store.waiters.push(seq);
                }
                _ => mdp_wait = None,
            }
        }

        // Fig. 3c class: Ld / LdC / Rst via load-taint propagation.
        let class = if op.is_load() {
            TimingClass::Ld
        } else {
            let tainted = renamed.srcs.iter().flatten().any(|s| {
                let lseq = self.taint[s.raw() as usize];
                lseq != 0
                    && self
                        .inflight
                        .get(lseq)
                        .map(|i| !i.completed)
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
                self.taint[d.raw() as usize] = seq;
            } else if class == TimingClass::LdC {
                let inherited = renamed
                    .srcs
                    .iter()
                    .flatten()
                    .map(|s| self.taint[s.raw() as usize])
                    .find(|&l| l != 0)
                    .unwrap_or(0);
                self.taint[d.raw() as usize] = inherited;
            } else {
                self.taint[d.raw() as usize] = 0;
            }
        }

        let port = self.arbiter.assign(op.class);
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
            waiters: Vec::new(),
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
            let inf = self.inflight.get_mut(seq).expect("prepared inflight");
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
                let inf = self.inflight.remove(p.seq).expect("pending inflight");
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
            let inf = self.inflight.remove(back).expect("rob entry inflight");
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
        // Flushed stores' MDP waiter lists died with their inflight
        // entries; surviving stores may still list flushed waiter seqs,
        // which release as harmless no-ops when the store issues.

        self.alloc_q.clear();
        self.fetch_idx = refetch_idx.expect("squash flushed at least the load");
        self.fetch_stalled = false;
        self.fetch_resume_at = cycle + self.cfg.recovery_penalty;
    }

    fn rollback_one(&mut self, inf: &Inflight, dests: &mut Vec<ballerino_isa::PhysReg>) {
        self.renamer.rollback(inf.op.dst, &inf.renamed);
        if let Some(d) = inf.renamed.dst {
            self.scb.force_ready(d);
            self.taint[d.raw() as usize] = 0;
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
            cycles_skipped: self.cycles_skipped,
        }
    }
}
