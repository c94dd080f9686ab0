//! Load Slice Core (LSC) — a slice-out-of-order design from the paper's
//! related work (§VII, \[8\]), included as an extension baseline.
//!
//! Two in-order queues: the **bypass queue** holds memory accesses and
//! the backward *address-generating slices* of loads; the **main queue**
//! holds everything else. The bypass queue may issue ahead of the main
//! queue, so address computation and cache misses start early (MLP)
//! while execution otherwise stays in order.
//!
//! Slices are learned iteratively with an **instruction slice table
//! (IST)**: when a load dispatches, the instruction that produced its
//! base register is marked; over loop iterations the transitive closure
//! of address producers migrates into the bypass queue.

use crate::ports::PortAlloc;
use crate::stats::{IssueBreakdown, SchedEnergyEvents};
use crate::traits::{DispatchOutcome, ReadyCtx, Scheduler, StallReason};
use crate::uop::SchedUop;
use ballerino_isa::PhysReg;
use std::collections::VecDeque;

/// LSC configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LscConfig {
    /// Bypass-queue entries.
    pub bypass_entries: usize,
    /// Main-queue entries.
    pub main_entries: usize,
    /// IST entries (PC-indexed, direct mapped).
    pub ist_entries: usize,
    /// Issue slots per queue per cycle.
    pub ports_per_queue: usize,
}

impl Default for LscConfig {
    fn default() -> Self {
        // Split the baseline 96-entry window between the two queues.
        LscConfig {
            bypass_entries: 32,
            main_entries: 64,
            ist_entries: 1024,
            ports_per_queue: 4,
        }
    }
}

/// The Load Slice Core scheduler.
#[derive(Debug, Clone)]
pub struct Lsc {
    cfg: LscConfig,
    bypass: VecDeque<SchedUop>,
    main: VecDeque<SchedUop>,
    ist: Vec<bool>,
    /// PC of the most recent writer of each physical register (for the
    /// iterative backward-slice walk), indexed by register number. Grown
    /// on demand: the configuration does not know the register count.
    writer_pc: Vec<Option<u64>>,
    energy: SchedEnergyEvents,
    breakdown: IssueBreakdown,
    /// μops routed through the bypass queue.
    pub bypassed: u64,
}

impl Lsc {
    /// Builds an empty LSC scheduler.
    pub fn new(cfg: LscConfig) -> Self {
        let ist = vec![false; cfg.ist_entries];
        Lsc {
            cfg,
            bypass: VecDeque::new(),
            main: VecDeque::new(),
            ist,
            writer_pc: Vec::new(),
            energy: SchedEnergyEvents::default(),
            breakdown: IssueBreakdown::default(),
            bypassed: 0,
        }
    }

    fn ist_index(&self, pc: u64) -> usize {
        (pc as usize / 4) % self.cfg.ist_entries
    }

    /// Whether the IST marks `pc` as part of a load's address slice.
    pub fn in_slice(&self, pc: u64) -> bool {
        self.ist[self.ist_index(pc)]
    }

    /// Whether `uop` is routed to the bypass queue (else the main queue).
    fn routes_to_bypass(&self, uop: &SchedUop) -> bool {
        uop.is_load() || uop.is_store() || self.in_slice(uop.pc)
    }

    /// PC of the recorded producer of `r`, if any.
    fn producer(&self, r: PhysReg) -> Option<u64> {
        self.writer_pc.get(r.raw() as usize).copied().flatten()
    }

    /// Marks the recorded producer of each source of `uop` in the IST;
    /// returns how many sources had one.
    fn mark_producers(&mut self, uop: &SchedUop) -> u64 {
        let mut marked = 0;
        for src in uop.srcs.iter().flatten() {
            if let Some(pc) = self.producer(*src) {
                let idx = self.ist_index(pc);
                self.ist[idx] = true;
                marked += 1;
            }
        }
        marked
    }

    fn issue_from(
        q: &mut VecDeque<SchedUop>,
        window: usize,
        ctx: &ReadyCtx<'_>,
        ports: &mut PortAlloc<'_>,
        energy: &mut SchedEnergyEvents,
        out: &mut Vec<u64>,
    ) -> u64 {
        let mut issued = 0;
        for _ in 0..window {
            let Some(head) = q.front() else { break };
            energy.head_examinations += 1;
            if !ctx.is_ready(head) || !ports.try_claim(head.port, head.class) {
                break; // each queue is strictly in-order
            }
            let u = q.pop_front().expect("head");
            energy.queue_reads += 1;
            out.push(u.seq);
            issued += 1;
        }
        issued
    }
}

impl Scheduler for Lsc {
    fn name(&self) -> &str {
        "lsc"
    }

    fn try_dispatch(&mut self, uop: SchedUop, _ctx: &ReadyCtx<'_>) -> DispatchOutcome {
        // Iterative slice learning: a load's base-register producer joins
        // the slice (it will route to the bypass queue on its next
        // dynamic instance).
        if uop.is_load() {
            self.energy.loc_writes += self.mark_producers(&uop);
        }
        let to_bypass = self.routes_to_bypass(&uop);
        self.energy.loc_reads += 1; // IST lookup at dispatch

        // A slice instruction's own producers are walked one level per
        // iteration: if this μop is in the slice, mark its producers too
        // (transitive closure over iterations, as in the LSC paper).
        if to_bypass && !uop.is_store() {
            self.mark_producers(&uop);
        }
        if let Some(d) = uop.dst {
            let i = d.raw() as usize;
            if i >= self.writer_pc.len() {
                self.writer_pc.resize(i + 1, None);
            }
            self.writer_pc[i] = Some(uop.pc);
        }

        let (q, cap) = if to_bypass {
            (&mut self.bypass, self.cfg.bypass_entries)
        } else {
            (&mut self.main, self.cfg.main_entries)
        };
        if q.len() >= cap {
            return DispatchOutcome::Stall(StallReason::Full);
        }
        if to_bypass {
            self.bypassed += 1;
        }
        self.energy.queue_writes += 1;
        q.push_back(uop);
        DispatchOutcome::Accepted
    }

    fn issue(&mut self, ctx: &ReadyCtx<'_>, ports: &mut PortAlloc<'_>, out: &mut Vec<u64>) {
        // Bypass queue first: that is the whole point of the design.
        let b = Self::issue_from(
            &mut self.bypass,
            self.cfg.ports_per_queue,
            ctx,
            ports,
            &mut self.energy,
            out,
        );
        let m = Self::issue_from(
            &mut self.main,
            self.cfg.ports_per_queue,
            ctx,
            ports,
            &mut self.energy,
            out,
        );
        self.breakdown.from_siq += b; // bypass issues reported as S-IQ-like
        self.breakdown.from_inorder += m;
        if b + m > 0 {
            self.energy.select_inputs += (2 * self.cfg.ports_per_queue) as u64;
        }
    }

    fn on_complete(&mut self, _dst: PhysReg) {}

    fn flush_after(&mut self, seq: u64, _flushed_dests: &[PhysReg]) {
        for q in [&mut self.bypass, &mut self.main] {
            while q.back().map(|u| u.seq > seq).unwrap_or(false) {
                q.pop_back();
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.bypass.len() + self.main.len()
    }

    fn capacity(&self) -> usize {
        self.cfg.bypass_entries + self.cfg.main_entries
    }

    fn energy_events(&self) -> SchedEnergyEvents {
        self.energy
    }

    fn issue_breakdown(&self) -> IssueBreakdown {
        self.breakdown
    }

    fn next_event_cycle(&self, ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>) -> Option<u64> {
        if let Some(p) = pending {
            let (len, cap) = if self.routes_to_bypass(p) {
                (self.bypass.len(), self.cfg.bypass_entries)
            } else {
                (self.main.len(), self.cfg.main_entries)
            };
            if len < cap {
                return None; // dispatch would be accepted this cycle
            }
        }
        let mut horizon = u64::MAX;
        for head in [self.bypass.front(), self.main.front()]
            .into_iter()
            .flatten()
        {
            let wake = ctx.wake_cycle(head);
            // A ready head issues (or fights for a port) right now.
            if wake <= ctx.cycle {
                return None;
            }
            horizon = horizon.min(wake);
        }
        Some(horizon)
    }

    fn note_idle_cycles(&mut self, _ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>, k: u64) {
        // Each idle `issue` examines every stalled head once. A refused
        // `pending` repeats its IST lookup and, for a load, its producer
        // marks; the marks and its own `writer_pc` entry were already set
        // by the first, stepped refusal, so only the counts move.
        let heads = !self.bypass.is_empty() as u64 + !self.main.is_empty() as u64;
        self.energy.head_examinations += k * heads;
        if let Some(p) = pending {
            self.energy.loc_reads += k;
            if p.is_load() {
                let marks = p
                    .srcs
                    .iter()
                    .flatten()
                    .filter(|s| self.producer(**s).is_some());
                self.energy.loc_writes += k * marks.count() as u64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::held::HeldSet;
    use crate::ports::FuBusy;
    use crate::scoreboard::Scoreboard;
    use ballerino_isa::{OpClass, PortId};

    fn op(seq: u64, pc: u64, class: OpClass, dst: Option<u32>, src: Option<u32>) -> SchedUop {
        SchedUop {
            seq,
            pc,
            class,
            port: PortId(if class == OpClass::Load { 2 } else { 0 }),
            srcs: [src.map(PhysReg), None],
            dst: dst.map(PhysReg),
            ssid: None,
            mdp_wait: None,
            load_dep: false,
        }
    }

    fn issue_once(l: &mut Lsc, scb: &Scoreboard, cycle: u64) -> Vec<u64> {
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle,
            scb,
            held: &held,
        };
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, cycle);
        let mut out = Vec::new();
        l.issue(&ctx, &mut pa, &mut out);
        out
    }

    #[test]
    fn loads_always_take_the_bypass_queue() {
        let mut l = Lsc::new(LscConfig::default());
        let scb = Scoreboard::new(64);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        l.try_dispatch(op(1, 0x400, OpClass::Load, Some(10), None), &ctx);
        assert_eq!(l.bypassed, 1);
    }

    #[test]
    fn address_producers_join_the_slice_over_iterations() {
        let mut l = Lsc::new(LscConfig::default());
        let scb = Scoreboard::new(64);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        // Iteration 1: ALU at 0x400 produces p10; load at 0x404 uses it.
        l.try_dispatch(op(1, 0x400, OpClass::IntAlu, Some(10), None), &ctx);
        assert_eq!(l.bypassed, 0, "first instance not yet known to be a slice");
        l.try_dispatch(op(2, 0x404, OpClass::Load, Some(11), Some(10)), &ctx);
        assert!(l.in_slice(0x400), "producer PC must be marked in the IST");
        // Iteration 2: the same static ALU now routes to the bypass queue.
        l.try_dispatch(op(3, 0x400, OpClass::IntAlu, Some(12), None), &ctx);
        assert_eq!(l.bypassed, 2);
    }

    #[test]
    fn bypass_queue_issues_ahead_of_blocked_main_queue() {
        let mut l = Lsc::new(LscConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(20)); // main-queue head depends on this
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        l.try_dispatch(op(1, 0x500, OpClass::IntAlu, Some(21), Some(20)), &ctx); // main, blocked
        l.try_dispatch(op(2, 0x504, OpClass::Load, Some(22), None), &ctx); // bypass, ready
        let out = issue_once(&mut l, &scb, 0);
        assert_eq!(out, vec![2], "the load must bypass the stalled main queue");
    }

    #[test]
    fn each_queue_is_strictly_in_order() {
        let mut l = Lsc::new(LscConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(20));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        // Two bypass loads; the first blocked on its base register.
        l.try_dispatch(op(1, 0x500, OpClass::Load, Some(21), Some(20)), &ctx);
        l.try_dispatch(op(2, 0x504, OpClass::Load, Some(22), None), &ctx);
        let out = issue_once(&mut l, &scb, 0);
        assert!(
            out.is_empty(),
            "in-order bypass queue must stall behind its head"
        );
    }

    #[test]
    fn flush_trims_both_queues() {
        let mut l = Lsc::new(LscConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(20));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        l.try_dispatch(op(1, 0x500, OpClass::IntAlu, Some(21), Some(20)), &ctx);
        l.try_dispatch(op(2, 0x504, OpClass::Load, Some(22), Some(20)), &ctx);
        l.try_dispatch(op(3, 0x508, OpClass::Load, Some(23), Some(20)), &ctx);
        l.flush_after(1, &[]);
        assert_eq!(l.occupancy(), 1);
    }

    /// `k` stepped idle cycles with a refused pending load, whose base
    /// register has a recorded producer, leave exactly the state that
    /// one `note_idle_cycles(k)` leaves on a clone.
    #[test]
    fn refused_pending_load_replays_like_stepped_idle_cycles() {
        let mut l = Lsc::new(LscConfig {
            bypass_entries: 1,
            ..LscConfig::default()
        });
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(10));
        scb.allocate(PhysReg(20));
        scb.set_ready_at(PhysReg(20), 9); // both heads wait on p20
        let held = HeldSet::new();
        let at = |cycle| ReadyCtx {
            cycle,
            scb: &scb,
            held: &held,
        };
        // p10's producer sits at the main-queue head; a load fills the
        // bypass queue; a second load, based on p10, is refused.
        l.try_dispatch(op(1, 0x400, OpClass::IntAlu, Some(10), Some(20)), &at(0));
        l.try_dispatch(op(2, 0x404, OpClass::Load, Some(11), Some(20)), &at(0));
        let pending = op(3, 0x408, OpClass::Load, Some(12), Some(10));
        assert_eq!(
            l.try_dispatch(pending, &at(0)),
            DispatchOutcome::Stall(StallReason::Full)
        );

        let mut replayed = l.clone();
        assert_eq!(replayed.next_event_cycle(&at(1), Some(&pending)), Some(9));
        replayed.note_idle_cycles(&at(1), Some(&pending), 8);
        for t in 1..9 {
            assert!(issue_once(&mut l, &scb, t).is_empty());
            assert_eq!(
                l.try_dispatch(pending, &at(t)),
                DispatchOutcome::Stall(StallReason::Full)
            );
        }
        assert_eq!(l.energy_events().loc_writes, 9);
        assert_eq!(l.energy_events(), replayed.energy_events());
        assert_eq!(format!("{l:?}"), format!("{replayed:?}"));
    }

    #[test]
    fn quiesce_answers_follow_the_dispatch_queue_and_the_heads() {
        let mut l = Lsc::new(LscConfig {
            bypass_entries: 1,
            ..LscConfig::default()
        });
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(20));
        scb.set_ready_at(PhysReg(20), 5);
        let held = HeldSet::new();
        let at = |cycle| ReadyCtx {
            cycle,
            scb: &scb,
            held: &held,
        };
        assert_eq!(l.next_event_cycle(&at(0), None), Some(u64::MAX));
        l.try_dispatch(op(1, 0x500, OpClass::Load, Some(21), Some(20)), &at(0));
        assert_eq!(l.next_event_cycle(&at(0), None), Some(5));
        // The bypass queue is full, but a main-queue μop would be accepted.
        let alu = op(2, 0x504, OpClass::IntAlu, Some(22), None);
        let load = op(3, 0x508, OpClass::Load, Some(23), None);
        assert_eq!(l.next_event_cycle(&at(0), Some(&alu)), None);
        assert_eq!(l.next_event_cycle(&at(0), Some(&load)), Some(5));
        // A ready head issues now.
        assert_eq!(l.next_event_cycle(&at(5), None), None);
    }

    #[test]
    fn full_queues_stall_dispatch() {
        let mut l = Lsc::new(LscConfig {
            bypass_entries: 1,
            ..LscConfig::default()
        });
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(20));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        assert_eq!(
            l.try_dispatch(op(1, 0x500, OpClass::Load, Some(21), Some(20)), &ctx),
            DispatchOutcome::Accepted
        );
        assert_eq!(
            l.try_dispatch(op(2, 0x504, OpClass::Load, Some(22), Some(20)), &ctx),
            DispatchOutcome::Stall(StallReason::Full)
        );
    }
}
