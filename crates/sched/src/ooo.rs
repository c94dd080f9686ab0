//! The unified out-of-order issue queue (`OoO` baseline, Fig. 2).
//!
//! CAM-style wakeup without compaction (a "random queue": freed slots are
//! reused in place, so entry position does not encode age) and per-port
//! prefix-sum select. The [`SelectPolicy`] decides which ready requester
//! a port grants: the lowest-numbered slot (`ooo`), the oldest
//! (`ooo-oldest`: age matrices / compaction, §II-A and Fig. 11's
//! rightmost bars), or the soonest predicted ready (`ldt`, the
//! real-time load-delay-tracking scheduler of [`crate::ldt`]).
//!
//! Wakeup and select run through the shared [`WakeFabric`]: completions
//! touch only the consumers of the completing register, and select walks
//! the fabric's ready set instead of every slot. The modelled hardware
//! events (CAM broadcast energy, per-entry head examinations) are charged
//! exactly as before — the *hardware* still broadcasts; only the
//! simulator stopped scanning. [`OooIq::with_broadcast_wakeup`] keeps
//! the legacy O(window) scan decision path as the reference the fabric
//! is property-tested against (`tests/sched_props.rs`).

use crate::fabric::WakeFabric;
use crate::ldt::LoadDelayTracker;
use crate::ports::PortAlloc;
use crate::stats::{IssueBreakdown, SchedEnergyEvents};
use crate::traits::{DispatchOutcome, ReadyCtx, Scheduler, StallReason};
use crate::uop::SchedUop;
use ballerino_isa::{PhysReg, MAX_PORTS};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bits of the fabric tag reserved for the slot index; the predicted
/// delay occupies the bits above. Slot bits make every resident's tag
/// unique, so select never breaks a priority tie by ready-list order.
const SLOT_BITS: u32 = 10;
/// Largest window the predicted-ready tag encoding supports.
const MAX_SLOTS: usize = 1 << SLOT_BITS;
/// Mask extracting the slot index from a predicted-ready tag.
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;
/// Predicted delays saturate here so the tag stays within `u32`.
const DELAY_CLAMP: u64 = (1 << (32 - SLOT_BITS - 1)) - 1;

/// Which ready requester each port's select grants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectPolicy {
    /// The lowest-numbered slot (`ooo`).
    LowestSlot,
    /// The oldest μop (`ooo-oldest`).
    OldestFirst,
    /// The soonest predicted ready, lowest slot breaking ties (`ldt`).
    /// The predictions come from a [`LoadDelayTracker`] over
    /// `num_phys_regs` registers.
    PredictedReady {
        /// Physical registers the delay table covers.
        num_phys_regs: usize,
    },
}

/// Configuration of the out-of-order IQ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OooIqConfig {
    /// IQ entries (Table II: 96/64/32 by width; 48 in FXA's backend). At
    /// most 1024 under [`SelectPolicy::PredictedReady`].
    pub entries: usize,
    /// The select policy.
    pub policy: SelectPolicy,
}

impl Default for OooIqConfig {
    fn default() -> Self {
        OooIqConfig {
            entries: 96,
            policy: SelectPolicy::LowestSlot,
        }
    }
}

/// The unified out-of-order issue queue.
#[derive(Debug)]
pub struct OooIq {
    cfg: OooIqConfig,
    slots: Vec<Option<SchedUop>>,
    occupancy: usize,
    /// Min-heap of free slot indices: dispatch must fill the
    /// lowest-numbered free slot (position is the select priority), and
    /// popping a heap beats rescanning the whole slot array.
    free_slots: BinaryHeap<Reverse<usize>>,
    /// Producer-indexed wakeup state; the entry tag is
    /// `(predicted delay << SLOT_BITS) | slot`, the select priority. The
    /// delay is 0 outside [`SelectPolicy::PredictedReady`], so the tag is
    /// the slot index.
    fabric: WakeFabric,
    /// The load-delay tracker, under [`SelectPolicy::PredictedReady`].
    ldt: Option<LoadDelayTracker>,
    /// Test reference: decide issue/quiesce from the legacy O(window)
    /// scan instead of the fabric.
    broadcast_wakeup: bool,
    energy: SchedEnergyEvents,
    breakdown: IssueBreakdown,
}

impl OooIq {
    /// Builds an empty IQ.
    ///
    /// # Panics
    ///
    /// Panics if a [`SelectPolicy::PredictedReady`] window exceeds 1024
    /// entries (the slot bits of its tag encoding).
    pub fn new(cfg: OooIqConfig) -> Self {
        let ldt = match cfg.policy {
            SelectPolicy::PredictedReady { num_phys_regs } => {
                assert!(
                    cfg.entries <= MAX_SLOTS,
                    "predicted-ready window exceeds tag encoding"
                );
                Some(LoadDelayTracker::new(num_phys_regs))
            }
            SelectPolicy::LowestSlot | SelectPolicy::OldestFirst => None,
        };
        let slots = vec![None; cfg.entries];
        let free_slots = (0..cfg.entries).map(Reverse).collect();
        OooIq {
            cfg,
            slots,
            occupancy: 0,
            free_slots,
            fabric: WakeFabric::new(),
            ldt,
            broadcast_wakeup: false,
            energy: SchedEnergyEvents::default(),
            breakdown: IssueBreakdown::default(),
        }
    }

    /// Builds the test reference: the legacy broadcast-scan decision
    /// path (the fabric is still maintained, just not consulted).
    /// `tests/sched_props.rs` checks the fabric path against it; no
    /// shipped machine uses it.
    pub fn with_broadcast_wakeup(mut self) -> Self {
        self.broadcast_wakeup = true;
        self
    }

    /// The load-delay tracker (predicted-ready policy only).
    pub fn load_delay_tracker(&self) -> Option<&LoadDelayTracker> {
        self.ldt.as_ref()
    }

    fn oldest_first(&self) -> bool {
        self.cfg.policy == SelectPolicy::OldestFirst
    }

    /// The slot a fabric tag names.
    fn slot_of(&self, tag: u32) -> usize {
        if self.ldt.is_some() {
            (tag & SLOT_MASK) as usize
        } else {
            tag as usize
        }
    }

    /// Single-pass select over all slots (the legacy scan path): one scan
    /// computes the best requester per port, then grants flow in global
    /// priority order — the lowest fabric tag, or the lowest seq under
    /// oldest first — so the issued set is the fabric select's. Fills
    /// `grants` with slot indices and returns `(any_request, count)`.
    fn select_single_pass(
        &self,
        ctx: &ReadyCtx<'_>,
        ports: &mut PortAlloc<'_>,
        grants: &mut [usize; MAX_PORTS],
    ) -> (bool, usize) {
        let prio = |i: usize| {
            let u = self.slots[i].as_ref().expect("occupied");
            if self.oldest_first() {
                u.seq
            } else {
                self.fabric.tag_of(u.seq) as u64
            }
        };
        let mut any_request = false;
        let mut best_per_port: [Option<usize>; MAX_PORTS] = [None; MAX_PORTS];
        for (i, s) in self.slots.iter().enumerate() {
            let Some(u) = s else { continue };
            if !ctx.is_ready(u) {
                continue;
            }
            any_request = true;
            if !ports.can_claim(u.port, u.class) {
                continue;
            }
            let best = &mut best_per_port[u.port.index()];
            if best.is_none_or(|b| prio(i) < prio(b)) {
                *best = Some(i);
            }
        }
        // Grant the per-port winners in global priority order until the
        // width budget runs out (ports are independent, so removing one
        // port's winner never changes another port's).
        let mut n = 0;
        while ports.remaining() > 0 {
            let Some(i) = best_per_port
                .iter()
                .flatten()
                .copied()
                .min_by_key(|&i| prio(i))
            else {
                break;
            };
            let u = self.slots[i].as_ref().expect("occupied");
            let claimed = ports.try_claim(u.port, u.class);
            debug_assert!(claimed);
            best_per_port[u.port.index()] = None;
            grants[n] = i;
            n += 1;
        }
        (any_request, n)
    }
}

impl Scheduler for OooIq {
    fn name(&self) -> &str {
        match self.cfg.policy {
            SelectPolicy::LowestSlot => "ooo",
            SelectPolicy::OldestFirst => "ooo-oldest",
            SelectPolicy::PredictedReady { .. } => "ldt",
        }
    }

    fn try_dispatch(&mut self, uop: SchedUop, ctx: &ReadyCtx<'_>) -> DispatchOutcome {
        match self.free_slots.pop() {
            Some(Reverse(i)) => {
                debug_assert!(self.slots[i].is_none(), "free list out of sync");
                let delay = match &mut self.ldt {
                    Some(t) => t.annotate(&uop, ctx.cycle).saturating_sub(ctx.cycle),
                    None => 0,
                };
                let tag = ((delay.min(DELAY_CLAMP) as u32) << SLOT_BITS) | i as u32;
                self.fabric.insert(&uop, tag, ctx);
                self.slots[i] = Some(uop);
                self.occupancy += 1;
                self.energy.queue_writes += 1;
                DispatchOutcome::Accepted
            }
            None => DispatchOutcome::Stall(StallReason::Full),
        }
    }

    fn issue(&mut self, ctx: &ReadyCtx<'_>, ports: &mut PortAlloc<'_>, out: &mut Vec<u64>) {
        if self.occupancy == 0 {
            return;
        }
        // The wakeup logic evaluates readiness for every occupied entry
        // every cycle — a modelled hardware event, charged whether or
        // not the simulator performs the scan.
        self.energy.head_examinations += self.occupancy as u64;
        if let Some(t) = &mut self.ldt {
            t.observe(ctx.scb);
        }

        let mut grants = [0usize; MAX_PORTS];
        let (any_request, n) = if self.broadcast_wakeup {
            // Legacy level-triggered scan path (the test reference). The
            // fabric stays maintained; only the decision source differs.
            self.select_single_pass(ctx, ports, &mut grants)
        } else {
            self.fabric.poll(ctx);
            let any_request = self.fabric.select(ports, self.oldest_first());
            let n = self.fabric.grant_count();
            for (k, g) in grants[..n].iter_mut().enumerate() {
                *g = self.slot_of(self.fabric.tag_of(self.fabric.grant(k)));
            }
            (any_request, n)
        };
        if any_request {
            // Every port's prefix-sum circuit spans all IQ entries (Fig. 2).
            self.energy.select_inputs += (self.cfg.entries * MAX_PORTS.min(8)) as u64;
        }
        for &i in &grants[..n] {
            let u = self.slots[i].take().expect("granted slot");
            self.free_slots.push(Reverse(i));
            self.occupancy -= 1;
            self.energy.queue_reads += 1;
            self.breakdown.from_ooo += 1;
            if let Some(t) = &mut self.ldt {
                t.note_issue(&u, ctx.cycle);
            }
            self.fabric.remove(u.seq);
            out.push(u.seq);
        }
    }

    fn on_complete(&mut self, dst: PhysReg) {
        // Destination tag broadcast across the CAM wakeup array: the
        // modelled hardware searches every entry, so the energy charge
        // spans the whole window even though the fabric only touches the
        // consumers of `dst`.
        self.energy.cam_broadcasts += 1;
        self.energy.cam_entries_searched += self.cfg.entries as u64;
        if let Some(t) = &mut self.ldt {
            t.complete(dst);
        }
        self.fabric.on_complete(dst);
    }

    fn flush_after(&mut self, seq: u64, flushed_dests: &[PhysReg]) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.as_ref().map(|u| u.seq > seq).unwrap_or(false) {
                *s = None;
                self.free_slots.push(Reverse(i));
                self.occupancy -= 1;
            }
        }
        self.fabric.flush_after(seq);
        if let Some(t) = &mut self.ldt {
            t.flush(flushed_dests);
        }
    }

    fn occupancy(&self) -> usize {
        self.occupancy
    }

    fn capacity(&self) -> usize {
        self.cfg.entries
    }

    fn energy_events(&self) -> SchedEnergyEvents {
        let mut e = self.energy;
        if let Some(t) = &self.ldt {
            e.add(&t.charges());
        }
        e
    }

    fn issue_breakdown(&self) -> IssueBreakdown {
        self.breakdown
    }

    fn next_event_cycle(&self, ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>) -> Option<u64> {
        if pending.is_some() && self.occupancy < self.cfg.entries {
            return None; // dispatch would be accepted this cycle
        }
        if self.broadcast_wakeup {
            // Legacy O(window) quiesce scan (the test reference).
            let mut horizon = u64::MAX;
            for u in self.slots.iter().flatten() {
                let wake = ctx.wake_cycle(u);
                if wake <= ctx.cycle {
                    // A ready resident requests select this cycle (even a
                    // port-blocked one: FuBusy frees with time alone).
                    return None;
                }
                horizon = horizon.min(wake);
            }
            return Some(horizon);
        }
        self.fabric.min_wake(ctx)
    }

    fn note_idle_cycles(&mut self, ctx: &ReadyCtx<'_>, _pending: Option<&SchedUop>, k: u64) {
        // Idle wakeup still evaluates every occupied entry each cycle; no
        // resident requests, so the select tree never lights up.
        self.energy.head_examinations += k * self.occupancy as u64;
        // The first idle `issue` call would have drained the load-delay
        // observations (it only runs with residents present); the queue
        // cannot refill during an idle window, so one drain replicates
        // all k.
        if self.occupancy > 0 {
            if let Some(t) = &mut self.ldt {
                t.observe(ctx.scb);
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

    fn op(seq: u64, port: u8, src: Option<PhysReg>) -> SchedUop {
        SchedUop {
            port: PortId(port),
            srcs: [src, None],
            ..SchedUop::test_op(seq)
        }
    }

    fn issue_once(iq: &mut OooIq, scb: &Scoreboard, cycle: u64) -> Vec<u64> {
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle,
            scb,
            held: &held,
        };
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, cycle);
        let mut out = Vec::new();
        iq.issue(&ctx, &mut pa, &mut out);
        out
    }

    #[test]
    fn issues_ready_ops_out_of_order() {
        let mut iq = OooIq::new(OooIqConfig::default());
        let mut scb = Scoreboard::new(8);
        scb.allocate(PhysReg(1)); // op 0's source never ready
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        iq.try_dispatch(op(0, 0, Some(PhysReg(1))), &ctx);
        iq.try_dispatch(op(1, 1, None), &ctx);
        iq.try_dispatch(op(2, 2, None), &ctx);
        let out = issue_once(&mut iq, &scb, 0);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(iq.occupancy(), 1);
    }

    #[test]
    fn one_grant_per_port_per_cycle() {
        let mut iq = OooIq::new(OooIqConfig::default());
        let scb = Scoreboard::new(8);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        iq.try_dispatch(op(0, 3, None), &ctx);
        iq.try_dispatch(op(1, 3, None), &ctx);
        let out = issue_once(&mut iq, &scb, 0);
        assert_eq!(out, vec![0]);
        let out2 = issue_once(&mut iq, &scb, 1);
        assert_eq!(out2, vec![1]);
    }

    #[test]
    fn slot_priority_without_oldest_first() {
        let mut iq = OooIq::new(OooIqConfig {
            entries: 4,
            policy: SelectPolicy::LowestSlot,
        });
        let scb = Scoreboard::new(8);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        // Fill slots 0..3 with seqs 0..3, issue all, then refill slot 0
        // with a *younger* op: slot order, not age, decides priority.
        for i in 0..4 {
            iq.try_dispatch(op(i, i as u8, None), &ctx);
        }
        let _ = issue_once(&mut iq, &scb, 0);
        iq.try_dispatch(op(10, 0, None), &ctx); // goes to slot 0
        iq.try_dispatch(op(4, 0, None), &ctx); // older... wait, 4 < 10
                                               // Same port: slot 0 (seq 10) wins over slot 1 (seq 4).
        let out = issue_once(&mut iq, &scb, 1);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn oldest_first_grants_by_age() {
        let mut iq = OooIq::new(OooIqConfig {
            entries: 4,
            policy: SelectPolicy::OldestFirst,
        });
        let scb = Scoreboard::new(8);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        for i in 0..4 {
            iq.try_dispatch(op(i, i as u8, None), &ctx);
        }
        let _ = issue_once(&mut iq, &scb, 0);
        iq.try_dispatch(op(10, 0, None), &ctx);
        iq.try_dispatch(op(4, 0, None), &ctx);
        let out = issue_once(&mut iq, &scb, 1);
        assert_eq!(out, vec![4]);
    }

    #[test]
    fn full_queue_stalls() {
        let mut iq = OooIq::new(OooIqConfig {
            entries: 1,
            ..OooIqConfig::default()
        });
        let scb = Scoreboard::new(8);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        let mut blocked = op(0, 0, Some(PhysReg(1)));
        blocked.srcs = [Some(PhysReg(1)), None];
        let mut scb2 = Scoreboard::new(8);
        scb2.allocate(PhysReg(1));
        let ctx2 = ReadyCtx {
            cycle: 0,
            scb: &scb2,
            held: &held,
        };
        assert_eq!(iq.try_dispatch(blocked, &ctx2), DispatchOutcome::Accepted);
        assert_eq!(
            iq.try_dispatch(op(1, 1, None), &ctx),
            DispatchOutcome::Stall(StallReason::Full)
        );
    }

    #[test]
    fn wakeup_charges_cam_energy() {
        let mut iq = OooIq::new(OooIqConfig::default());
        iq.on_complete(PhysReg(0));
        iq.on_complete(PhysReg(1));
        let e = iq.energy_events();
        assert_eq!(e.cam_broadcasts, 2);
        assert_eq!(e.cam_entries_searched, 2 * 96);
    }

    #[test]
    fn flush_clears_younger_slots() {
        let mut iq = OooIq::new(OooIqConfig::default());
        let mut scb = Scoreboard::new(8);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        for i in 0..5 {
            iq.try_dispatch(op(i, i as u8, Some(PhysReg(1))), &ctx);
        }
        iq.flush_after(1, &[]);
        assert_eq!(iq.occupancy(), 2);
    }

    #[test]
    fn width_budget_bounds_total_issue() {
        let mut iq = OooIq::new(OooIqConfig::default());
        let scb = Scoreboard::new(8);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        for i in 0..8 {
            iq.try_dispatch(op(i, i as u8, None), &ctx);
        }
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 4, &busy, 0); // budget 4 < ports 8
        let mut out = Vec::new();
        iq.issue(&ctx, &mut pa, &mut out);
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn div_contention_defers_issue() {
        let mut iq = OooIq::new(OooIqConfig::default());
        let scb = Scoreboard::new(8);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        let div = SchedUop {
            class: OpClass::IntDiv,
            ..op(0, 0, None)
        };
        iq.try_dispatch(div, &ctx);
        let mut busy = FuBusy::new();
        busy.reserve(PortId(0), OpClass::IntDiv, 100);
        let mut pa = PortAlloc::new(8, 8, &busy, 0);
        let mut out = Vec::new();
        iq.issue(&ctx, &mut pa, &mut out);
        assert!(out.is_empty());
        assert_eq!(iq.occupancy(), 1);
    }
}
