//! The unified out-of-order issue queue (`OoO` baseline, Fig. 2).
//!
//! CAM-style wakeup without compaction (a "random queue": freed slots are
//! reused in place, so entry position does not encode age) and per-port
//! prefix-sum select giving priority to the lowest-numbered slot. The
//! optional *oldest-first* policy (age matrices / compaction, §II-A and
//! Fig. 11's rightmost bars) grants the oldest ready requester instead.
//!
//! Wakeup and select run through the shared [`WakeFabric`]: completions
//! touch only the consumers of the completing register, and select walks
//! the fabric's ready set instead of every slot. The modelled hardware
//! events (CAM broadcast energy, per-entry head examinations) are charged
//! exactly as before — the *hardware* still broadcasts; only the
//! simulator stopped scanning. `BALLERINO_BROADCAST_WAKEUP=1` (or
//! [`OooIq::with_broadcast_wakeup`]) keeps the legacy O(window) scan
//! decision path for A/B debugging.

use crate::fabric::WakeFabric;
use crate::ports::PortAlloc;
use crate::stats::{IssueBreakdown, SchedEnergyEvents};
use crate::traits::{DispatchOutcome, ReadyCtx, Scheduler, StallReason};
use crate::uop::SchedUop;
use ballerino_isa::{PhysReg, MAX_PORTS};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of the out-of-order IQ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OooIqConfig {
    /// IQ entries (Table II: 96/64/32 by width; 48 in FXA's backend).
    pub entries: usize,
    /// Grant the oldest ready requester per port instead of the
    /// lowest-numbered slot.
    pub oldest_first: bool,
}

impl Default for OooIqConfig {
    fn default() -> Self {
        OooIqConfig {
            entries: 96,
            oldest_first: false,
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
    /// Producer-indexed wakeup state; the entry tag is the slot index
    /// (the select priority).
    fabric: WakeFabric,
    /// A/B knob: decide issue/quiesce from the legacy O(window) scan
    /// instead of the fabric (`BALLERINO_BROADCAST_WAKEUP=1`).
    broadcast_wakeup: bool,
    reference_select: bool,
    energy: SchedEnergyEvents,
    breakdown: IssueBreakdown,
}

impl OooIq {
    /// Builds an empty IQ. Honours the `BALLERINO_BROADCAST_WAKEUP=1`
    /// environment knob (see [`OooIq::with_broadcast_wakeup`]).
    pub fn new(cfg: OooIqConfig) -> Self {
        let broadcast_wakeup = ballerino_isa::env_flag("BALLERINO_BROADCAST_WAKEUP");
        let slots = vec![None; cfg.entries];
        let free_slots = (0..cfg.entries).map(Reverse).collect();
        OooIq {
            cfg,
            slots,
            occupancy: 0,
            free_slots,
            fabric: WakeFabric::new(),
            broadcast_wakeup,
            reference_select: false,
            energy: SchedEnergyEvents::default(),
            breakdown: IssueBreakdown::default(),
        }
    }

    /// Switches select to the seed's grant loop, which rescans every
    /// slot once per grant. Identical grant decisions, O(entries ×
    /// width) instead of O(entries) per cycle; kept for the `perf_smoke`
    /// reference baseline.
    pub fn with_reference_select(mut self) -> Self {
        self.reference_select = true;
        self
    }

    /// Keeps the legacy broadcast-scan decision path (the fabric is
    /// still maintained, just not consulted) for A/B debugging. The env
    /// knob `BALLERINO_BROADCAST_WAKEUP=1` sets the same flag; this
    /// builder exists so tests can flip it without mutating the
    /// process environment.
    pub fn with_broadcast_wakeup(mut self) -> Self {
        self.broadcast_wakeup = true;
        self
    }

    /// Single-pass select over all slots (the legacy A/B path): one scan
    /// computes the best requester per port, then grants flow in the
    /// same global priority order the seed's rescan loop produced
    /// (lowest slot, or oldest when configured), so the issued set is
    /// identical. Fills `grants` and returns `(any_request, count)`.
    fn select_single_pass(
        &self,
        ctx: &ReadyCtx<'_>,
        ports: &mut PortAlloc<'_>,
        grants: &mut [usize; MAX_PORTS],
    ) -> (bool, usize) {
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
            let better = match *best {
                None => true,
                Some(b) => {
                    let bu = self.slots[b].as_ref().expect("occupied");
                    if self.cfg.oldest_first {
                        u.seq < bu.seq
                    } else {
                        i < b
                    }
                }
            };
            if better {
                *best = Some(i);
            }
        }
        // Grant the per-port winners in global priority order until the
        // width budget runs out (ports are independent, so removing one
        // port's winner never changes another port's).
        let mut n = 0;
        while ports.remaining() > 0 {
            let mut best: Option<usize> = None;
            for cand in best_per_port.iter().flatten() {
                let better = match best {
                    None => true,
                    Some(b) => {
                        if self.cfg.oldest_first {
                            let cu = self.slots[*cand].as_ref().expect("occupied");
                            let bu = self.slots[b].as_ref().expect("occupied");
                            cu.seq < bu.seq
                        } else {
                            *cand < b
                        }
                    }
                };
                if better {
                    best = Some(*cand);
                }
            }
            let Some(i) = best else { break };
            let u = self.slots[i].as_ref().expect("occupied");
            let claimed = ports.try_claim(u.port, u.class);
            debug_assert!(claimed);
            best_per_port[u.port.index()] = None;
            grants[n] = i;
            n += 1;
        }
        (any_request, n)
    }

    /// The seed's select loop: rescan all slots once per grant. Fills
    /// `grants` and returns `(any_request, count)`.
    fn select_reference(
        &self,
        ctx: &ReadyCtx<'_>,
        ports: &mut PortAlloc<'_>,
        grants: &mut [usize; MAX_PORTS],
    ) -> (bool, usize) {
        let mut any_request = false;
        let mut n = 0;
        let mut claimed_ports = [false; MAX_PORTS];
        loop {
            let mut best: Option<usize> = None;
            for (i, s) in self.slots.iter().enumerate() {
                let Some(u) = s else { continue };
                if claimed_ports[u.port.index()] {
                    continue;
                }
                if !ctx.is_ready(u) {
                    continue;
                }
                any_request = true;
                if !ports.can_claim(u.port, u.class) {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some(b) => {
                        let bu = self.slots[b].as_ref().expect("occupied");
                        if self.cfg.oldest_first {
                            u.seq < bu.seq
                        } else {
                            i < b
                        }
                    }
                };
                if better {
                    best = Some(i);
                }
            }
            let Some(i) = best else { break };
            let u = self.slots[i].as_ref().expect("occupied");
            let claimed = ports.try_claim(u.port, u.class);
            debug_assert!(claimed);
            claimed_ports[u.port.index()] = true;
            grants[n] = i;
            n += 1;
            if ports.remaining() == 0 {
                break;
            }
        }
        (any_request, n)
    }
}

impl Scheduler for OooIq {
    fn name(&self) -> &str {
        if self.cfg.oldest_first {
            "ooo-oldest"
        } else {
            "ooo"
        }
    }

    fn try_dispatch(&mut self, uop: SchedUop, ctx: &ReadyCtx<'_>) -> DispatchOutcome {
        match self.free_slots.pop() {
            Some(Reverse(i)) => {
                debug_assert!(self.slots[i].is_none(), "free list out of sync");
                self.fabric.insert(&uop, i as u32, ctx);
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

        if self.reference_select || self.broadcast_wakeup {
            // Legacy level-triggered scan paths (frozen reference and
            // the A/B knob). The fabric stays maintained so switching
            // paths mid-run is sound; only the decision source differs.
            let mut grants = [0usize; MAX_PORTS];
            let (any_request, n) = if self.reference_select {
                self.select_reference(ctx, ports, &mut grants)
            } else {
                self.select_single_pass(ctx, ports, &mut grants)
            };
            if any_request {
                // Every port's prefix-sum circuit spans all IQ entries
                // (Fig. 2).
                self.energy.select_inputs += (self.cfg.entries * MAX_PORTS.min(8)) as u64;
            }
            for &i in &grants[..n] {
                let u = self.slots[i].take().expect("granted slot");
                self.free_slots.push(Reverse(i));
                self.occupancy -= 1;
                self.energy.queue_reads += 1;
                self.breakdown.from_ooo += 1;
                self.fabric.remove(u.seq);
                out.push(u.seq);
            }
            return;
        }

        self.fabric.poll(ctx);
        let any_request = self.fabric.select(ports, self.cfg.oldest_first);
        if any_request {
            // Every port's prefix-sum circuit spans all IQ entries (Fig. 2).
            self.energy.select_inputs += (self.cfg.entries * MAX_PORTS.min(8)) as u64;
        }
        for k in 0..self.fabric.grant_count() {
            let seq = self.fabric.grant(k);
            let i = self.fabric.tag_of(seq) as usize;
            let u = self.slots[i].take().expect("granted slot");
            debug_assert_eq!(u.seq, seq);
            self.free_slots.push(Reverse(i));
            self.occupancy -= 1;
            self.energy.queue_reads += 1;
            self.breakdown.from_ooo += 1;
            out.push(seq);
            self.fabric.remove(seq);
        }
    }

    fn on_complete(&mut self, dst: PhysReg) {
        // Destination tag broadcast across the CAM wakeup array: the
        // modelled hardware searches every entry, so the energy charge
        // spans the whole window even though the fabric only touches the
        // consumers of `dst`.
        self.energy.cam_broadcasts += 1;
        self.energy.cam_entries_searched += self.cfg.entries as u64;
        self.fabric.on_complete(dst);
    }

    fn flush_after(&mut self, seq: u64, _flushed_dests: &[PhysReg]) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.as_ref().map(|u| u.seq > seq).unwrap_or(false) {
                *s = None;
                self.free_slots.push(Reverse(i));
                self.occupancy -= 1;
            }
        }
        self.fabric.flush_after(seq);
    }

    fn occupancy(&self) -> usize {
        self.occupancy
    }

    fn capacity(&self) -> usize {
        self.cfg.entries
    }

    fn energy_events(&self) -> SchedEnergyEvents {
        self.energy
    }

    fn issue_breakdown(&self) -> IssueBreakdown {
        self.breakdown
    }

    fn next_event_cycle(&self, ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>) -> Option<u64> {
        if pending.is_some() && self.occupancy < self.cfg.entries {
            return None; // dispatch would be accepted this cycle
        }
        if self.reference_select || self.broadcast_wakeup {
            // Legacy O(window) quiesce scan (A/B knob path).
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

    fn note_idle_cycles(&mut self, _ctx: &ReadyCtx<'_>, _pending: Option<&SchedUop>, k: u64) {
        // Idle wakeup still evaluates every occupied entry each cycle; no
        // resident requests, so the select tree never lights up.
        self.energy.head_examinations += k * self.occupancy as u64;
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
            oldest_first: false,
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
            oldest_first: true,
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
            oldest_first: false,
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
