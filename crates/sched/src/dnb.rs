//! Delay and Bypass (DNB) — a criticality+readiness hybrid from the
//! paper's related work (§VII, \[25\]), included as an extension baseline.
//!
//! DNB keeps a *small* out-of-order IQ for instructions that actually
//! need dynamic scheduling and steers everything else to cheap in-order
//! structures:
//!
//! * **ready-at-dispatch** μops go to a plain in-order *bypass queue*
//!   (they need no wakeup at all),
//! * **non-ready, non-critical** μops go to a *delay queue* that simply
//!   holds them for a fixed number of cycles before offering them in
//!   order (their operands are short-latency and will be ready by then),
//! * **non-ready, critical** μops (dependent on in-flight loads) get the
//!   real out-of-order IQ.

use crate::fabric::{WakeFabric, WakeState};
use crate::ooo::{OooIq, OooIqConfig};
use crate::ports::PortAlloc;
use crate::stats::{IssueBreakdown, SchedEnergyEvents};
use crate::traits::{DispatchOutcome, ReadyCtx, Scheduler, StallReason};
use crate::uop::SchedUop;
use ballerino_isa::PhysReg;
use std::collections::VecDeque;

/// DNB configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnbConfig {
    /// Out-of-order IQ entries (much smaller than the baseline 96).
    pub ooo_entries: usize,
    /// Bypass (ready) queue entries.
    pub bypass_entries: usize,
    /// Delay queue entries.
    pub delay_entries: usize,
    /// Cycles a delay-queue μop is held before becoming issue-eligible.
    pub delay_cycles: u64,
    /// Issue slots for the in-order structures per cycle.
    pub inorder_ports: usize,
}

impl Default for DnbConfig {
    fn default() -> Self {
        DnbConfig {
            ooo_entries: 32,
            bypass_entries: 32,
            delay_entries: 32,
            delay_cycles: 3,
            inorder_ports: 4,
        }
    }
}

/// The DNB scheduler.
#[derive(Debug)]
pub struct Dnb {
    cfg: DnbConfig,
    ooo: OooIq,
    bypass: VecDeque<SchedUop>,
    /// (release cycle, μop)
    delay: VecDeque<(u64, SchedUop)>,
    /// Wakeup state for the in-order structures (the embedded OoO IQ
    /// keeps its own fabric; its seqs leave gaps here, which the
    /// seq-indexed slab tolerates).
    fabric: WakeFabric,
    energy: SchedEnergyEvents,
    breakdown: IssueBreakdown,
}

impl Dnb {
    /// Builds an empty DNB scheduler.
    pub fn new(cfg: DnbConfig) -> Self {
        let ooo = OooIq::new(OooIqConfig {
            entries: cfg.ooo_entries,
            oldest_first: false,
        });
        Dnb {
            cfg,
            ooo,
            bypass: VecDeque::new(),
            delay: VecDeque::new(),
            fabric: WakeFabric::new(),
            energy: SchedEnergyEvents::default(),
            breakdown: IssueBreakdown::default(),
        }
    }

    /// Occupancy of the small out-of-order IQ (tests/diagnostics).
    pub fn ooo_len(&self) -> usize {
        self.ooo.occupancy()
    }
}

impl Scheduler for Dnb {
    fn name(&self) -> &str {
        "dnb"
    }

    fn try_dispatch(&mut self, uop: SchedUop, ctx: &ReadyCtx<'_>) -> DispatchOutcome {
        self.energy.head_examinations += 1; // classification logic
        if ctx.is_ready(&uop) {
            if self.bypass.len() >= self.cfg.bypass_entries {
                return DispatchOutcome::Stall(StallReason::Full);
            }
            self.energy.queue_writes += 1;
            self.fabric.insert(&uop, 0, ctx);
            self.bypass.push_back(uop);
            return DispatchOutcome::Accepted;
        }
        // Criticality: dependence on an in-flight load means the wait is
        // long/unpredictable — that is what the OoO IQ is for.
        if uop.load_dep || uop.is_load() {
            return self.ooo.try_dispatch(uop, ctx);
        }
        if self.delay.len() >= self.cfg.delay_entries {
            return DispatchOutcome::Stall(StallReason::Full);
        }
        self.energy.queue_writes += 1;
        self.fabric.insert(&uop, 0, ctx);
        self.delay
            .push_back((ctx.cycle + self.cfg.delay_cycles, uop));
        DispatchOutcome::Accepted
    }

    fn issue(&mut self, ctx: &ReadyCtx<'_>, ports: &mut PortAlloc<'_>, out: &mut Vec<u64>) {
        // Small OoO IQ has priority (it holds the critical slices).
        self.ooo.issue(ctx, ports, out);

        self.fabric.poll(ctx);
        // In-order structures share a port budget.
        let mut grants = self.cfg.inorder_ports;
        while grants > 0 {
            let Some(head) = self.bypass.front() else {
                break;
            };
            self.energy.head_examinations += 1;
            if self.fabric.state(head.seq) != WakeState::Ready
                || !ports.try_claim(head.port, head.class)
            {
                break;
            }
            let u = self.bypass.pop_front().expect("head");
            self.fabric.remove(u.seq);
            self.energy.queue_reads += 1;
            self.breakdown.from_inorder += 1;
            out.push(u.seq);
            grants -= 1;
        }
        while grants > 0 {
            let Some((release, head)) = self.delay.front() else {
                break;
            };
            self.energy.head_examinations += 1;
            if *release > ctx.cycle || self.fabric.state(head.seq) != WakeState::Ready {
                break;
            }
            if !ports.try_claim(head.port, head.class) {
                break;
            }
            let (_, u) = self.delay.pop_front().expect("head");
            self.fabric.remove(u.seq);
            self.energy.queue_reads += 1;
            self.breakdown.from_siq += 1; // delay-queue issues
            out.push(u.seq);
            grants -= 1;
        }
    }

    fn on_complete(&mut self, dst: PhysReg) {
        self.ooo.on_complete(dst);
        self.fabric.on_complete(dst);
    }

    fn flush_after(&mut self, seq: u64, flushed_dests: &[PhysReg]) {
        self.ooo.flush_after(seq, flushed_dests);
        while self.bypass.back().map(|u| u.seq > seq).unwrap_or(false) {
            self.bypass.pop_back();
        }
        while self.delay.back().map(|(_, u)| u.seq > seq).unwrap_or(false) {
            self.delay.pop_back();
        }
        self.fabric.flush_after(seq);
    }

    fn occupancy(&self) -> usize {
        self.ooo.occupancy() + self.bypass.len() + self.delay.len()
    }

    fn capacity(&self) -> usize {
        self.cfg.ooo_entries + self.cfg.bypass_entries + self.cfg.delay_entries
    }

    fn energy_events(&self) -> SchedEnergyEvents {
        let mut e = self.ooo.energy_events();
        e.add(&self.energy);
        e
    }

    fn issue_breakdown(&self) -> IssueBreakdown {
        let mut b = self.ooo.issue_breakdown();
        let own = self.breakdown;
        b.from_inorder += own.from_inorder;
        b.from_siq += own.from_siq;
        b
    }

    fn next_event_cycle(&self, ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>) -> Option<u64> {
        if !self.bypass.is_empty() {
            return None; // bypass heads are ready by construction
        }
        // Pending routing is DNB-specific, so the inner IQ only answers
        // for its residents.
        let mut horizon = self.ooo.next_event_cycle(ctx, None)?;
        if let Some((release, head)) = self.delay.front() {
            let eligible = (*release).max(ctx.wake_cycle(head));
            if eligible <= ctx.cycle {
                return None; // delay head is issue-eligible right now
            }
            horizon = horizon.min(eligible);
        }
        if let Some(p) = pending {
            let wake = ctx.wake_cycle(p);
            if wake <= ctx.cycle {
                return None; // would enter the (empty) bypass queue now
            }
            if p.load_dep || p.is_load() {
                if self.ooo.occupancy() < self.cfg.ooo_entries {
                    return None; // critical route accepts non-ready μops
                }
            } else if self.delay.len() < self.cfg.delay_entries {
                return None; // delay route accepts now
            }
            if wake != u64::MAX {
                // At `wake` the μop classifies as ready and re-routes to
                // the bypass queue, which has space (it is empty).
                horizon = horizon.min(wake);
            }
        }
        Some(horizon)
    }

    fn note_idle_cycles(&mut self, ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>, k: u64) {
        if pending.is_some() {
            self.energy.head_examinations += k; // classification per retry
        }
        if !self.delay.is_empty() {
            self.energy.head_examinations += k; // stalled delay head examined
        }
        self.ooo.note_idle_cycles(ctx, None, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::held::HeldSet;
    use crate::ports::FuBusy;
    use crate::scoreboard::Scoreboard;
    use ballerino_isa::{OpClass, PortId};

    fn op(seq: u64, port: u8, src: Option<u32>) -> SchedUop {
        SchedUop {
            port: PortId(port),
            srcs: [src.map(PhysReg), None],
            ..SchedUop::test_op(seq)
        }
    }

    fn issue_once(d: &mut Dnb, scb: &Scoreboard, cycle: u64) -> Vec<u64> {
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle,
            scb,
            held: &held,
        };
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, cycle);
        let mut out = Vec::new();
        d.issue(&ctx, &mut pa, &mut out);
        out
    }

    #[test]
    fn ready_ops_take_the_bypass_queue() {
        let mut d = Dnb::new(DnbConfig::default());
        let scb = Scoreboard::new(64);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        d.try_dispatch(op(1, 0, None), &ctx);
        assert_eq!(d.ooo_len(), 0);
        let out = issue_once(&mut d, &scb, 0);
        assert_eq!(out, vec![1]);
        assert_eq!(d.issue_breakdown().from_inorder, 1);
    }

    #[test]
    fn load_dependents_take_the_small_ooo_iq() {
        let mut d = Dnb::new(DnbConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(10));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        let mut u = op(1, 0, Some(10));
        u.load_dep = true;
        d.try_dispatch(u, &ctx);
        assert_eq!(d.ooo_len(), 1);
        scb.set_ready_at(PhysReg(10), 30);
        d.on_complete(PhysReg(10));
        let out = issue_once(&mut d, &scb, 30);
        assert_eq!(out, vec![1]);
        assert_eq!(d.issue_breakdown().from_ooo, 1);
    }

    #[test]
    fn non_critical_non_ready_ops_wait_in_the_delay_queue() {
        let mut d = Dnb::new(DnbConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(10));
        scb.set_ready_at(PhysReg(10), 1); // short-latency producer
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        d.try_dispatch(op(1, 0, Some(10)), &ctx);
        d.on_complete(PhysReg(10)); // writeback edge at the producer's ready cycle
        assert_eq!(d.ooo_len(), 0);
        // Not issuable before the fixed delay expires.
        assert!(issue_once(&mut d, &scb, 1).is_empty());
        assert_eq!(issue_once(&mut d, &scb, 3), vec![1]);
    }

    #[test]
    fn delay_queue_is_in_order() {
        let mut d = Dnb::new(DnbConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(10)); // never ready
        scb.allocate(PhysReg(11));
        scb.set_ready_at(PhysReg(11), 1);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        d.try_dispatch(op(1, 0, Some(10)), &ctx);
        d.try_dispatch(op(2, 1, Some(11)), &ctx);
        assert!(
            issue_once(&mut d, &scb, 10).is_empty(),
            "head blocks the delay queue"
        );
    }

    #[test]
    fn loads_are_treated_as_critical() {
        let mut d = Dnb::new(DnbConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(10));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        let mut ld = op(1, 2, Some(10));
        ld.class = OpClass::Load;
        d.try_dispatch(ld, &ctx);
        assert_eq!(d.ooo_len(), 1);
    }

    #[test]
    fn flush_trims_all_three_structures() {
        let mut d = Dnb::new(DnbConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(10));
        scb.allocate(PhysReg(11));
        scb.set_ready_at(PhysReg(11), 1);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        d.try_dispatch(op(1, 0, None), &ctx); // bypass
        let mut crit = op(2, 1, Some(10));
        crit.load_dep = true;
        d.try_dispatch(crit, &ctx); // ooo
        d.try_dispatch(op(3, 2, Some(11)), &ctx); // delay
        assert_eq!(d.occupancy(), 3);
        d.flush_after(1, &[]);
        assert_eq!(d.occupancy(), 1);
    }
}
