//! Load-delay-tracking issue queue (`LDT`): the Diavastos & Carlson
//! real-time load-delay-tracking scheduler, an extension kind the source
//! paper never evaluated (see PAPERS.md, *Efficient Instruction
//! Scheduling using Real-time Load Delay Tracking*).
//!
//! Each dispatched μop is annotated with a *predicted ready cycle*
//! derived from a per-physical-register [`DelayTable`] (the delay
//! analogue of [`LocTable`](crate::loc::LocTable)): a μop's prediction is
//! the latest predicted ready cycle of its sources, and its destination
//! inherits that prediction plus the producer's latency — a tracked
//! running estimate for loads, a fixed short latency for everything
//! else. Select then grants *soonest-predicted-ready first* instead of
//! lowest-slot-first: the prediction is encoded in the high bits of the
//! [`WakeFabric`] entry tag, so the shared select/port-claim loop
//! realises the delay-sorted ready structure with no extra machinery.
//!
//! The load-delay estimate itself is updated *in real time*: every
//! issued load is watched, and once the scoreboard publishes its actual
//! completion cycle the observed delay folds into an exponential moving
//! average. No memory-level profiling, no static tables.
//!
//! [`Ldt::with_broadcast_wakeup`] keeps a legacy O(window) scan decision
//! path as a test reference, exactly like the unified
//! [`OooIq`](crate::ooo::OooIq).

use crate::fabric::WakeFabric;
use crate::ports::PortAlloc;
use crate::stats::{IssueBreakdown, SchedEnergyEvents};
use crate::traits::{DispatchOutcome, ReadyCtx, Scheduler, StallReason};
use crate::uop::SchedUop;
use ballerino_isa::{PhysReg, MAX_PORTS};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Bits of the fabric tag reserved for the slot index; the predicted
/// delay occupies the bits above. Slot bits make every resident's tag
/// unique, so select never breaks a priority tie by ready-list order.
const SLOT_BITS: u32 = 10;
/// Maximum window size the tag encoding supports.
const MAX_SLOTS: usize = 1 << SLOT_BITS;
/// Mask extracting the slot index from a tag.
const SLOT_MASK: u32 = (1 << SLOT_BITS) - 1;
/// Predicted delays saturate here so the tag stays within `u32`.
const DELAY_CLAMP: u64 = (1 << (32 - SLOT_BITS - 1)) - 1;

/// Per-physical-register predicted-ready-cycle table (the delay
/// analogue of [`LocTable`](crate::loc::LocTable)). A zero entry means
/// "no prediction": the value is treated as ready now.
#[derive(Debug, Clone)]
pub struct DelayTable {
    entries: Vec<u64>,
    /// Table reads performed (energy accounting).
    pub reads: u64,
    /// Table writes performed.
    pub writes: u64,
}

impl DelayTable {
    /// Creates a table for `n` physical registers, all unpredicted.
    pub fn new(n: usize) -> Self {
        DelayTable {
            entries: vec![0; n],
            reads: 0,
            writes: 0,
        }
    }

    /// Reads the predicted ready cycle for `p` (0 when unpredicted).
    pub fn predicted_ready(&mut self, p: PhysReg) -> u64 {
        self.reads += 1;
        self.entries[p.index()]
    }

    /// Reads without counting (read-only replicas, tests).
    pub fn peek(&self, p: PhysReg) -> u64 {
        self.entries[p.index()]
    }

    /// Records that `p`'s value is predicted ready at `cycle`.
    pub fn set_predicted(&mut self, p: PhysReg, cycle: u64) {
        self.writes += 1;
        self.entries[p.index()] = cycle;
    }

    /// Clears the prediction (value produced, or producer squashed).
    pub fn clear(&mut self, p: PhysReg) {
        self.writes += 1;
        self.entries[p.index()] = 0;
    }
}

/// Configuration of the load-delay-tracking IQ.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LdtConfig {
    /// IQ entries (Table II budgets; at most `MAX_SLOTS`).
    pub entries: usize,
    /// Physical registers the delay table covers.
    pub num_phys_regs: usize,
}

impl Default for LdtConfig {
    fn default() -> Self {
        LdtConfig {
            entries: 96,
            num_phys_regs: 512,
        }
    }
}

/// The load-delay-tracking issue queue.
#[derive(Debug)]
pub struct Ldt {
    cfg: LdtConfig,
    slots: Vec<Option<SchedUop>>,
    /// Fabric tag per occupied slot: `(predicted delay << SLOT_BITS) |
    /// slot`, so select order is soonest-predicted-ready first (slot
    /// index breaks ties and keeps tags unique).
    tags: Vec<u32>,
    occupancy: usize,
    /// Min-heap of free slot indices (lowest slot reused first, as in
    /// the unified OoO IQ).
    free_slots: BinaryHeap<Reverse<usize>>,
    fabric: WakeFabric,
    dt: DelayTable,
    /// Running load-delay estimate in cycles (EWMA of observed delays).
    tracked_delay: u64,
    /// Issued loads awaiting delay observation: `(dst, issue cycle)`.
    /// The scoreboard publishes the actual completion cycle the same
    /// cycle a load issues, so the queue fully drains at the next
    /// scheduler activity.
    inflight: VecDeque<(PhysReg, u64)>,
    /// Test reference: decide issue/quiesce from the legacy O(window)
    /// scan instead of the fabric.
    broadcast_wakeup: bool,
    energy: SchedEnergyEvents,
    breakdown: IssueBreakdown,
}

/// Initial load-delay estimate before any observation (roughly an L1
/// hit).
const INITIAL_TRACKED_DELAY: u64 = 4;

impl Ldt {
    /// Builds an empty IQ.
    pub fn new(cfg: LdtConfig) -> Self {
        assert!(cfg.entries <= MAX_SLOTS, "LDT window exceeds tag encoding");
        let slots = vec![None; cfg.entries];
        let tags = vec![0; cfg.entries];
        let free_slots = (0..cfg.entries).map(Reverse).collect();
        let dt = DelayTable::new(cfg.num_phys_regs);
        Ldt {
            cfg,
            slots,
            tags,
            occupancy: 0,
            free_slots,
            fabric: WakeFabric::new(),
            dt,
            tracked_delay: INITIAL_TRACKED_DELAY,
            inflight: VecDeque::new(),
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

    /// Current load-delay estimate (tests/diagnostics).
    pub fn tracked_delay(&self) -> u64 {
        self.tracked_delay
    }

    /// Folds completed load observations into the running delay
    /// estimate. The scoreboard publishes a load's completion cycle the
    /// same cycle it issues, so every queued observation resolves here;
    /// entries whose register was reallocated in the meantime (only
    /// possible after a flush) are discarded.
    fn observe_loads(&mut self, ctx: &ReadyCtx<'_>) {
        while let Some(&(dst, issued_at)) = self.inflight.front() {
            self.inflight.pop_front();
            let rc = ctx.scb.ready_cycle(dst);
            if rc == u64::MAX {
                continue; // reallocated before observation; no sample
            }
            let observed = rc.saturating_sub(issued_at);
            self.tracked_delay = ((3 * self.tracked_delay + observed) / 4).max(1);
            self.energy.loc_writes += 1; // delay-estimate register update
        }
    }

    /// Bookkeeping for one granted slot: frees it, charges the read,
    /// queues the load-delay observation.
    fn grant_slot(&mut self, i: usize, cycle: u64, out: &mut Vec<u64>) {
        let u = self.slots[i].take().expect("granted slot");
        self.free_slots.push(Reverse(i));
        self.occupancy -= 1;
        self.energy.queue_reads += 1;
        self.breakdown.from_ooo += 1;
        if u.is_load() {
            if let Some(d) = u.dst {
                self.inflight.push_back((d, cycle));
            }
        }
        out.push(u.seq);
        self.fabric.remove(u.seq);
    }

    /// Single-pass select over all slots (the legacy scan path):
    /// identical grant decisions to the fabric's delay-sorted select,
    /// derived from a full window scan. Priority is the stored tag —
    /// lowest predicted delay first, slot index breaking ties.
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
                Some(b) => self.tags[i] < self.tags[b],
            };
            if better {
                *best = Some(i);
            }
        }
        let mut n = 0;
        while ports.remaining() > 0 {
            let mut best: Option<usize> = None;
            for cand in best_per_port.iter().flatten() {
                let better = match best {
                    None => true,
                    Some(b) => self.tags[*cand] < self.tags[b],
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
}

impl Scheduler for Ldt {
    fn name(&self) -> &str {
        "ldt"
    }

    fn try_dispatch(&mut self, uop: SchedUop, ctx: &ReadyCtx<'_>) -> DispatchOutcome {
        match self.free_slots.pop() {
            Some(Reverse(i)) => {
                debug_assert!(self.slots[i].is_none(), "free list out of sync");
                // Predicted ready cycle: the latest source prediction,
                // floored at now (stale predictions never sort a ready
                // μop behind the present).
                let mut pred = ctx.cycle;
                for src in uop.srcs.iter().flatten() {
                    pred = pred.max(self.dt.predicted_ready(*src));
                }
                if let Some(d) = uop.dst {
                    let lat = if uop.is_load() {
                        self.tracked_delay
                    } else {
                        uop.class.exec_latency() as u64
                    };
                    self.dt.set_predicted(d, pred + lat);
                }
                let delay = pred.saturating_sub(ctx.cycle).min(DELAY_CLAMP) as u32;
                let tag = (delay << SLOT_BITS) | i as u32;
                self.tags[i] = tag;
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
        // Wakeup evaluates every occupied entry each cycle — a modelled
        // hardware event, charged whether or not the simulator scans.
        self.energy.head_examinations += self.occupancy as u64;
        self.observe_loads(ctx);

        if self.broadcast_wakeup {
            let mut grants = [0usize; MAX_PORTS];
            let (any_request, n) = self.select_single_pass(ctx, ports, &mut grants);
            if any_request {
                self.energy.select_inputs += (self.cfg.entries * MAX_PORTS.min(8)) as u64;
            }
            for &i in &grants[..n] {
                self.grant_slot(i, ctx.cycle, out);
            }
            return;
        }

        self.fabric.poll(ctx);
        let any_request = self.fabric.select(ports, false);
        if any_request {
            // The delay-sorted select circuit still spans all entries.
            self.energy.select_inputs += (self.cfg.entries * MAX_PORTS.min(8)) as u64;
        }
        for k in 0..self.fabric.grant_count() {
            let seq = self.fabric.grant(k);
            let i = (self.fabric.tag_of(seq) & SLOT_MASK) as usize;
            debug_assert_eq!(self.slots[i].as_ref().map(|u| u.seq), Some(seq));
            self.grant_slot(i, ctx.cycle, out);
        }
    }

    fn on_complete(&mut self, dst: PhysReg) {
        // Destination tag broadcast across the CAM wakeup array.
        self.energy.cam_broadcasts += 1;
        self.energy.cam_entries_searched += self.cfg.entries as u64;
        // The value exists: its delay prediction is spent.
        self.dt.clear(dst);
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
        for d in flushed_dests {
            self.dt.clear(*d);
        }
        // Squashed issued loads must not contribute delay samples: their
        // registers roll back to stale-but-ready architectural values.
        self.inflight.retain(|(d, _)| !flushed_dests.contains(d));
    }

    fn occupancy(&self) -> usize {
        self.occupancy
    }

    fn capacity(&self) -> usize {
        self.cfg.entries
    }

    fn energy_events(&self) -> SchedEnergyEvents {
        let mut e = self.energy;
        e.loc_reads += self.dt.reads;
        e.loc_writes += self.dt.writes;
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
                    return None;
                }
                horizon = horizon.min(wake);
            }
            return Some(horizon);
        }
        self.fabric.min_wake(ctx)
    }

    fn note_idle_cycles(&mut self, ctx: &ReadyCtx<'_>, _pending: Option<&SchedUop>, k: u64) {
        // Idle wakeup still evaluates every occupied entry each cycle.
        self.energy.head_examinations += k * self.occupancy as u64;
        // The first idle `issue` call would have drained the observation
        // queue (it only runs with residents present, matching `issue`'s
        // empty-window early return); the queue cannot refill during an
        // idle window, so one drain replicates all k.
        if self.occupancy > 0 {
            self.observe_loads(ctx);
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

    fn op(seq: u64, port: u8, src: Option<u32>) -> SchedUop {
        SchedUop {
            port: PortId(port),
            srcs: [src.map(PhysReg), None],
            ..SchedUop::test_op(seq)
        }
    }

    fn load(seq: u64, port: u8, dst: u32) -> SchedUop {
        SchedUop {
            class: OpClass::Load,
            dst: Some(PhysReg(dst)),
            ..op(seq, port, None)
        }
    }

    fn issue_once(iq: &mut Ldt, scb: &Scoreboard, cycle: u64) -> Vec<u64> {
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
        let mut iq = Ldt::new(LdtConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(1)); // op 0's source never ready
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        iq.try_dispatch(op(0, 0, Some(1)), &ctx);
        iq.try_dispatch(op(1, 1, None), &ctx);
        iq.try_dispatch(op(2, 2, None), &ctx);
        let out = issue_once(&mut iq, &scb, 0);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(iq.occupancy(), 1);
    }

    #[test]
    fn select_prefers_the_soonest_predicted_ready() {
        let mut iq = Ldt::new(LdtConfig::default());
        let scb = Scoreboard::new(64);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        // A load annotates its destination with the tracked delay; a
        // consumer dispatched before the wakeup clears the prediction
        // inherits it and sorts behind a zero-delay rival on the same
        // port — even though the consumer holds the lower slot *and*
        // the lower seq (an OoO IQ would grant it either way).
        iq.try_dispatch(load(0, 0, 10), &ctx);
        let _ = issue_once(&mut iq, &scb, 0); // load issues from slot 0
        iq.try_dispatch(op(1, 3, Some(10)), &ctx); // slot 0, predicted late
        iq.try_dispatch(op(2, 3, None), &ctx); // slot 1, predicted now
        let out = issue_once(&mut iq, &scb, 0);
        assert_eq!(out, vec![2]);
        assert_eq!(issue_once(&mut iq, &scb, 1), vec![1]);
    }

    #[test]
    fn tracked_delay_adapts_to_observed_load_latency() {
        let mut iq = Ldt::new(LdtConfig::default());
        let mut scb = Scoreboard::new(64);
        let held = HeldSet::new();
        assert_eq!(iq.tracked_delay(), INITIAL_TRACKED_DELAY);
        scb.allocate(PhysReg(11));
        {
            let ctx = ReadyCtx {
                cycle: 0,
                scb: &scb,
                held: &held,
            };
            iq.try_dispatch(load(0, 0, 10), &ctx);
            iq.try_dispatch(op(1, 1, Some(11)), &ctx); // keeps the window occupied
        }
        let out = issue_once(&mut iq, &scb, 0);
        assert_eq!(out, vec![0]);
        // The core would publish the load's completion at issue time.
        scb.set_ready_at(PhysReg(10), 20);
        let _ = issue_once(&mut iq, &scb, 1); // drains the observation
        assert_eq!(iq.tracked_delay(), (3 * INITIAL_TRACKED_DELAY + 20) / 4);
    }

    #[test]
    fn full_queue_stalls() {
        let mut iq = Ldt::new(LdtConfig {
            entries: 1,
            ..LdtConfig::default()
        });
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        assert_eq!(
            iq.try_dispatch(op(0, 0, Some(1)), &ctx),
            DispatchOutcome::Accepted
        );
        assert_eq!(
            iq.try_dispatch(op(1, 1, None), &ctx),
            DispatchOutcome::Stall(StallReason::Full)
        );
    }

    #[test]
    fn flush_clears_younger_slots_and_predictions() {
        let mut iq = Ldt::new(LdtConfig::default());
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        for i in 0..5 {
            let mut u = op(i, i as u8, Some(1));
            u.dst = Some(PhysReg(20 + i as u32));
            iq.try_dispatch(u, &ctx);
        }
        let dests: Vec<PhysReg> = (2..5).map(|i| PhysReg(20 + i)).collect();
        iq.flush_after(1, &dests);
        assert_eq!(iq.occupancy(), 2);
        for d in &dests {
            assert_eq!(iq.dt.peek(*d), 0);
        }
        assert_ne!(iq.dt.peek(PhysReg(20)), 0);
    }

    #[test]
    fn delay_table_charges_fold_into_energy() {
        let mut iq = Ldt::new(LdtConfig::default());
        let scb = Scoreboard::new(64);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        // One source read + one destination write.
        let mut u = op(0, 0, Some(1));
        u.dst = Some(PhysReg(2));
        let mut scb2 = Scoreboard::new(64);
        scb2.allocate(PhysReg(1));
        let ctx2 = ReadyCtx {
            cycle: 0,
            scb: &scb2,
            held: &held,
        };
        iq.try_dispatch(u, &ctx2);
        let e = iq.energy_events();
        assert_eq!(e.loc_reads, 1);
        assert_eq!(e.loc_writes, 1);
        // Wakeup clears the prediction: one more counted write.
        iq.on_complete(PhysReg(2));
        assert_eq!(iq.energy_events().loc_writes, 2);
        let _ = ctx;
    }

    #[test]
    fn wakeup_charges_cam_energy() {
        let mut iq = Ldt::new(LdtConfig::default());
        iq.on_complete(PhysReg(0));
        iq.on_complete(PhysReg(1));
        let e = iq.energy_events();
        assert_eq!(e.cam_broadcasts, 2);
        assert_eq!(e.cam_entries_searched, 2 * 96);
    }

    #[test]
    fn broadcast_path_matches_fabric_grants() {
        let mut f = Ldt::new(LdtConfig::default());
        let mut b = Ldt::new(LdtConfig::default()).with_broadcast_wakeup();
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        {
            let ctx = ReadyCtx {
                cycle: 0,
                scb: &scb,
                held: &held,
            };
            for iq in [&mut f, &mut b] {
                iq.try_dispatch(load(0, 0, 10), &ctx);
                iq.try_dispatch(op(1, 3, Some(10)), &ctx);
                iq.try_dispatch(op(2, 3, None), &ctx);
                iq.try_dispatch(op(3, 1, Some(1)), &ctx);
            }
        }
        for cycle in 0..4 {
            if cycle == 2 {
                scb.set_ready_at(PhysReg(1), 2);
                f.on_complete(PhysReg(1));
                b.on_complete(PhysReg(1));
            }
            let of = issue_once(&mut f, &scb, cycle);
            let ob = issue_once(&mut b, &scb, cycle);
            assert_eq!(of, ob, "cycle {cycle}");
        }
        assert_eq!(f.occupancy(), b.occupancy());
    }
}
