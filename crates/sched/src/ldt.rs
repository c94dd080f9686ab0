//! Real-time load-delay tracking (Diavastos & Carlson, see PAPERS.md,
//! *Efficient Instruction Scheduling using Real-time Load Delay
//! Tracking*), an extension the source paper never evaluated.
//!
//! A [`LoadDelayTracker`] annotates each dispatched μop with a
//! *predicted ready cycle* from a per-physical-register [`DelayTable`]
//! (the delay analogue of [`LocTable`](crate::loc::LocTable)): a μop's
//! prediction is the latest predicted ready cycle of its sources, and
//! its destination inherits that prediction plus the producer's latency
//! — a tracked running estimate for loads, a fixed short latency for
//! everything else.
//!
//! The load-delay estimate is updated *in real time*: every issued load
//! is watched, and once the scoreboard publishes its actual completion
//! cycle the observed delay folds into an exponential moving average.
//! No memory-level profiling, no static tables.
//!
//! Two schedulers consume the predictions. The `ldt` kind is the
//! unified [`OooIq`](crate::ooo::OooIq) under
//! [`SelectPolicy::PredictedReady`](crate::ooo::SelectPolicy): select
//! grants soonest-predicted-ready first. Ballerino-LDT (in
//! `ballerino-core`) steers memory μops behind the P-IQ tail whose
//! prediction best matches their own.

use crate::scoreboard::Scoreboard;
use crate::stats::SchedEnergyEvents;
use crate::uop::SchedUop;
use ballerino_isa::PhysReg;
use std::collections::VecDeque;

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

    /// Reads without counting (lookups that charge separately, tests).
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

/// Initial load-delay estimate before any observation (roughly an L1
/// hit).
pub const INITIAL_TRACKED_DELAY: u64 = 4;

/// The delay table plus the running load-delay estimate it feeds.
#[derive(Debug, Clone)]
pub struct LoadDelayTracker {
    table: DelayTable,
    /// Running load-delay estimate in cycles (EWMA of observed delays).
    estimate: u64,
    /// Issued loads awaiting delay observation: `(dst, issue cycle)`.
    /// The scoreboard publishes the actual completion cycle the same
    /// cycle a load issues, so the queue fully drains at the next
    /// [`LoadDelayTracker::observe`].
    inflight: VecDeque<(PhysReg, u64)>,
    /// Estimate-register updates (charged as location-table writes).
    updates: u64,
}

impl LoadDelayTracker {
    /// A tracker over `num_phys_regs` registers, nothing predicted yet.
    pub fn new(num_phys_regs: usize) -> Self {
        LoadDelayTracker {
            table: DelayTable::new(num_phys_regs),
            estimate: INITIAL_TRACKED_DELAY,
            inflight: VecDeque::new(),
            updates: 0,
        }
    }

    /// Current load-delay estimate.
    pub fn estimate(&self) -> u64 {
        self.estimate
    }

    /// `p`'s predicted ready cycle (0 when unpredicted), uncharged.
    pub fn predicted(&self, p: PhysReg) -> u64 {
        self.table.peek(p)
    }

    /// The latest predicted ready cycle among `uop`'s sources (0 when
    /// none is predicted), uncharged: pair with
    /// [`LoadDelayTracker::charge_reads`].
    pub fn source_prediction(&self, uop: &SchedUop) -> u64 {
        uop.srcs
            .iter()
            .flatten()
            .map(|s| self.table.peek(*s))
            .max()
            .unwrap_or(0)
    }

    /// Charges `n` table reads made through the uncharged lookups.
    pub fn charge_reads(&mut self, n: u64) {
        self.table.reads += n;
    }

    /// Annotates a dispatched μop: reads its sources' predictions and
    /// writes its destination's. Returns the μop's own predicted ready
    /// cycle, floored at `cycle` (a stale prediction never sorts a
    /// ready μop behind the present).
    pub fn annotate(&mut self, uop: &SchedUop, cycle: u64) -> u64 {
        let mut pred = cycle;
        for src in uop.srcs.iter().flatten() {
            pred = pred.max(self.table.predicted_ready(*src));
        }
        if let Some(d) = uop.dst {
            let lat = if uop.is_load() {
                self.estimate
            } else {
                uop.class.exec_latency() as u64
            };
            self.table.set_predicted(d, pred + lat);
        }
        pred
    }

    /// Queues an issued load for delay observation.
    pub fn note_issue(&mut self, uop: &SchedUop, cycle: u64) {
        if uop.is_load() {
            if let Some(d) = uop.dst {
                self.inflight.push_back((d, cycle));
            }
        }
    }

    /// Folds every queued observation into the running estimate. An
    /// entry whose register was reallocated in the meantime (only
    /// possible after a flush) gives no sample.
    pub fn observe(&mut self, scb: &Scoreboard) {
        while let Some((dst, issued_at)) = self.inflight.pop_front() {
            let rc = scb.ready_cycle(dst);
            if rc == u64::MAX {
                continue;
            }
            let observed = rc.saturating_sub(issued_at);
            self.estimate = ((3 * self.estimate + observed) / 4).max(1);
            self.updates += 1;
        }
    }

    /// The value of `dst` exists: its prediction is spent.
    pub fn complete(&mut self, dst: PhysReg) {
        self.table.clear(dst);
    }

    /// Drops the predictions of squashed producers, and the pending
    /// samples of squashed loads: their registers roll back to
    /// stale-but-ready architectural values.
    pub fn flush(&mut self, flushed_dests: &[PhysReg]) {
        for d in flushed_dests {
            self.table.clear(*d);
        }
        self.inflight.retain(|(d, _)| !flushed_dests.contains(d));
    }

    /// Table reads, and table writes plus estimate updates, as
    /// location-table events.
    pub fn charges(&self) -> SchedEnergyEvents {
        SchedEnergyEvents {
            loc_reads: self.table.reads,
            loc_writes: self.table.writes + self.updates,
            ..SchedEnergyEvents::default()
        }
    }
}

/// The `ldt` kind's tests: the unified window under the predicted-ready
/// policy, and the tracker on its own.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::held::HeldSet;
    use crate::ooo::{OooIq, OooIqConfig, SelectPolicy};
    use crate::ports::{FuBusy, PortAlloc};
    use crate::traits::{DispatchOutcome, ReadyCtx, Scheduler, StallReason};
    use ballerino_isa::{OpClass, PortId};

    fn ldt_cfg() -> OooIqConfig {
        OooIqConfig {
            policy: SelectPolicy::PredictedReady { num_phys_regs: 512 },
            ..OooIqConfig::default()
        }
    }

    fn ldt_iq() -> OooIq {
        OooIq::new(ldt_cfg())
    }

    fn tracker(iq: &OooIq) -> &LoadDelayTracker {
        iq.load_delay_tracker().expect("predicted-ready window")
    }

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

    fn ctx<'a>(cycle: u64, scb: &'a Scoreboard, held: &'a HeldSet) -> ReadyCtx<'a> {
        ReadyCtx { cycle, scb, held }
    }

    fn issue_once(iq: &mut OooIq, scb: &Scoreboard, cycle: u64) -> Vec<u64> {
        let held = HeldSet::new();
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, cycle);
        let mut out = Vec::new();
        iq.issue(&ctx(cycle, scb, &held), &mut pa, &mut out);
        out
    }

    #[test]
    fn issues_ready_ops_out_of_order() {
        let mut iq = ldt_iq();
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(1)); // op 0's source never ready
        let held = HeldSet::new();
        let c = ctx(0, &scb, &held);
        iq.try_dispatch(op(0, 0, Some(1)), &c);
        iq.try_dispatch(op(1, 1, None), &c);
        iq.try_dispatch(op(2, 2, None), &c);
        let out = issue_once(&mut iq, &scb, 0);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(iq.occupancy(), 1);
        assert_eq!(iq.name(), "ldt");
    }

    #[test]
    fn select_prefers_the_soonest_predicted_ready() {
        let mut iq = ldt_iq();
        let scb = Scoreboard::new(64);
        let held = HeldSet::new();
        let c = ctx(0, &scb, &held);
        // A load annotates its destination with the tracked delay; a
        // consumer dispatched before the wakeup clears the prediction
        // inherits it and sorts behind a zero-delay rival on the same
        // port — even though the consumer holds the lower slot *and*
        // the lower seq (an OoO IQ would grant it either way).
        iq.try_dispatch(load(0, 0, 10), &c);
        let _ = issue_once(&mut iq, &scb, 0); // load issues from slot 0
        iq.try_dispatch(op(1, 3, Some(10)), &c); // slot 0, predicted late
        iq.try_dispatch(op(2, 3, None), &c); // slot 1, predicted now
        let out = issue_once(&mut iq, &scb, 0);
        assert_eq!(out, vec![2]);
        assert_eq!(issue_once(&mut iq, &scb, 1), vec![1]);
    }

    #[test]
    fn tracked_delay_adapts_to_observed_load_latency() {
        let mut iq = ldt_iq();
        let mut scb = Scoreboard::new(64);
        let held = HeldSet::new();
        assert_eq!(tracker(&iq).estimate(), INITIAL_TRACKED_DELAY);
        scb.allocate(PhysReg(11));
        {
            let c = ctx(0, &scb, &held);
            iq.try_dispatch(load(0, 0, 10), &c);
            iq.try_dispatch(op(1, 1, Some(11)), &c); // keeps the window occupied
        }
        let out = issue_once(&mut iq, &scb, 0);
        assert_eq!(out, vec![0]);
        // The core would publish the load's completion at issue time.
        scb.set_ready_at(PhysReg(10), 20);
        let _ = issue_once(&mut iq, &scb, 1); // drains the observation
        assert_eq!(
            tracker(&iq).estimate(),
            (3 * INITIAL_TRACKED_DELAY + 20) / 4
        );
    }

    #[test]
    fn full_queue_stalls() {
        let mut iq = OooIq::new(OooIqConfig {
            entries: 1,
            ..ldt_cfg()
        });
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        let c = ctx(0, &scb, &held);
        assert_eq!(
            iq.try_dispatch(op(0, 0, Some(1)), &c),
            DispatchOutcome::Accepted
        );
        assert_eq!(
            iq.try_dispatch(op(1, 1, None), &c),
            DispatchOutcome::Stall(StallReason::Full)
        );
        // A refused dispatch annotates nothing.
        assert_eq!(tracker(&iq).charges().loc_reads, 1);
    }

    #[test]
    fn flush_clears_younger_slots_and_predictions() {
        let mut iq = ldt_iq();
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        let c = ctx(0, &scb, &held);
        for i in 0..5 {
            let mut u = op(i, i as u8, Some(1));
            u.dst = Some(PhysReg(20 + i as u32));
            iq.try_dispatch(u, &c);
        }
        let dests: Vec<PhysReg> = (2..5).map(|i| PhysReg(20 + i)).collect();
        iq.flush_after(1, &dests);
        assert_eq!(iq.occupancy(), 2);
        for d in &dests {
            assert_eq!(tracker(&iq).predicted(*d), 0);
        }
        assert_ne!(tracker(&iq).predicted(PhysReg(20)), 0);
    }

    #[test]
    fn delay_table_charges_fold_into_energy() {
        let mut iq = ldt_iq();
        let held = HeldSet::new();
        // One source read + one destination write.
        let mut u = op(0, 0, Some(1));
        u.dst = Some(PhysReg(2));
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(1));
        iq.try_dispatch(u, &ctx(0, &scb, &held));
        let e = iq.energy_events();
        assert_eq!(e.loc_reads, 1);
        assert_eq!(e.loc_writes, 1);
        // Wakeup clears the prediction: one more counted write.
        iq.on_complete(PhysReg(2));
        assert_eq!(iq.energy_events().loc_writes, 2);
    }

    #[test]
    fn wakeup_charges_cam_energy() {
        let mut iq = ldt_iq();
        iq.on_complete(PhysReg(0));
        iq.on_complete(PhysReg(1));
        let e = iq.energy_events();
        assert_eq!(e.cam_broadcasts, 2);
        assert_eq!(e.cam_entries_searched, 2 * 96);
    }

    #[test]
    fn broadcast_path_matches_fabric_grants() {
        let mut f = ldt_iq();
        let mut b = ldt_iq().with_broadcast_wakeup();
        let mut scb = Scoreboard::new(64);
        scb.allocate(PhysReg(1));
        let held = HeldSet::new();
        {
            let c = ctx(0, &scb, &held);
            for iq in [&mut f, &mut b] {
                iq.try_dispatch(load(0, 0, 10), &c);
                iq.try_dispatch(op(1, 3, Some(10)), &c);
                iq.try_dispatch(op(2, 3, None), &c);
                iq.try_dispatch(op(3, 1, Some(1)), &c);
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

    #[test]
    fn flush_drops_pending_samples_of_squashed_loads() {
        let mut t = LoadDelayTracker::new(64);
        let mut scb = Scoreboard::new(64);
        t.note_issue(&load(0, 0, 10), 0);
        t.note_issue(&load(1, 0, 11), 0);
        scb.set_ready_at(PhysReg(10), 8);
        scb.set_ready_at(PhysReg(11), 40);
        // The load writing p11 is squashed before its sample is taken.
        t.flush(&[PhysReg(11)]);
        t.observe(&scb);
        assert_eq!(t.estimate(), (3 * INITIAL_TRACKED_DELAY + 8) / 4);
        assert_eq!(t.charges().loc_writes, 1 + 1, "one clear, one update");
    }

    #[test]
    fn reallocated_register_gives_no_sample() {
        let mut t = LoadDelayTracker::new(64);
        let mut scb = Scoreboard::new(64);
        t.note_issue(&load(0, 0, 10), 0);
        // Reallocated to a new, unissued producer before observation.
        scb.allocate(PhysReg(10));
        t.observe(&scb);
        assert_eq!(t.estimate(), INITIAL_TRACKED_DELAY);
        assert_eq!(t.charges(), SchedEnergyEvents::default());
        // The queue drained: a later observation finds nothing to fold.
        scb.set_ready_at(PhysReg(10), 30);
        t.observe(&scb);
        assert_eq!(t.estimate(), INITIAL_TRACKED_DELAY);
    }

    #[test]
    fn charges_fold_table_traffic_and_estimate_updates() {
        let mut t = LoadDelayTracker::new(64);
        let mut scb = Scoreboard::new(64);
        // Two source reads and one destination write.
        let mut u = load(0, 0, 10);
        u.srcs = [Some(PhysReg(1)), Some(PhysReg(2))];
        assert_eq!(t.annotate(&u, 5), 5);
        assert_eq!(t.predicted(PhysReg(10)), 5 + INITIAL_TRACKED_DELAY);
        t.charge_reads(3);
        t.note_issue(&u, 5);
        scb.set_ready_at(PhysReg(10), 9);
        t.observe(&scb); // one estimate update
        t.complete(PhysReg(10)); // one write

        // Reads: two sources + three charged probes. Writes: the
        // annotation, the estimate update, the completion's clear.
        assert_eq!(
            t.charges(),
            SchedEnergyEvents {
                loc_reads: 2 + 3,
                loc_writes: 1 + 1 + 1,
                ..SchedEnergyEvents::default()
            }
        );
    }
}
