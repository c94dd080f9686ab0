//! FXA: the front-end execution architecture \[1\].
//!
//! An in-order execution unit (IXU: a 3-stage pipeline of FUs with a
//! bypass network) sits ahead of a conventional, *half-size* out-of-order
//! IQ. μops whose operands are available by the time they flow through
//! the IXU execute there — including ready-at-dispatch μops and their
//! consumers fed through the IXU bypass — and never occupy the OoO IQ.
//! Everything else dispatches to the back-end.

use crate::ooo::{OooIq, OooIqConfig};
use crate::ports::PortAlloc;
use crate::stats::{IssueBreakdown, SchedEnergyEvents};
use crate::traits::{DispatchOutcome, ReadyCtx, Scheduler};
use crate::uop::SchedUop;
use ballerino_isa::{OpClass, PhysReg};

/// FXA configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FxaConfig {
    /// IXU pipeline depth (Table II: 3 stages).
    pub ixu_stages: u64,
    /// μops the IXU accepts per cycle (Table II: 4r4w).
    pub ixu_width: usize,
    /// Back-end OoO IQ entries (half the baseline: 48 at 8-wide).
    pub backend_entries: usize,
    /// Back-end issue width (Table II: 4).
    pub backend_width: usize,
}

impl Default for FxaConfig {
    fn default() -> Self {
        FxaConfig {
            ixu_stages: 3,
            ixu_width: 4,
            backend_entries: 48,
            backend_width: 4,
        }
    }
}

/// The FXA scheduler.
#[derive(Debug)]
pub struct Fxa {
    cfg: FxaConfig,
    backend: OooIq,
    ixu_cycle: u64,
    ixu_used: usize,
    ixu_issued: u64,
    energy: SchedEnergyEvents,
}

impl Fxa {
    /// Builds an FXA front-end + back-end pair.
    pub fn new(cfg: FxaConfig) -> Self {
        let backend = OooIq::new(OooIqConfig {
            entries: cfg.backend_entries,
            oldest_first: false,
        });
        Fxa {
            cfg,
            backend,
            ixu_cycle: 0,
            ixu_used: 0,
            ixu_issued: 0,
            energy: SchedEnergyEvents::default(),
        }
    }

    fn ixu_eligible_class(class: OpClass) -> bool {
        matches!(
            class,
            OpClass::IntAlu | OpClass::Branch | OpClass::Load | OpClass::Store
        )
    }

    /// Whether the μop can execute inside the IXU: operands available by
    /// the time it reaches the IXU's last stage (bypass window), class
    /// executable by the IXU's simple FUs, no MDP hold, and IXU slot free.
    fn ixu_accepts(&mut self, uop: &SchedUop, ctx: &ReadyCtx<'_>) -> bool {
        if !Self::ixu_eligible_class(uop.class) {
            return false;
        }
        if ctx.held.contains(uop.seq) {
            return false;
        }
        if self.ixu_cycle != ctx.cycle {
            self.ixu_cycle = ctx.cycle;
            self.ixu_used = 0;
        }
        if self.ixu_used >= self.cfg.ixu_width {
            return false;
        }
        let avail = ctx.scb.srcs_ready_cycle(&uop.srcs);
        if avail == u64::MAX || avail > ctx.cycle + (self.cfg.ixu_stages - 1) {
            return false;
        }
        self.ixu_used += 1;
        true
    }
}

impl Scheduler for Fxa {
    fn name(&self) -> &str {
        "fxa"
    }

    fn try_dispatch(&mut self, uop: SchedUop, ctx: &ReadyCtx<'_>) -> DispatchOutcome {
        // The IXU examines every μop's operand availability (energy).
        self.energy.head_examinations += 1;
        if self.ixu_accepts(&uop, ctx) {
            self.ixu_issued += 1;
            return DispatchOutcome::AcceptedIssued;
        }
        self.backend.try_dispatch(uop, ctx)
    }

    fn issue(&mut self, ctx: &ReadyCtx<'_>, ports: &mut PortAlloc<'_>, out: &mut Vec<u64>) {
        // The back-end issues at most `backend_width` per cycle; the IXU
        // does not arbitrate for back-end ports.
        ports.cap_remaining(self.cfg.backend_width);
        self.backend.issue(ctx, ports, out);
    }

    fn on_complete(&mut self, dst: PhysReg) {
        self.backend.on_complete(dst);
    }

    fn flush_after(&mut self, seq: u64, flushed_dests: &[PhysReg]) {
        self.backend.flush_after(seq, flushed_dests);
    }

    fn occupancy(&self) -> usize {
        self.backend.occupancy()
    }

    fn capacity(&self) -> usize {
        self.backend.capacity()
    }

    fn energy_events(&self) -> SchedEnergyEvents {
        let mut e = self.backend.energy_events();
        e.add(&self.energy);
        e
    }

    fn issue_breakdown(&self) -> IssueBreakdown {
        let mut b = self.backend.issue_breakdown();
        b.from_ixu = self.ixu_issued;
        b
    }

    fn next_event_cycle(&self, ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>) -> Option<u64> {
        let mut horizon = self.backend.next_event_cycle(ctx, pending)?;
        if let Some(p) = pending {
            // Read-only replica of `ixu_accepts`: a fresh cycle always has
            // IXU slots free, because the lone pending retry is the only
            // dispatch happening while the frontend is stalled.
            if Self::ixu_eligible_class(p.class) && !ctx.held.contains(p.seq) {
                let avail = ctx.scb.srcs_ready_cycle(&p.srcs);
                if avail != u64::MAX {
                    if avail <= ctx.cycle + (self.cfg.ixu_stages - 1) {
                        return None; // IXU would execute it this cycle
                    }
                    // The IXU starts accepting once `avail` slides into
                    // the bypass window.
                    horizon = horizon.min(avail - (self.cfg.ixu_stages - 1));
                }
            }
        }
        Some(horizon)
    }

    fn note_idle_cycles(&mut self, ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>, k: u64) {
        if pending.is_some() {
            // Each refused dispatch retry re-examines operand availability.
            self.energy.head_examinations += k;
        }
        self.backend.note_idle_cycles(ctx, pending, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::held::HeldSet;
    use crate::ports::FuBusy;
    use crate::scoreboard::Scoreboard;
    use ballerino_isa::PortId;

    fn op(seq: u64, class: OpClass, src: Option<u32>) -> SchedUop {
        SchedUop {
            class,
            port: PortId(0),
            srcs: [src.map(PhysReg), None],
            ..SchedUop::test_op(seq)
        }
    }

    #[test]
    fn ready_alu_executes_in_ixu() {
        let mut f = Fxa::new(FxaConfig::default());
        let scb = Scoreboard::new(16);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        assert_eq!(
            f.try_dispatch(op(0, OpClass::IntAlu, None), &ctx),
            DispatchOutcome::AcceptedIssued
        );
        assert_eq!(f.issue_breakdown().from_ixu, 1);
        assert_eq!(f.occupancy(), 0);
    }

    #[test]
    fn consumer_within_bypass_window_also_executes_in_ixu() {
        let mut f = Fxa::new(FxaConfig::default());
        let mut scb = Scoreboard::new(16);
        // Producer issued this cycle; result ready at cycle+1 (alu).
        scb.allocate(PhysReg(1));
        scb.set_ready_at(PhysReg(1), 1);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        assert_eq!(
            f.try_dispatch(op(1, OpClass::IntAlu, Some(1)), &ctx),
            DispatchOutcome::AcceptedIssued
        );
    }

    #[test]
    fn load_consumer_goes_to_backend() {
        let mut f = Fxa::new(FxaConfig::default());
        let mut scb = Scoreboard::new(16);
        // Load result ready far in the future (cache access).
        scb.allocate(PhysReg(1));
        scb.set_ready_at(PhysReg(1), 50);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        assert_eq!(
            f.try_dispatch(op(1, OpClass::IntAlu, Some(1)), &ctx),
            DispatchOutcome::Accepted
        );
        assert_eq!(f.occupancy(), 1);
    }

    #[test]
    fn fp_compute_always_goes_to_backend() {
        let mut f = Fxa::new(FxaConfig::default());
        let scb = Scoreboard::new(16);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        assert_eq!(
            f.try_dispatch(op(0, OpClass::FpMul, None), &ctx),
            DispatchOutcome::Accepted
        );
    }

    #[test]
    fn ixu_width_limits_per_cycle_executions() {
        let mut f = Fxa::new(FxaConfig::default());
        let scb = Scoreboard::new(16);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        for i in 0..4 {
            assert_eq!(
                f.try_dispatch(op(i, OpClass::IntAlu, None), &ctx),
                DispatchOutcome::AcceptedIssued
            );
        }
        // Fifth in the same cycle overflows the IXU.
        assert_eq!(
            f.try_dispatch(op(4, OpClass::IntAlu, None), &ctx),
            DispatchOutcome::Accepted
        );
        // New cycle: IXU slots recycle.
        let ctx1 = ReadyCtx {
            cycle: 1,
            scb: &scb,
            held: &held,
        };
        assert_eq!(
            f.try_dispatch(op(5, OpClass::IntAlu, None), &ctx1),
            DispatchOutcome::AcceptedIssued
        );
    }

    #[test]
    fn mdp_held_load_goes_to_backend() {
        let mut f = Fxa::new(FxaConfig::default());
        let scb = Scoreboard::new(16);
        let mut held = HeldSet::new();
        held.insert(0u64);
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        assert_eq!(
            f.try_dispatch(op(0, OpClass::Load, None), &ctx),
            DispatchOutcome::Accepted
        );
    }

    #[test]
    fn backend_issues_when_operands_arrive() {
        let mut f = Fxa::new(FxaConfig::default());
        let mut scb = Scoreboard::new(16);
        scb.allocate(PhysReg(1));
        scb.set_ready_at(PhysReg(1), 50);
        let held = HeldSet::new();
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        f.try_dispatch(op(1, OpClass::IntAlu, Some(1)), &ctx);
        f.on_complete(PhysReg(1)); // writeback edge the pipeline delivers at ready_at
        let busy = FuBusy::new();
        let ctx50 = ReadyCtx {
            cycle: 50,
            scb: &scb,
            held: &held,
        };
        let mut pa = PortAlloc::new(8, 8, &busy, 50);
        let mut out = Vec::new();
        f.issue(&ctx50, &mut pa, &mut out);
        assert_eq!(out, vec![1]);
        assert_eq!(f.issue_breakdown().from_ooo, 1);
    }
}
