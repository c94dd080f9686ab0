//! The [`Scheduler`] trait: the contract between the pipeline model and
//! every IQ design (baselines here, Ballerino in `ballerino-core`).

use crate::held::HeldSet;
use crate::ports::PortAlloc;
use crate::scoreboard::Scoreboard;
use crate::stats::{HeadStateStats, IssueBreakdown, SchedEnergyEvents, SteerStats};
use crate::uop::SchedUop;
use ballerino_isa::PhysReg;

/// Per-cycle context handed to schedulers: the cycle number, register
/// readiness, and the set of μops currently serialized by the MDP.
#[derive(Debug)]
pub struct ReadyCtx<'a> {
    /// Current cycle.
    pub cycle: u64,
    /// Physical-register readiness.
    pub scb: &'a Scoreboard,
    /// Sequence numbers of loads/stores still waiting for a predicted
    /// producer store to issue.
    pub held: &'a HeldSet,
}

impl ReadyCtx<'_> {
    /// Whether `u` could issue this cycle: all register sources ready and
    /// no outstanding MDP hold.
    pub fn is_ready(&self, u: &SchedUop) -> bool {
        self.scb.srcs_ready(&u.srcs, self.cycle) && !self.held.contains(u.seq)
    }

    /// Whether `u`'s register sources are ready but an MDP hold blocks it
    /// (the `StallMdepLoad` head state of Fig. 6a).
    pub fn is_mdp_blocked(&self, u: &SchedUop) -> bool {
        self.scb.srcs_ready(&u.srcs, self.cycle) && self.held.contains(u.seq)
    }

    /// First cycle at which [`ReadyCtx::is_ready`] becomes true for `u`,
    /// assuming no pipeline activity until then: `u64::MAX` while an MDP
    /// hold is outstanding (holds release only when a store *issues*,
    /// which is scheduler activity by definition), otherwise the latest
    /// source ready cycle (which may be `<= cycle` for a ready μop).
    pub fn wake_cycle(&self, u: &SchedUop) -> u64 {
        if self.held.contains(u.seq) {
            u64::MAX
        } else {
            self.scb.srcs_ready_cycle(&u.srcs)
        }
    }
}

/// Why a dispatch was refused this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// The scheduler (or its front queue) is out of entries.
    Full,
    /// Steering found no free (or shareable) P-IQ.
    NoFreeQueue,
}

/// Result of offering a μop to a scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchOutcome {
    /// Accepted into the scheduling window.
    Accepted,
    /// Accepted *and issued immediately* (FXA's IXU executes
    /// ready-at-dispatch μops in the front-end). The pipeline treats the
    /// μop as issued in the current cycle.
    AcceptedIssued,
    /// Refused; the pipeline must stall dispatch and retry next cycle.
    Stall(StallReason),
}

/// A dynamic instruction scheduler (issue queue design).
///
/// ## Per-cycle driving order
///
/// 1. completions for the cycle → [`Scheduler::on_complete`] per
///    destination register becoming available,
/// 2. [`Scheduler::issue`] once,
/// 3. [`Scheduler::try_dispatch`] up to the machine's dispatch width.
///
/// Squashes may happen at any point via [`Scheduler::flush_after`].
pub trait Scheduler {
    /// Short identifier (e.g. `"ooo"`, `"ces"`, `"ballerino-12"`).
    /// Borrowed (static or cached at construction): reporting paths call
    /// this per row, so it must not allocate.
    fn name(&self) -> &str;

    /// Offers one μop for dispatch.
    fn try_dispatch(&mut self, uop: SchedUop, ctx: &ReadyCtx<'_>) -> DispatchOutcome;

    /// Selects up to the machine width of ready μops, claiming issue
    /// ports; appends issued sequence numbers to `out`.
    fn issue(&mut self, ctx: &ReadyCtx<'_>, ports: &mut PortAlloc<'_>, out: &mut Vec<u64>);

    /// Notes that the value of `dst` has become available (wakeup).
    fn on_complete(&mut self, dst: PhysReg);

    /// Removes every μop younger than `seq` and clears producer-location
    /// state for `flushed_dests` (destinations of *all* squashed μops,
    /// including already-issued ones).
    fn flush_after(&mut self, seq: u64, flushed_dests: &[PhysReg]);

    /// μops currently resident in the scheduling window.
    fn occupancy(&self) -> usize;

    /// Total scheduling-window entries.
    fn capacity(&self) -> usize;

    /// Energy-relevant event counts accumulated so far.
    fn energy_events(&self) -> SchedEnergyEvents;

    /// Which structure issued each μop (Fig. 14).
    fn issue_breakdown(&self) -> IssueBreakdown;

    /// Steering outcome histogram (Fig. 4); zero for designs that do not
    /// steer.
    fn steer_stats(&self) -> SteerStats {
        SteerStats::default()
    }

    /// P-IQ head-state histogram (Fig. 6a); zero for designs without
    /// P-IQs.
    fn head_stats(&self) -> HeadStateStats {
        HeadStateStats::default()
    }

    /// Event-horizon query: if the scheduler is *quiesced* — its per-cycle
    /// evolution until the next wakeup is a pure function of already-known
    /// ready times (no issue, no inter-queue movement, no steering
    /// success, no dispatch acceptance of `pending`) — returns the first
    /// cycle at which that could change (`u64::MAX` when it never can).
    /// Returns `None` whenever the scheduler is, or might be, active this
    /// cycle; the core then simulates cycle by cycle as usual.
    ///
    /// The contract (see ARCHITECTURE.md "The quiesce contract"):
    ///
    /// * `None` is always safe — it is the mandatory answer whenever any
    ///   resident the next `issue` call would examine is ready now, when
    ///   `pending` would be accepted now, or when the design cannot cheaply
    ///   prove quiescence (the default for third-party schedulers).
    /// * `Some(t)` with `t > ctx.cycle` promises that every `issue` +
    ///   refused `try_dispatch(pending)` cycle strictly before `t` only
    ///   performs deterministic bookkeeping, which
    ///   [`Scheduler::note_idle_cycles`] must replicate exactly.
    /// * Cascaded designs (CASINO, Ballerino) must first drain their
    ///   bounded inter-queue movement before reporting quiescence.
    /// * Completion edges need no horizon. The core never skips past its
    ///   earliest queued completion, and every scoreboard ready time is
    ///   one, so a resident that can only become issuable (or change its
    ///   recorded state) on an [`Scheduler::on_complete`] edge adds
    ///   nothing to `t`. Only wakes that come with time alone must bound
    ///   `t`: Ballerino's S-IQ far blocker sliding inside its speculation
    ///   horizon, FXA's IXU bypass window, DNB's delay release.
    ///   `Some(u64::MAX)` then reads "nothing changes before the next
    ///   completion edge".
    fn next_event_cycle(&self, _ctx: &ReadyCtx<'_>, _pending: Option<&SchedUop>) -> Option<u64> {
        None
    }

    /// Replays the bookkeeping of `k` consecutive idle cycles in one call:
    /// exactly what `k` calls of `issue` (plus, when `pending` is some, `k`
    /// refused `try_dispatch` calls) starting at `ctx.cycle` would have
    /// accumulated — energy micro-events, head-state and steering
    /// histograms, and any per-cycle pointer rotation. Only called after
    /// [`Scheduler::next_event_cycle`] returned `Some(t)` with
    /// `ctx.cycle + k <= t`; never called otherwise.
    fn note_idle_cycles(&mut self, _ctx: &ReadyCtx<'_>, _pending: Option<&SchedUop>, _k: u64) {}

    /// Diagnostic rendering of where resident μop `seq` lives inside the
    /// scheduler (queue position, wake state). Only consulted by the
    /// simulator's no-forward-progress panic, where "which queue is the
    /// ROB head stuck in, and why" is the first debugging question.
    fn debug_locate(&self, _seq: u64) -> String {
        String::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballerino_isa::PhysReg;

    #[test]
    fn ready_ctx_checks_scoreboard_and_holds() {
        let mut scb = Scoreboard::new(4);
        scb.allocate(PhysReg(1));
        let mut held = HeldSet::new();
        held.insert(7u64);

        let ctx = ReadyCtx {
            cycle: 10,
            scb: &scb,
            held: &held,
        };

        let mut u = SchedUop::test_op(3);
        u.srcs = [Some(PhysReg(0)), None];
        assert!(ctx.is_ready(&u));

        u.srcs = [Some(PhysReg(1)), None];
        assert!(!ctx.is_ready(&u));
        assert!(!ctx.is_mdp_blocked(&u));

        let mut held_load = SchedUop::test_op(7);
        held_load.srcs = [Some(PhysReg(0)), None];
        assert!(!ctx.is_ready(&held_load));
        assert!(ctx.is_mdp_blocked(&held_load));
    }
}
