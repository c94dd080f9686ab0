//! The shared producer-indexed wakeup fabric.
//!
//! Every live scheduler used to re-derive readiness by rescanning its
//! resident μops against the [`Scoreboard`](crate::Scoreboard) each
//! cycle — a software re-enactment of the CAM broadcast the paper's
//! whole point is to avoid. The fabric inverts the dependence: each
//! *producer* register keeps the list of resident consumers waiting on
//! it, so a completion ([`WakeFabric::on_complete`]) touches exactly
//! the consumers of that destination instead of the whole window.
//!
//! ## Invariants (see ARCHITECTURE.md, "The wakeup fabric")
//!
//! * **Insert-time snapshot.** At [`WakeFabric::insert`] every source
//!   that is not ready *now* registers one waiter node; `pending` is
//!   the count of registered nodes. A source that is ready never
//!   regresses (only `Scoreboard::allocate` resets a register, and the
//!   pipeline guarantees no resident consumer ever waits on a register
//!   being reallocated).
//! * **Edge alignment.** The pipeline calls `on_complete(dst)` in
//!   writeback at exactly the cycle `ready_at[dst]` was set to when the
//!   producer issued, and writeback runs before `issue`, so an entry's
//!   `pending == 0` transition coincides with the cycle its
//!   level-checked `ReadyCtx::is_ready` would first return true.
//! * **Exact lists.** Waiter nodes are scrubbed eagerly on issue
//!   ([`WakeFabric::remove`]) and squash ([`WakeFabric::flush_after`]),
//!   so a waiter list never holds a stale sequence number and a
//!   completion never wakes a flushed consumer.
//! * **Level-polled holds.** MDP holds release when a *store issues*
//!   (pipeline state the fabric cannot observe edge-wise), so entries
//!   whose sources are done but whose `mdp_wait` is set park in a held
//!   list that [`WakeFabric::poll`] re-checks against
//!   [`ReadyCtx::held`] once per issue call — O(held), not O(window).
//! * **Edge-only wakes.** A `Waiting` entry becomes issuable only on an
//!   `on_complete` edge, so the quiesce query ([`WakeFabric::min_wake`])
//!   needs no per-entry horizon: the pipeline already bounds its skip by
//!   the earliest queued completion. The query is O(held).
//!
//! Entries are keyed by the μop sequence number in a dense slab
//! (`seq - base` indexing, the same discipline as the simulator's
//! `SeqSlab`): schedulers that shuffle μops between internal queues
//! (Ballerino, CASINO, CES) need no handle bookkeeping at all.

use crate::ports::PortAlloc;
use crate::traits::ReadyCtx;
use crate::uop::SchedUop;
use ballerino_isa::{OpClass, PhysReg, PortId, MAX_PORTS};
use std::collections::VecDeque;

/// Readiness of a fabric-resident μop, maintained edge-triggered.
///
/// After [`WakeFabric::poll`] has run for the current cycle, the state
/// is exactly the level-checked classification of
/// [`ReadyCtx::is_ready`] / [`ReadyCtx::is_mdp_blocked`]:
/// `Ready` ⟺ `is_ready`, `Held` ⟺ `is_mdp_blocked`, `Waiting` ⟺
/// some register source still pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeState {
    /// At least one register source has not completed.
    Waiting,
    /// All register sources done, but an MDP hold blocks issue.
    Held,
    /// Issuable this cycle.
    Ready,
}

#[derive(Debug, Clone)]
struct WakeEntry {
    /// Scheduler-defined payload tag (the OoO IQ stores its select
    /// priority: the slot index, above it any predicted delay;
    /// Ballerino a P-IQ resident's location; other FIFO designs leave
    /// it 0).
    tag: u32,
    port: PortId,
    class: OpClass,
    /// Per-source pending marker; `None` once the source completed (or
    /// was ready at insert).
    waiting_on: [Option<PhysReg>; 2],
    pending: u8,
    /// Whether the μop ever carried an MDP hold (`mdp_wait` present).
    mdp: bool,
    state: WakeState,
    /// Position in `ready` (when `Ready`) or `held` (when `Held`).
    pos: u32,
}

/// Producer-indexed wakeup lists plus per-entry ready state and the
/// shared select/port-claim loop. One instance per scheduler (FXA and
/// DNB embed one via their backend OoO IQ).
#[derive(Debug, Default)]
pub struct WakeFabric {
    /// Oldest resident sequence number (slab index 0).
    base: u64,
    /// Dense seq-indexed slab; `None` marks issued/squashed gaps.
    slab: VecDeque<Option<WakeEntry>>,
    /// Consumers waiting per physical register (lazily grown).
    waiters: Vec<Vec<u64>>,
    /// Entries with `state == Ready`.
    ready: Vec<u64>,
    /// Entries with `state == Held` (sources done, MDP hold assumed).
    held: Vec<u64>,
    /// Resident entry count.
    len: usize,
    /// Grants of the last [`WakeFabric::select`] call, in grant order.
    grant_buf: Vec<u64>,
}

impl WakeFabric {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no μop is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Entries currently issuable (after the last [`WakeFabric::poll`]).
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    fn idx(&self, seq: u64) -> usize {
        debug_assert!(
            seq >= self.base,
            "seq {seq} older than fabric base {}",
            self.base
        );
        (seq - self.base) as usize
    }

    fn entry(&self, seq: u64) -> &WakeEntry {
        let i = self.idx(seq);
        self.slab[i].as_ref().expect("fabric entry present")
    }

    fn entry_mut(&mut self, seq: u64) -> &mut WakeEntry {
        let i = self.idx(seq);
        self.slab[i].as_mut().expect("fabric entry present")
    }

    /// The readiness state of resident μop `seq`. Exact against the
    /// level-checked `ReadyCtx` predicates once [`WakeFabric::poll`]
    /// has run for the current cycle.
    pub fn state(&self, seq: u64) -> WakeState {
        self.entry(seq).state
    }

    /// The scheduler-defined tag of resident μop `seq`.
    pub fn tag_of(&self, seq: u64) -> u32 {
        self.entry(seq).tag
    }

    /// Replaces the tag of resident μop `seq` (Ballerino records a μop's
    /// P-IQ location once it is steered there).
    pub fn set_tag(&mut self, seq: u64, tag: u32) {
        self.entry_mut(seq).tag = tag;
    }

    fn waiter_list(&mut self, r: PhysReg) -> &mut Vec<u64> {
        let i = r.index();
        if i >= self.waiters.len() {
            self.waiters.resize_with(i + 1, Vec::new);
        }
        &mut self.waiters[i]
    }

    fn push_ready(&mut self, seq: u64) {
        let pos = self.ready.len() as u32;
        self.ready.push(seq);
        let e = self.entry_mut(seq);
        e.state = WakeState::Ready;
        e.pos = pos;
    }

    fn push_held(&mut self, seq: u64) {
        let pos = self.held.len() as u32;
        self.held.push(seq);
        let e = self.entry_mut(seq);
        e.state = WakeState::Held;
        e.pos = pos;
    }

    /// Unlinks `seq` from the ready/held list it sits in (no-op for
    /// `Waiting` entries).
    fn unlink(&mut self, seq: u64) {
        let (state, pos) = {
            let e = self.entry(seq);
            (e.state, e.pos as usize)
        };
        let list = match state {
            WakeState::Ready => &mut self.ready,
            WakeState::Held => &mut self.held,
            WakeState::Waiting => return,
        };
        debug_assert_eq!(list[pos], seq);
        list.swap_remove(pos);
        if let Some(&moved) = list.get(pos) {
            self.entry_mut(moved).pos = pos as u32;
        }
    }

    /// Registers a dispatched μop. `tag` is an opaque scheduler payload
    /// returned by [`WakeFabric::tag_of`] (the OoO IQ stores its select
    /// priority). Sources not ready at `ctx.cycle` register waiter nodes;
    /// their completions must arrive via [`WakeFabric::on_complete`].
    pub fn insert(&mut self, uop: &SchedUop, tag: u32, ctx: &ReadyCtx<'_>) {
        // Dispatch is program-ordered in the pipeline, so inserts are
        // normally appends (with `None` padding across squash gaps); the
        // slab still accepts an out-of-order insert into a vacant slot.
        if self.slab.is_empty() {
            self.base = uop.seq;
        } else if uop.seq < self.base {
            for _ in 0..(self.base - uop.seq) {
                self.slab.push_front(None);
            }
            self.base = uop.seq;
        }
        let idx = (uop.seq - self.base) as usize;
        while self.slab.len() <= idx {
            self.slab.push_back(None);
        }
        debug_assert!(
            self.slab[idx].is_none(),
            "duplicate fabric insert for seq {}",
            uop.seq
        );
        let mut pending = 0u8;
        let mut waiting_on = [None, None];
        for (k, s) in uop.srcs.iter().enumerate() {
            if let Some(r) = *s {
                if !ctx.scb.is_ready(r, ctx.cycle) {
                    pending += 1;
                    waiting_on[k] = Some(r);
                    let seq = uop.seq;
                    self.waiter_list(r).push(seq);
                }
            }
        }
        let held_now = ctx.held.contains(uop.seq);
        let mdp = uop.mdp_wait.is_some() || held_now;
        self.slab[idx] = Some(WakeEntry {
            tag,
            port: uop.port,
            class: uop.class,
            waiting_on,
            pending,
            mdp,
            state: WakeState::Waiting,
            pos: 0,
        });
        self.len += 1;
        if pending == 0 {
            if held_now {
                self.push_held(uop.seq);
            } else {
                self.push_ready(uop.seq);
            }
        }
    }

    /// Wakes the consumers of `dst`: O(waiters of `dst`), not
    /// O(window). Entries whose last pending source this was move to
    /// `Ready` (or `Held` when an MDP hold may still be outstanding —
    /// resolved by the next [`WakeFabric::poll`]).
    pub fn on_complete(&mut self, dst: PhysReg) {
        self.on_complete_with(dst, |_, _, _| {});
    }

    /// [`WakeFabric::on_complete`] that also reports each wake edge:
    /// `woke(seq, tag, state)` runs for every entry leaving `Waiting`,
    /// with its new state (`Ready` or `Held`).
    pub fn on_complete_with(&mut self, dst: PhysReg, mut woke: impl FnMut(u64, u32, WakeState)) {
        let di = dst.index();
        if di >= self.waiters.len() {
            return;
        }
        while let Some(seq) = self.waiters[di].pop() {
            let e = self.entry_mut(seq);
            let slot = e
                .waiting_on
                .iter_mut()
                .find(|w| **w == Some(dst))
                .expect("waiter node matches a pending source");
            *slot = None;
            e.pending -= 1;
            if e.pending == 0 {
                let tag = e.tag;
                if e.mdp {
                    // The hold may already be released; `poll` decides.
                    self.push_held(seq);
                    woke(seq, tag, WakeState::Held);
                } else {
                    self.push_ready(seq);
                    woke(seq, tag, WakeState::Ready);
                }
            }
        }
    }

    /// Releases held entries whose MDP hold is gone (their producer
    /// store issued). Call once at the start of each `issue` before
    /// consulting [`WakeFabric::state`] / [`WakeFabric::select`].
    pub fn poll(&mut self, ctx: &ReadyCtx<'_>) {
        self.poll_with(ctx, |_, _| {});
    }

    /// [`WakeFabric::poll`] that also reports each release edge:
    /// `released(seq, tag)` runs for every entry moving from `Held` to
    /// `Ready`.
    pub fn poll_with(&mut self, ctx: &ReadyCtx<'_>, mut released: impl FnMut(u64, u32)) {
        let mut i = 0;
        while i < self.held.len() {
            let seq = self.held[i];
            if ctx.held.contains(seq) {
                i += 1;
                continue;
            }
            self.held.swap_remove(i);
            if let Some(&moved) = self.held.get(i) {
                self.entry_mut(moved).pos = i as u32;
            }
            self.push_ready(seq);
            released(seq, self.entry(seq).tag);
        }
    }

    /// Removes an issued μop, scrubbing any remaining waiter nodes.
    pub fn remove(&mut self, seq: u64) {
        self.unlink(seq);
        let i = self.idx(seq);
        let e = self.slab[i].take().expect("removing a resident entry");
        for r in e.waiting_on.iter().flatten() {
            let list = &mut self.waiters[r.index()];
            let p = list
                .iter()
                .position(|&s| s == seq)
                .expect("waiter node present");
            list.swap_remove(p);
        }
        self.len -= 1;
        while matches!(self.slab.front(), Some(None)) {
            self.slab.pop_front();
            self.base += 1;
        }
    }

    /// Removes every entry younger than `seq` (squash).
    pub fn flush_after(&mut self, seq: u64) {
        let keep = if seq < self.base {
            0
        } else {
            ((seq - self.base) as usize + 1).min(self.slab.len())
        };
        while self.slab.len() > keep {
            if let Some(e) = self.slab.pop_back().expect("len checked") {
                let gone = self.base + self.slab.len() as u64;
                // Unlink from ready/held by value: positions are cheap
                // to fix and flushes are rare.
                match e.state {
                    WakeState::Ready => {
                        let p = e.pos as usize;
                        debug_assert_eq!(self.ready[p], gone);
                        self.ready.swap_remove(p);
                        if let Some(&moved) = self.ready.get(p) {
                            self.entry_mut(moved).pos = p as u32;
                        }
                    }
                    WakeState::Held => {
                        let p = e.pos as usize;
                        debug_assert_eq!(self.held[p], gone);
                        self.held.swap_remove(p);
                        if let Some(&moved) = self.held.get(p) {
                            self.entry_mut(moved).pos = p as u32;
                        }
                    }
                    WakeState::Waiting => {}
                }
                for r in e.waiting_on.iter().flatten() {
                    let list = &mut self.waiters[r.index()];
                    let p = list
                        .iter()
                        .position(|&s| s == gone)
                        .expect("waiter node present");
                    list.swap_remove(p);
                }
                self.len -= 1;
            }
        }
        while matches!(self.slab.front(), Some(None)) {
            self.slab.pop_front();
            self.base += 1;
        }
    }

    /// Quiesce helper for [`Scheduler::next_event_cycle`](crate::Scheduler::next_event_cycle):
    /// `None` when a resident requests select this cycle — an entry is
    /// `Ready`, or a `Held` entry's MDP hold is already released (level-
    /// visible before the next [`WakeFabric::poll`]) — otherwise
    /// `Some(u64::MAX)`. A `Waiting` entry reports no horizon of its own:
    /// it can only wake on an `on_complete` edge, and the pipeline bounds
    /// every skip by its earliest queued completion. O(held), not
    /// O(window).
    pub fn min_wake(&self, ctx: &ReadyCtx<'_>) -> Option<u64> {
        if !self.ready.is_empty() || self.held.iter().any(|&seq| !ctx.held.contains(seq)) {
            return None;
        }
        Some(u64::MAX)
    }

    /// The shared single-pass select/port-claim loop: one pass over the
    /// ready set computes the best requester per port (lowest `tag`, or
    /// lowest seq with `oldest_first`), then grants flow in global
    /// priority order until the width budget runs out. Returns whether
    /// any resident requested select (ready entries exist, even
    /// port-blocked ones); the granted sequence numbers are available
    /// via [`WakeFabric::grants`] until the next call.
    pub fn select(&mut self, ports: &mut PortAlloc<'_>, oldest_first: bool) -> bool {
        self.grant_buf.clear();
        if self.ready.is_empty() {
            return false;
        }
        // (seq, tag) best requester per port.
        let mut best_per_port: [Option<(u64, u32)>; MAX_PORTS] = [None; MAX_PORTS];
        for &seq in &self.ready {
            let e = {
                let i = (seq - self.base) as usize;
                self.slab[i].as_ref().expect("ready entry resident")
            };
            if !ports.can_claim(e.port, e.class) {
                continue;
            }
            let best = &mut best_per_port[e.port.index()];
            let better = match *best {
                None => true,
                Some((bseq, btag)) => {
                    if oldest_first {
                        seq < bseq
                    } else {
                        e.tag < btag
                    }
                }
            };
            if better {
                *best = Some((seq, e.tag));
            }
        }
        // Grant the per-port winners in global priority order until the
        // width budget runs out (ports are independent, so removing one
        // port's winner never changes another port's).
        while ports.remaining() > 0 {
            let mut best: Option<(u64, u32, usize)> = None;
            for (pi, slot) in best_per_port.iter().enumerate() {
                let Some((seq, tag)) = *slot else { continue };
                let better = match best {
                    None => true,
                    Some((bseq, btag, _)) => {
                        if oldest_first {
                            seq < bseq
                        } else {
                            tag < btag
                        }
                    }
                };
                if better {
                    best = Some((seq, tag, pi));
                }
            }
            let Some((seq, _, pi)) = best else { break };
            let (port, class) = {
                let e = self.entry(seq);
                (e.port, e.class)
            };
            let claimed = ports.try_claim(port, class);
            debug_assert!(claimed);
            best_per_port[pi] = None;
            self.grant_buf.push(seq);
        }
        true
    }

    /// Diagnostic rendering of the entry for `seq` (see
    /// [`Scheduler::debug_locate`](crate::Scheduler::debug_locate)).
    pub fn debug_entry(&self, seq: u64) -> String {
        let i = (seq.saturating_sub(self.base)) as usize;
        match self.slab.get(i) {
            Some(Some(e)) => format!("{e:?}"),
            Some(None) => "gone".into(),
            None => "out-of-slab".into(),
        }
    }

    /// Sequence numbers granted by the last [`WakeFabric::select`], in
    /// grant order.
    pub fn grants(&self) -> &[u64] {
        &self.grant_buf
    }

    /// Number of grants of the last [`WakeFabric::select`].
    pub fn grant_count(&self) -> usize {
        self.grant_buf.len()
    }

    /// Granted seq at position `k` of the last select.
    pub fn grant(&self, k: usize) -> u64 {
        self.grant_buf[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::held::HeldSet;
    use crate::ports::FuBusy;
    use crate::scoreboard::Scoreboard;

    fn op(seq: u64, port: u8, srcs: [Option<u32>; 2]) -> SchedUop {
        SchedUop {
            port: PortId(port),
            srcs: [srcs[0].map(PhysReg), srcs[1].map(PhysReg)],
            ..SchedUop::test_op(seq)
        }
    }

    struct Rig {
        f: WakeFabric,
        scb: Scoreboard,
        held: HeldSet,
    }

    impl Rig {
        fn new() -> Self {
            Rig {
                f: WakeFabric::new(),
                scb: Scoreboard::new(64),
                held: HeldSet::new(),
            }
        }

        fn insert(&mut self, u: &SchedUop, cycle: u64) {
            let ctx = ReadyCtx {
                cycle,
                scb: &self.scb,
                held: &self.held,
            };
            self.f.insert(u, 0, &ctx);
        }

        fn poll(&mut self, cycle: u64) {
            let ctx = ReadyCtx {
                cycle,
                scb: &self.scb,
                held: &self.held,
            };
            self.f.poll(&ctx);
        }
    }

    #[test]
    fn ready_at_insert_lands_in_ready_set() {
        let mut r = Rig::new();
        r.insert(&op(1, 0, [None, None]), 0);
        assert_eq!(r.f.state(1), WakeState::Ready);
        assert_eq!(r.f.ready_len(), 1);
    }

    #[test]
    fn producer_completion_wakes_only_its_consumers() {
        let mut r = Rig::new();
        r.scb.allocate(PhysReg(10));
        r.scb.allocate(PhysReg(11));
        r.insert(&op(1, 0, [Some(10), None]), 0);
        r.insert(&op(2, 1, [Some(11), None]), 0);
        assert_eq!(r.f.state(1), WakeState::Waiting);
        r.scb.set_ready_at(PhysReg(10), 5);
        r.f.on_complete(PhysReg(10));
        assert_eq!(r.f.state(1), WakeState::Ready);
        assert_eq!(r.f.state(2), WakeState::Waiting, "other consumer untouched");
    }

    #[test]
    fn two_sources_completing_same_cycle() {
        let mut r = Rig::new();
        r.scb.allocate(PhysReg(10));
        r.scb.allocate(PhysReg(11));
        r.insert(&op(1, 0, [Some(10), Some(11)]), 0);
        r.f.on_complete(PhysReg(10));
        assert_eq!(r.f.state(1), WakeState::Waiting, "one source still pending");
        r.f.on_complete(PhysReg(11));
        assert_eq!(r.f.state(1), WakeState::Ready);
    }

    #[test]
    fn duplicate_source_registers_two_nodes_and_wakes_once() {
        let mut r = Rig::new();
        r.scb.allocate(PhysReg(10));
        r.insert(&op(1, 0, [Some(10), Some(10)]), 0);
        // One broadcast drains both nodes of the duplicated source.
        r.f.on_complete(PhysReg(10));
        assert_eq!(r.f.state(1), WakeState::Ready);
    }

    #[test]
    fn consumer_flushed_between_completion_and_issue() {
        let mut r = Rig::new();
        r.scb.allocate(PhysReg(10));
        r.insert(&op(1, 0, [None, None]), 0);
        r.insert(&op(2, 1, [Some(10), None]), 0);
        r.f.on_complete(PhysReg(10)); // consumer becomes ready ...
        assert_eq!(r.f.state(2), WakeState::Ready);
        r.f.flush_after(1); // ... then is squashed before it can issue
        assert_eq!(r.f.len(), 1);
        assert_eq!(r.f.ready_len(), 1, "only the survivor remains ready");
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, 0);
        assert!(r.f.select(&mut pa, false));
        assert_eq!(r.f.grants(), &[1]);
    }

    #[test]
    fn flush_scrubs_waiter_nodes() {
        let mut r = Rig::new();
        r.scb.allocate(PhysReg(10));
        r.insert(&op(1, 0, [Some(10), None]), 0);
        r.insert(&op(2, 1, [Some(10), None]), 0);
        r.f.flush_after(1);
        // The flushed waiter's node must be gone: waking the register
        // now reaches only the survivor.
        r.f.on_complete(PhysReg(10));
        assert_eq!(r.f.state(1), WakeState::Ready);
        assert_eq!(r.f.len(), 1);
    }

    #[test]
    fn mdp_held_entry_parks_until_polled() {
        let mut r = Rig::new();
        r.scb.allocate(PhysReg(10));
        let mut ld = op(3, 0, [Some(10), None]);
        ld.mdp_wait = Some(1);
        r.held.insert(3);
        r.insert(&ld, 0);
        r.f.on_complete(PhysReg(10));
        assert_eq!(
            r.f.state(3),
            WakeState::Held,
            "sources done, hold outstanding"
        );
        r.poll(1);
        assert_eq!(r.f.state(3), WakeState::Held, "hold still set");
        r.held.remove(3); // producer store issued
        r.poll(2);
        assert_eq!(r.f.state(3), WakeState::Ready);
    }

    #[test]
    fn issue_steals_ready_entries_and_scrubs_state() {
        let mut r = Rig::new();
        r.insert(&op(1, 0, [None, None]), 0);
        r.insert(&op(2, 1, [None, None]), 0);
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 1, &busy, 0); // budget of one
        assert!(r.f.select(&mut pa, false));
        assert_eq!(r.f.grant_count(), 1);
        let granted = r.f.grant(0);
        r.f.remove(granted);
        assert_eq!(r.f.len(), 1);
        assert_eq!(r.f.ready_len(), 1, "loser stays ready for next cycle");
        let mut pa2 = PortAlloc::new(8, 8, &busy, 1);
        assert!(r.f.select(&mut pa2, false));
        assert_eq!(r.f.grant_count(), 1);
        assert_ne!(r.f.grant(0), granted);
    }

    #[test]
    fn select_prefers_lowest_tag_then_oldest_when_configured() {
        let mut r = Rig::new();
        let ctx_insert = |r: &mut Rig, u: &SchedUop, tag: u32| {
            let ctx = ReadyCtx {
                cycle: 0,
                scb: &r.scb,
                held: &r.held,
            };
            r.f.insert(u, tag, &ctx);
        };
        // Same port; seq 5 carries the *lower* tag (slot reuse).
        ctx_insert(&mut r, &op(4, 2, [None, None]), 7);
        ctx_insert(&mut r, &op(5, 2, [None, None]), 1);
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, 0);
        r.f.select(&mut pa, false);
        assert_eq!(r.f.grants(), &[5], "tag order wins without oldest_first");
        let mut pa2 = PortAlloc::new(8, 8, &busy, 0);
        r.f.select(&mut pa2, true);
        assert_eq!(r.f.grants(), &[4], "age order wins with oldest_first");
    }

    #[test]
    fn waiting_entry_removed_midway_scrubs_nodes() {
        let mut r = Rig::new();
        r.scb.allocate(PhysReg(10));
        r.insert(&op(1, 0, [Some(10), None]), 0);
        r.f.remove(1); // e.g. a design that issues it another way
        assert!(r.f.is_empty());
        r.f.on_complete(PhysReg(10)); // must not touch the removed entry
    }

    #[test]
    fn min_wake_reports_horizon_and_activity() {
        let mut r = Rig::new();
        r.scb.allocate(PhysReg(10));
        r.insert(&op(1, 0, [Some(10), None]), 0);
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &r.scb,
            held: &r.held,
        };
        assert_eq!(r.f.min_wake(&ctx), Some(u64::MAX), "unscheduled producer");
        // A scheduled producer adds no horizon: the waiter wakes on the
        // completion edge, which the pipeline's event queue already bounds.
        r.scb.set_ready_at(PhysReg(10), 12);
        let ctx = ReadyCtx {
            cycle: 3,
            scb: &r.scb,
            held: &r.held,
        };
        assert_eq!(r.f.min_wake(&ctx), Some(u64::MAX));
        r.f.on_complete(PhysReg(10));
        let ctx = ReadyCtx {
            cycle: 12,
            scb: &r.scb,
            held: &r.held,
        };
        assert_eq!(r.f.min_wake(&ctx), None, "ready resident requests select");
    }

    #[test]
    fn edge_callbacks_report_tag_and_new_state() {
        let mut r = Rig::new();
        r.scb.allocate(PhysReg(10));
        r.insert(&op(1, 0, [Some(10), None]), 0);
        let mut ld = op(2, 1, [Some(10), None]);
        ld.mdp_wait = Some(1);
        r.held.insert(2);
        r.insert(&ld, 0);
        r.f.set_tag(2, 9);
        let mut woke = Vec::new();
        r.f.on_complete_with(PhysReg(10), |seq, tag, st| woke.push((seq, tag, st)));
        woke.sort_unstable_by_key(|w| w.0);
        assert_eq!(
            woke,
            vec![(1, 0, WakeState::Ready), (2, 9, WakeState::Held)]
        );
        r.held.remove(2);
        let ctx = ReadyCtx {
            cycle: 1,
            scb: &r.scb,
            held: &r.held,
        };
        let mut released = Vec::new();
        r.f.poll_with(&ctx, |seq, tag| released.push((seq, tag)));
        assert_eq!(released, vec![(2, 9)]);
        assert_eq!(r.f.state(2), WakeState::Ready);
    }

    #[test]
    fn min_wake_sees_hold_release_before_poll() {
        let mut r = Rig::new();
        let mut ld = op(3, 0, [None, None]);
        ld.mdp_wait = Some(1);
        r.held.insert(3);
        r.insert(&ld, 0);
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &r.scb,
            held: &r.held,
        };
        assert_eq!(
            r.f.min_wake(&ctx),
            Some(u64::MAX),
            "held: external event only"
        );
        r.held.remove(3);
        let ctx = ReadyCtx {
            cycle: 1,
            scb: &r.scb,
            held: &r.held,
        };
        assert_eq!(r.f.min_wake(&ctx), None, "released hold is level-visible");
    }

    #[test]
    fn squash_gap_backfill_keeps_seq_indexing() {
        let mut r = Rig::new();
        r.scb.allocate(PhysReg(10));
        r.insert(&op(1, 0, [Some(10), None]), 0);
        r.insert(&op(2, 1, [Some(10), None]), 0);
        r.f.flush_after(1);
        // Re-fetch after the squash dispatches fresh (never reused)
        // seqs, leaving a gap.
        r.insert(&op(7, 2, [Some(10), None]), 1);
        assert_eq!(r.f.len(), 2);
        r.f.on_complete(PhysReg(10));
        assert_eq!(r.f.state(1), WakeState::Ready);
        assert_eq!(r.f.state(7), WakeState::Ready);
        r.f.remove(1);
        r.f.remove(7);
        assert!(r.f.is_empty());
    }
}
