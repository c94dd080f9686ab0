//! The Ballerino scheduler (§IV): S-IQ speculative issue + P-SCB-driven
//! steering + MDA steering + P-IQ sharing, behind the common
//! [`Scheduler`] trait.

use crate::board::{bits, piq_tag, HeadBoard, HeadCounts, MAX_PIQS};
use crate::piq::{PartId, Piq};
use ballerino_isa::{PhysReg, MAX_PORTS};
use ballerino_sched::{
    DispatchOutcome, HeadState, HeadStateStats, IssueBreakdown, LoadDelayTracker, LocTable,
    PortAlloc, ReadyCtx, SchedEnergyEvents, SchedUop, Scheduler, StallReason, SteerEvent,
    SteerStats, WakeFabric, WakeState,
};
use std::collections::VecDeque;

/// Ballerino configuration (Table II plus the step toggles of Fig. 13).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BallerinoConfig {
    /// S-IQ entries (Table II: 8 at 8-wide — 2× the dispatch width).
    pub siq_entries: usize,
    /// S-IQ slots examined per cycle (the speculative scheduling window;
    /// equals the rename width: 4r4w). At most [`MAX_SIQ_WINDOW`].
    pub siq_window: usize,
    /// Number of clustered P-IQs (7 for Ballerino, 11 for Ballerino-12).
    /// At most [`MAX_PIQS`].
    pub num_piqs: usize,
    /// Entries per P-IQ (Table II: 12).
    pub piq_entries: usize,
    /// Step 2: steer M-dependent loads behind their producer stores.
    pub mda_steering: bool,
    /// LDT steering: place memory μops behind the P-IQ tail whose
    /// predicted ready cycle (from the tracked load-delay table) best
    /// matches their own, in place of store-set (MDA) steering.
    pub ldt_steering: bool,
    /// Step 3: allow two chains to share one P-IQ.
    pub piq_sharing: bool,
    /// Fig. 13 "w/o constraints": lift the same-half and single-active-
    /// head constraints.
    pub ideal_sharing: bool,
    /// Physical registers tracked by the P-SCB.
    pub num_phys_regs: usize,
    /// Store-set ids tracked by the LFST steering extension.
    pub num_ssids: usize,
    /// How many cycles ahead a source may become ready while its consumer
    /// is allowed to linger in the S-IQ instead of being steered
    /// (captures the intra-group enable logic of Fig. 8: consumers of
    /// just-issued single-cycle producers issue back-to-back from the
    /// S-IQ).
    pub spec_horizon: u64,
}

impl Default for BallerinoConfig {
    fn default() -> Self {
        Self::eight_wide()
    }
}

impl BallerinoConfig {
    /// Ballerino at 8-wide: 8-entry S-IQ + 7×12-entry P-IQs (Table II).
    pub fn eight_wide() -> Self {
        BallerinoConfig {
            siq_entries: 8,
            siq_window: 4,
            num_piqs: 7,
            piq_entries: 12,
            mda_steering: true,
            ldt_steering: false,
            piq_sharing: true,
            ideal_sharing: false,
            num_phys_regs: 348,
            num_ssids: 128,
            spec_horizon: 1,
        }
    }

    /// Ballerino-12: 1 S-IQ + 11 P-IQs (§VI-A).
    pub fn twelve() -> Self {
        BallerinoConfig {
            num_piqs: 11,
            ..Self::eight_wide()
        }
    }

    /// Step 1 of Fig. 13: S-IQ + 7 P-IQs, no MDA steering, no sharing.
    pub fn step1() -> Self {
        BallerinoConfig {
            mda_steering: false,
            piq_sharing: false,
            ..Self::eight_wide()
        }
    }

    /// Step 2 of Fig. 13: Step 1 + MDA steering.
    pub fn step2() -> Self {
        BallerinoConfig {
            piq_sharing: false,
            ..Self::eight_wide()
        }
    }

    /// Ballerino-LDT: store-set steering replaced by tracked-load-delay
    /// steering (the LDT extension kind; see `ballerino_sched::ldt`).
    pub fn ldt() -> Self {
        BallerinoConfig {
            mda_steering: false,
            ldt_steering: true,
            ..Self::eight_wide()
        }
    }

    /// Step 3 without implementation constraints (ideal, Fig. 13).
    pub fn step3_ideal() -> Self {
        BallerinoConfig {
            ideal_sharing: true,
            ..Self::eight_wide()
        }
    }

    /// 4-wide variant (Table II: 8-entry S-IQ, 3×16-entry P-IQs).
    pub fn four_wide() -> Self {
        BallerinoConfig {
            siq_entries: 8,
            siq_window: 4,
            num_piqs: 3,
            piq_entries: 16,
            ..Self::eight_wide()
        }
    }

    /// 2-wide variant (Table II: 4-entry S-IQ, 1×16-entry P-IQ).
    pub fn two_wide() -> Self {
        BallerinoConfig {
            siq_entries: 4,
            siq_window: 2,
            num_piqs: 1,
            piq_entries: 16,
            ..Self::eight_wide()
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct LfstSteer {
    piq: u16,
    part: u8,
    reserved: bool,
    store_seq: u64,
}

/// Location encoding stored in the P-SCB: P-IQ index × partition.
fn encode_loc(piq: usize, part: PartId) -> u16 {
    (piq as u16) * 2 + part.0 as u16
}

fn decode_loc(loc: u16) -> (usize, PartId) {
    ((loc / 2) as usize, PartId((loc % 2) as u8))
}

/// Where a new dependence head can go.
#[derive(Debug, Clone, Copy)]
enum Alloc {
    /// An empty P-IQ, or an empty partition of a shared one.
    Free(usize, PartId),
    /// P-IQ `k`, once sharing is activated on it (Step 3).
    Share(usize),
}

/// The widest S-IQ scheduling window: the issue path walks it with
/// fixed 32-slot buffers and a `u32` remove mask.
pub const MAX_SIQ_WINDOW: usize = 32;

/// Destinations of single-cycle μops issued *this very cycle*: the
/// scoreboard is only updated by the pipeline after `issue` returns, so
/// the intra-group enable logic (Fig. 8) tracks them here to keep their
/// consumers in the S-IQ for back-to-back issue. Issues are port
/// claims, so `MAX_PORTS` bounds them per cycle.
struct JustIssued {
    regs: [PhysReg; MAX_PORTS],
    len: usize,
}

impl JustIssued {
    fn new() -> Self {
        JustIssued {
            regs: [PhysReg(0); MAX_PORTS],
            len: 0,
        }
    }

    fn note(&mut self, u: &SchedUop) {
        if !u.is_load() && u.class.exec_latency() as u64 <= 1 {
            if let Some(d) = u.dst {
                self.regs[self.len] = d;
                self.len += 1;
            }
        }
    }

    fn contains(&self, r: &PhysReg) -> bool {
        self.regs[..self.len].contains(r)
    }
}

/// Per-cycle shape of an idle S-IQ window walk (see
/// `Ballerino::idle_window_shape`).
struct IdleWindow {
    /// Entries that linger in the window (examined, no steer).
    lingerers: usize,
    /// Whether a failed-steer blocker terminates the walk.
    blocker: bool,
    /// First cycle at which the walk's shape changes without a
    /// completion edge (a far blocker's source sliding inside the
    /// speculation horizon); `u64::MAX` when only edges can change it.
    horizon: u64,
}

/// The Ballerino scheduler.
#[derive(Debug)]
pub struct Ballerino {
    cfg: BallerinoConfig,
    siq: VecDeque<SchedUop>,
    piqs: Vec<Piq>,
    /// P-SCB producer-location extension.
    loc: LocTable,
    lfst_steer: Vec<Option<LfstSteer>>,
    /// The load-delay tracker behind LDT steering (present when
    /// `cfg.ldt_steering`; its charges fold into the P-SCB's).
    ldt: Option<LoadDelayTracker>,
    energy: SchedEnergyEvents,
    steer: SteerStats,
    heads: HeadStateStats,
    breakdown: IssueBreakdown,
    /// Sharing-mode activations (diagnostics / Fig. 13 analysis).
    pub sharing_activations: u64,
    /// Producer-indexed wakeup lists + ready state. A μop's fabric entry
    /// is keyed by seq, so it survives the S-IQ → P-IQ steering moves;
    /// steering tags it with its P-IQ location.
    fabric: WakeFabric,
    /// The P-IQ heads' states, maintained on edges (see `board.rs`).
    board: HeadBoard,
    name: String,
}

impl Ballerino {
    /// Builds an empty Ballerino scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `siq_window` exceeds [`MAX_SIQ_WINDOW`] or `num_piqs`
    /// exceeds [`MAX_PIQS`] (the widths of the issue path's fixed
    /// buffers and masks).
    pub fn new(cfg: BallerinoConfig) -> Self {
        assert!(
            cfg.siq_window <= MAX_SIQ_WINDOW,
            "S-IQ window {} exceeds the {MAX_SIQ_WINDOW}-slot issue buffers",
            cfg.siq_window
        );
        assert!(
            cfg.num_piqs <= MAX_PIQS,
            "{} P-IQs exceed the {MAX_PIQS}-queue head board",
            cfg.num_piqs
        );
        let board = HeadBoard::new(cfg.num_piqs, cfg.ideal_sharing);
        let piqs = (0..cfg.num_piqs)
            .map(|_| Piq::new(cfg.piq_entries, cfg.ideal_sharing))
            .collect();
        let loc = LocTable::new(cfg.num_phys_regs);
        let lfst_steer = vec![None; cfg.num_ssids];
        let ldt = cfg
            .ldt_steering
            .then(|| LoadDelayTracker::new(cfg.num_phys_regs));
        let mut name = format!("ballerino-{}", cfg.num_piqs + 1);
        if cfg.ldt_steering {
            name.push_str("-ldt");
        } else if !cfg.mda_steering {
            name.push_str("-step1");
        } else if !cfg.piq_sharing {
            name.push_str("-step2");
        } else if cfg.ideal_sharing {
            name.push_str("-ideal");
        }
        Ballerino {
            cfg,
            piqs,
            siq: VecDeque::new(),
            loc,
            lfst_steer,
            ldt,
            energy: SchedEnergyEvents::default(),
            steer: SteerStats::default(),
            heads: HeadStateStats::default(),
            breakdown: IssueBreakdown::default(),
            sharing_activations: 0,
            fabric: WakeFabric::new(),
            board,
            name,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BallerinoConfig {
        &self.cfg
    }

    /// Current S-IQ occupancy (tests/diagnostics).
    pub fn siq_len(&self) -> usize {
        self.siq.len()
    }

    /// Occupancy of P-IQ `i` (tests/diagnostics).
    pub fn piq_len(&self, i: usize) -> usize {
        self.piqs[i].len()
    }

    /// Whether P-IQ `i` is in sharing mode.
    pub fn piq_shared(&self, i: usize) -> bool {
        self.piqs[i].is_shared()
    }

    fn push_tracked(&mut self, piq: usize, part: PartId, uop: SchedUop) {
        if let Some(d) = uop.dst {
            self.loc.set_location(d, encode_loc(piq, part));
        }
        if self.cfg.mda_steering && uop.is_store() {
            if let Some(ssid) = uop.ssid {
                self.lfst_steer[ssid.0 as usize] = Some(LfstSteer {
                    piq: piq as u16,
                    part: part.0,
                    reserved: false,
                    store_seq: uop.seq,
                });
                self.energy.loc_writes += 1;
            }
        }
        self.energy.queue_writes += 1;
        let was_empty = self.piqs[piq].front(part).is_none();
        self.piqs[piq].push(part, uop);
        self.fabric.set_tag(uop.seq, piq_tag(piq, part));
        if was_empty {
            self.board
                .set_head(piq, part, Some(self.fabric.state(uop.seq)));
        }
    }

    /// Pops the head of partition `part` of P-IQ `k`, moving the board to
    /// the next head (or to empty, collapsing sharing when both
    /// partitions drained).
    fn pop_head(&mut self, k: usize, part: PartId) -> SchedUop {
        let u = self.piqs[k].pop(part).expect("head present");
        let next = self.piqs[k].front(part).map(|h| self.fabric.state(h.seq));
        self.board.set_head(k, part, next);
        if !self.piqs[k].is_shared() {
            self.board.set_shared(k, false);
        }
        u
    }

    /// Claims a port for the ready head of partition `part` of P-IQ `k`
    /// and issues it; returns whether the port was free.
    fn issue_head(
        &mut self,
        k: usize,
        part: PartId,
        ctx: &ReadyCtx<'_>,
        ports: &mut PortAlloc<'_>,
        just_issued: &mut JustIssued,
        out: &mut Vec<u64>,
    ) -> bool {
        let head = self.piqs[k].front(part).expect("ready head present");
        if !ports.try_claim(head.port, head.class) {
            return false;
        }
        let u = self.pop_head(k, part);
        self.fabric.remove(u.seq);
        self.energy.queue_reads += 1;
        self.breakdown.from_piq += 1;
        self.release_store_lfst(&u);
        if let Some(t) = &mut self.ldt {
            t.note_issue(&u, ctx.cycle);
        }
        just_issued.note(&u);
        out.push(u.seq);
        true
    }

    fn record_heads(&mut self, c: HeadCounts) {
        self.energy.head_examinations += c.exams;
        self.heads.record_n(HeadState::Empty, c.empty);
        self.heads.record_n(HeadState::StallNonReady, c.waiting);
        self.heads.record_n(HeadState::StallMdepLoad, c.held);
    }

    /// Debug cross-check: the board must equal one rebuilt by walking
    /// every head, and this cycle's view of it must equal a plain walk
    /// of each queue's issue candidates.
    #[cfg(debug_assertions)]
    fn check_board(&self) {
        let walked = HeadBoard::from_walk(&self.piqs, &self.fabric, self.cfg.ideal_sharing);
        assert_eq!(
            self.board, walked,
            "P-IQ head board diverged from its heads"
        );
        let mut v = crate::board::IssueView::default();
        for (k, q) in self.piqs.iter().enumerate() {
            if q.active_part() == PartId(1) {
                v.active1 |= 1 << k;
            }
            for (i, part) in q.issue_candidates().enumerate() {
                let state = q.front(part).map(|h| self.fabric.state(h.seq));
                if state.is_some() {
                    v.counts.exams += 1;
                }
                match (i, state) {
                    (0, None) => v.counts.empty += 1,
                    (0, Some(WakeState::Waiting)) => v.counts.waiting += 1,
                    (0, Some(WakeState::Held)) => v.counts.held += 1,
                    (0, Some(WakeState::Ready)) => v.ready_first |= 1 << k,
                    (_, Some(WakeState::Ready)) => v.ready_second |= 1 << k,
                    _ => {}
                }
            }
        }
        assert_eq!(self.board.issue_view(), v, "P-IQ head board view diverged");
    }

    /// LDT steering target: the partition whose tail's predicted ready
    /// cycle is the latest one not exceeding the μop's own prediction —
    /// the memory μop queues behind work that should finish no later
    /// than its operands arrive. Replaces store-set (MDA) steering in
    /// LDT mode; only memory μops are considered, mirroring MDA's
    /// applicability.
    ///
    /// Only tails *older* than the μop qualify: dependence-based steering
    /// (MDA, P-SCB) keeps every partition age-sorted for free because
    /// producers precede consumers, and forward progress leans on that —
    /// an unordered FIFO lets the globally oldest unissued μop sit behind
    /// younger entries whose producers wait behind it in another queue
    /// (a cross-queue dependence cycle that live-locks the machine).
    ///
    /// A pure lookup: `steer` charges the delay-table reads.
    fn ldt_target(&self, uop: &SchedUop) -> Option<(usize, PartId)> {
        if !(uop.is_load() || uop.is_store()) {
            return None;
        }
        let t = self.ldt.as_ref()?;
        let pred = t.source_prediction(uop);
        let mut best: Option<(u64, usize, PartId)> = None;
        for (k, q) in self.piqs.iter().enumerate() {
            for part in [PartId(0), PartId(1)] {
                if !q.can_push(part) {
                    continue;
                }
                let Some(tail) = q.back(part) else { continue };
                if tail.seq >= uop.seq {
                    continue;
                }
                let Some(d) = tail.dst else { continue };
                let tp = t.predicted(d);
                if tp == 0 || tp > pred {
                    continue;
                }
                // Strict improvement only: first-come wins ties, so the
                // lowest (queue, partition) pair is deterministic.
                if best.map(|(bt, _, _)| tp > bt).unwrap_or(true) {
                    best = Some((tp, k, part));
                }
            }
        }
        best.map(|(_, k, p)| (k, p))
    }

    /// The load-delay tracker (LDT mode; tests/diagnostics).
    pub fn load_delay_tracker(&self) -> Option<&LoadDelayTracker> {
        self.ldt.as_ref()
    }

    /// The LFST-steer entry a memory μop probes under MDA steering; the
    /// probe charges one table read whenever an entry is present.
    fn lfst_probe(&self, uop: &SchedUop) -> Option<LfstSteer> {
        if !self.cfg.mda_steering || !(uop.is_load() || uop.is_store()) {
            return None;
        }
        self.lfst_steer[uop.ssid?.0 as usize]
    }

    /// MDA steering target (§III-B): the partition whose tail is the
    /// μop's predicted producer store, unless another load already
    /// reserved it. A pure lookup: `steer` charges the probe and makes
    /// the reservation.
    fn mda_target(&self, uop: &SchedUop) -> Option<(usize, PartId)> {
        let e = self.lfst_probe(uop).filter(|e| !e.reserved)?;
        let (k, part) = (e.piq as usize, PartId(e.part));
        let at_tail = self.piqs[k]
            .back(part)
            .map(|b| b.seq == e.store_seq)
            .unwrap_or(false);
        (at_tail && self.piqs[k].can_push(part)).then_some((k, part))
    }

    /// R-dependence steering target: the partition holding a producer at
    /// its tail; with two candidates the younger producer's chain wins.
    /// A pure lookup: `steer` charges the P-SCB reads and reserves the
    /// returned source.
    fn rdep_target(&self, uop: &SchedUop) -> Option<(usize, PartId, PhysReg)> {
        let mut best: Option<(usize, PartId, PhysReg, u64)> = None;
        for src in uop.srcs.iter().flatten() {
            let e = self.loc.peek(*src);
            let Some(enc) = e.iq_index else { continue };
            if e.reserved {
                continue;
            }
            let (k, part) = decode_loc(enc);
            if !self.piqs[k].can_push(part) {
                continue;
            }
            // The producer must still be resident at that tail.
            let tail_seq = match self.piqs[k].back(part) {
                Some(b) => b.seq,
                None => continue,
            };
            if best.map(|(_, _, _, s)| tail_seq > s).unwrap_or(true) {
                best = Some((k, part, *src, tail_seq));
            }
        }
        best.map(|(k, p, src, _)| (k, p, src))
    }

    /// Allocation target for a new dependence head: an empty P-IQ, an
    /// empty partition of a shared P-IQ, or (Step 3) an eligible P-IQ to
    /// share. A pure lookup: [`Ballerino::allocate`] activates sharing.
    fn alloc_target(&self) -> Option<Alloc> {
        if let Some(k) = self
            .piqs
            .iter()
            .position(|q| q.is_empty() && !q.is_shared())
        {
            return Some(Alloc::Free(k, PartId(0)));
        }
        for (k, q) in self.piqs.iter().enumerate() {
            if let Some(p) = q.empty_partition() {
                return Some(Alloc::Free(k, p));
            }
        }
        if self.cfg.piq_sharing {
            if let Some(k) = self.piqs.iter().position(|q| q.shareable()) {
                return Some(Alloc::Share(k));
            }
        }
        None
    }

    /// Takes the allocation target, activating sharing when it asks to.
    fn allocate(&mut self) -> Option<(usize, PartId)> {
        match self.alloc_target()? {
            Alloc::Free(k, part) => Some((k, part)),
            Alloc::Share(k) => {
                let part = self.piqs[k].activate_sharing();
                self.board.set_shared(k, true);
                self.sharing_activations += 1;
                Some((k, part))
            }
        }
    }

    /// Steers one non-ready μop out of the S-IQ window. Returns whether a
    /// P-IQ accepted it. Each rule's table reads are charged as it is
    /// consulted, so a rule that hits spares the later rules' reads.
    fn steer(&mut self, uop: &SchedUop) -> bool {
        self.energy.steer_ops += 1;
        let n_srcs = uop.srcs.iter().flatten().count() as u64;
        if let Some(t) = self.ldt.as_mut() {
            if uop.is_load() || uop.is_store() {
                t.charge_reads(n_srcs);
            }
        }
        if let Some((k, part)) = self.ldt_target(uop) {
            self.steer.record(SteerEvent::SteerDc);
            self.push_tracked(k, part, *uop);
            return true;
        }
        if self.lfst_probe(uop).is_some() {
            self.energy.loc_reads += 1;
        }
        if let Some((k, part)) = self.mda_target(uop) {
            let ssid = uop.ssid.expect("an MDA target has a store set");
            let e = self.lfst_steer[ssid.0 as usize].as_mut().expect("probed");
            e.reserved = true;
            self.energy.loc_writes += 1;
            self.steer.record(SteerEvent::SteerDc);
            self.push_tracked(k, part, *uop);
            return true;
        }
        self.loc.reads += n_srcs;
        if let Some((k, part, src)) = self.rdep_target(uop) {
            self.loc.reserve(src);
            self.steer.record(SteerEvent::SteerDc);
            self.push_tracked(k, part, *uop);
            return true;
        }
        if let Some((k, part)) = self.allocate() {
            let shared = self.piqs[k].is_shared();
            self.steer.record(if shared {
                SteerEvent::SteerShared
            } else {
                SteerEvent::AllocNonReady
            });
            self.push_tracked(k, part, *uop);
            return true;
        }
        false
    }

    /// Whether `steer` would move `uop` into a P-IQ: any of its rules
    /// has a target.
    fn would_steer(&self, uop: &SchedUop) -> bool {
        self.ldt_target(uop).is_some()
            || self.mda_target(uop).is_some()
            || self.rdep_target(uop).is_some()
            || self.alloc_target().is_some()
    }

    /// Walks the S-IQ window exactly as an issue-free `issue` call would,
    /// without mutating anything. Returns `None` when the walk is not
    /// idle (an entry would issue, fight for a port, or be steered), else
    /// the walk's per-cycle shape: how many entries linger, whether a
    /// failed-steer blocker terminates the walk, and the first cycle at
    /// which the shape changes without a completion edge.
    fn idle_window_shape(&self, ctx: &ReadyCtx<'_>) -> Option<IdleWindow> {
        let window = self.cfg.siq_window.min(self.siq.len());
        let mut lingering = [PhysReg(0); MAX_SIQ_WINDOW];
        let mut n_linger = 0usize;
        let mut horizon = u64::MAX;
        let mut lingerers = 0usize;
        for i in 0..window {
            let u = &self.siq[i];
            if ctx.is_ready(u) {
                return None; // would issue or contend for a port now
            }
            let held = ctx.held.contains(u.seq);
            if !held {
                let mut far_rc_max = 0u64;
                let mut far = false;
                for s in u.srcs.iter().flatten() {
                    let rc = ctx.scb.ready_cycle(*s);
                    if rc > ctx.cycle + self.cfg.spec_horizon && !lingering[..n_linger].contains(s)
                    {
                        far = true;
                        far_rc_max = far_rc_max.max(rc);
                    }
                }
                if !far {
                    // Lingers for back-to-back issue; wakes (and issues)
                    // on its last source's completion edge, which the
                    // pipeline's event queue already bounds.
                    if let Some(d) = u.dst {
                        lingering[n_linger] = d;
                        n_linger += 1;
                    }
                    lingerers += 1;
                    continue;
                }
                // Far blocker: it starts lingering (changing the walk
                // shape) once its farthest source slides inside the
                // speculation horizon.
                if far_rc_max != u64::MAX {
                    horizon = horizon.min(far_rc_max - self.cfg.spec_horizon);
                }
            }
            if self.would_steer(u) {
                return None; // steering would move it to a P-IQ
            }
            return Some(IdleWindow {
                lingerers,
                blocker: true,
                horizon,
            });
        }
        Some(IdleWindow {
            lingerers,
            blocker: false,
            horizon,
        })
    }

    fn release_store_lfst(&mut self, u: &SchedUop) {
        if self.cfg.mda_steering && u.is_store() {
            if let Some(ssid) = u.ssid {
                if let Some(e) = self.lfst_steer[ssid.0 as usize] {
                    if e.store_seq == u.seq {
                        self.lfst_steer[ssid.0 as usize] = None;
                    }
                }
            }
        }
    }
}

impl Scheduler for Ballerino {
    fn name(&self) -> &str {
        &self.name
    }

    fn try_dispatch(&mut self, uop: SchedUop, ctx: &ReadyCtx<'_>) -> DispatchOutcome {
        if self.siq.len() >= self.cfg.siq_entries {
            return DispatchOutcome::Stall(StallReason::Full);
        }
        if let Some(t) = &mut self.ldt {
            // Annotate the dependence chain with predicted ready cycles
            // (after the full-check: refused dispatches touch nothing,
            // which the quiesce replay relies on).
            t.annotate(&uop, ctx.cycle);
        }
        self.energy.queue_writes += 1;
        self.fabric.insert(&uop, 0, ctx);
        self.siq.push_back(uop);
        DispatchOutcome::Accepted
    }

    fn issue(&mut self, ctx: &ReadyCtx<'_>, ports: &mut PortAlloc<'_>, out: &mut Vec<u64>) {
        if let Some(t) = &mut self.ldt {
            t.observe(ctx.scb);
        }
        let board = &mut self.board;
        let piqs = &self.piqs;
        self.fabric.poll_with(ctx, |seq, tag| {
            board.on_edge(piqs, seq, tag, WakeState::Ready)
        });
        #[cfg(debug_assertions)]
        self.check_board();
        let mut just_issued = JustIssued::new();

        // ---- 1. P-IQ heads: highest select priority (prefix-sum order,
        //         §IV-E), examined via the active head pointer(s). The
        //         head board supplies every examination and every record
        //         of a non-ready head; only ready candidate heads are
        //         visited, in queue order, to arbitrate for ports.
        let view = self.board.issue_view();
        self.record_heads(view.counts);
        let mut any_candidate = (view.ready_first | view.ready_second) != 0;
        let mut issued = 0u64;
        for k in bits(view.ready_first | view.ready_second) {
            if view.ready_first & (1 << k) != 0 {
                let hit = self.issue_head(k, view.first_part(k), ctx, ports, &mut just_issued, out);
                // One observation per queue per cycle: its first candidate.
                self.heads.record(if hit {
                    HeadState::Issuing
                } else {
                    HeadState::StallPortConflict
                });
                if hit {
                    issued |= 1 << k;
                }
            }
            if view.ready_second & (1 << k) != 0
                && self.issue_head(k, PartId(1), ctx, ports, &mut just_issued, out)
            {
                issued |= 1 << k;
            }
        }
        for k in bits(self.board.end_cycle(issued)) {
            self.piqs[k].end_cycle(None);
        }

        // ---- 2. S-IQ speculative scheduling window: ready μops issue,
        //         far-from-ready μops are steered to the P-IQs.
        let window = self.cfg.siq_window.min(self.siq.len());
        let mut remove_mask = 0u32;
        let mut lingering = [PhysReg(0); MAX_SIQ_WINDOW];
        let mut n_linger = 0usize;
        for i in 0..window {
            let u = self.siq[i];
            self.energy.head_examinations += 1;
            if self.fabric.state(u.seq) == WakeState::Ready {
                any_candidate = true;
                if ports.try_claim(u.port, u.class) {
                    self.fabric.remove(u.seq);
                    self.energy.queue_reads += 1;
                    self.breakdown.from_siq += 1;
                    self.steer.record(SteerEvent::SpeculativeIssue);
                    self.release_store_lfst(&u);
                    if let Some(t) = &mut self.ldt {
                        t.note_issue(&u, ctx.cycle);
                    }
                    just_issued.note(&u);
                    out.push(u.seq);
                    remove_mask |= 1 << i;
                } else {
                    // Ready but port-denied (§IV-C case 3): steer to a new
                    // P-IQ head; re-examined there next cycle. Its fabric
                    // entry follows the seq, untouched.
                    self.energy.steer_ops += 1;
                    if let Some((k, part)) = self.allocate() {
                        let shared = self.piqs[k].is_shared();
                        self.steer.record(if shared {
                            SteerEvent::SteerShared
                        } else {
                            SteerEvent::AllocReady
                        });
                        self.push_tracked(k, part, u);
                        remove_mask |= 1 << i;
                    }
                    // No free queue: it simply stays in the S-IQ.
                }
                continue;
            }
            // Held loads must move to the P-IQs (ideally behind their
            // producer store via MDA steering).
            let held = ctx.held.contains(u.seq);
            if !held {
                // Soon-ready consumers linger for back-to-back issue; a
                // source counts as soon-ready when its producer issued
                // within this very cycle with single-cycle latency, or
                // when the producer itself lingers in the window (the
                // intra-group dependence analysis of Fig. 8 keeps whole
                // soon-ready chains in the S-IQ).
                let far = u.srcs.iter().flatten().any(|s| {
                    let rc = ctx.scb.ready_cycle(*s);
                    rc > ctx.cycle + self.cfg.spec_horizon
                        && !just_issued.contains(s)
                        && !lingering[..n_linger].contains(s)
                });
                if !far {
                    if let Some(d) = u.dst {
                        lingering[n_linger] = d;
                        n_linger += 1;
                    }
                    continue;
                }
            }
            if self.steer(&u) {
                remove_mask |= 1 << i;
            } else {
                // Steering stall: the window cannot advance past this μop.
                self.steer.record(SteerEvent::StallNonReady);
                break;
            }
        }
        for i in (0..window).rev() {
            if remove_mask & (1 << i) != 0 {
                self.siq.remove(i);
            }
        }

        if any_candidate {
            // Each port's prefix-sum sees P-IQ head requests above S-IQ
            // slot requests (§IV-E).
            let inputs = self.cfg.num_piqs + self.cfg.siq_window;
            self.energy.select_inputs += inputs as u64;
        }
    }

    fn on_complete(&mut self, dst: PhysReg) {
        self.loc.clear(dst);
        if let Some(t) = &mut self.ldt {
            t.complete(dst);
        }
        let board = &mut self.board;
        let piqs = &self.piqs;
        self.fabric
            .on_complete_with(dst, |seq, tag, state| board.on_edge(piqs, seq, tag, state));
    }

    fn flush_after(&mut self, seq: u64, flushed_dests: &[PhysReg]) {
        self.fabric.flush_after(seq);
        while self.siq.back().map(|u| u.seq > seq).unwrap_or(false) {
            self.siq.pop_back();
        }
        for q in &mut self.piqs {
            q.flush_after(seq);
        }
        self.board = HeadBoard::from_walk(&self.piqs, &self.fabric, self.cfg.ideal_sharing);
        for d in flushed_dests {
            self.loc.clear(*d);
        }
        if let Some(t) = &mut self.ldt {
            t.flush(flushed_dests);
        }
        for e in &mut self.lfst_steer {
            if e.map(|s| s.store_seq > seq).unwrap_or(false) {
                *e = None;
            }
        }
    }

    fn occupancy(&self) -> usize {
        self.siq.len() + self.piqs.iter().map(|q| q.len()).sum::<usize>()
    }

    fn capacity(&self) -> usize {
        self.cfg.siq_entries + self.cfg.num_piqs * self.cfg.piq_entries
    }

    fn energy_events(&self) -> SchedEnergyEvents {
        let mut e = self.energy;
        e.loc_reads += self.loc.reads;
        e.loc_writes += self.loc.writes;
        if let Some(t) = &self.ldt {
            e.add(&t.charges());
        }
        e
    }

    fn issue_breakdown(&self) -> IssueBreakdown {
        self.breakdown
    }

    fn steer_stats(&self) -> SteerStats {
        self.steer
    }

    fn head_stats(&self) -> HeadStateStats {
        self.heads
    }

    fn next_event_cycle(&self, ctx: &ReadyCtx<'_>, pending: Option<&SchedUop>) -> Option<u64> {
        if pending.is_some() && self.siq.len() < self.cfg.siq_entries {
            return None; // dispatch would be accepted this cycle
        }
        // P-IQ heads. The single-active-head toggle visits both partitions
        // of a shared queue across idle cycles, so no head of either may
        // be issuable: none ready, and no held head whose hold is already
        // released. A waiting head wakes only on a completion edge, which
        // the pipeline's event queue bounds, so heads add no horizon.
        if self.board.any_ready()
            || self.board.held_heads().any(|(k, part)| {
                let head = self.piqs[k].front(part).expect("held head present");
                !ctx.held.contains(head.seq)
            })
        {
            return None;
        }
        let shape = self.idle_window_shape(ctx)?;
        Some(shape.horizon)
    }

    fn note_idle_cycles(&mut self, ctx: &ReadyCtx<'_>, _pending: Option<&SchedUop>, k: u64) {
        if k == 0 {
            return;
        }
        if let Some(t) = &mut self.ldt {
            // The first idle `issue` call would have drained the
            // observation queue; it cannot refill during an idle window,
            // so one drain replicates all k.
            t.observe(ctx.scb);
        }
        // ---- 1. P-IQ heads: replay examinations, head-state records and
        //         the active-pointer toggles in closed form.
        let (counts, toggled) = self.board.end_idle_cycles(k);
        self.record_heads(counts);
        for q in bits(toggled) {
            self.piqs[q].end_idle_cycles(k);
        }
        #[cfg(debug_assertions)]
        self.check_board();
        // ---- 2. S-IQ window: lingering entries cost one examination
        //         each; a failed-steer blocker re-probes the steering
        //         tables every cycle.
        if let Some(shape) = self.idle_window_shape(ctx) {
            self.energy.head_examinations += k * shape.lingerers as u64;
            if shape.blocker {
                let b = self.siq[shape.lingerers];
                self.energy.head_examinations += k;
                self.energy.steer_ops += k;
                if self.lfst_probe(&b).is_some() {
                    self.energy.loc_reads += k;
                }
                let n_srcs = b.srcs.iter().flatten().count() as u64;
                if let Some(t) = self.ldt.as_mut() {
                    if b.is_load() || b.is_store() {
                        // The failed `ldt_target` probe re-reads the
                        // delay table for each source every cycle.
                        t.charge_reads(k * n_srcs);
                    }
                }
                self.loc.reads += k * n_srcs;
                self.steer.record_n(SteerEvent::StallNonReady, k);
            }
        }
    }

    fn debug_locate(&self, seq: u64) -> String {
        let mut s = String::new();
        if let Some(i) = self.siq.iter().position(|u| u.seq == seq) {
            s.push_str(&format!(
                "siq[{i}] (window {}, len {}); ",
                self.cfg.siq_window,
                self.siq.len()
            ));
        }
        for (k, q) in self.piqs.iter().enumerate() {
            for (j, u) in q.iter().enumerate() {
                if u.seq == seq {
                    s.push_str(&format!(
                        "piq[{k}][{j}] shared={} active={:?} f0={:?} f1={:?}; ",
                        q.is_shared(),
                        q.active_part(),
                        q.front(PartId(0)).map(|u| u.seq),
                        q.front(PartId(1)).map(|u| u.seq),
                    ));
                }
            }
        }
        s.push_str(&format!("fabric: {}", self.fabric.debug_entry(seq)));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballerino_isa::{OpClass, PortId};
    use ballerino_mem::SsId;
    use ballerino_sched::ldt::INITIAL_TRACKED_DELAY;
    use ballerino_sched::{FuBusy, HeldSet, Scoreboard};

    fn op(seq: u64, dst: Option<u32>, srcs: [Option<u32>; 2]) -> SchedUop {
        SchedUop {
            port: PortId((seq % 4) as u8),
            srcs: [srcs[0].map(PhysReg), srcs[1].map(PhysReg)],
            dst: dst.map(PhysReg),
            ..SchedUop::test_op(seq)
        }
    }

    struct Rig {
        b: Ballerino,
        scb: Scoreboard,
        held: HeldSet,
    }

    impl Rig {
        fn new(cfg: BallerinoConfig) -> Self {
            Rig {
                b: Ballerino::new(cfg),
                scb: Scoreboard::new(348),
                held: HeldSet::new(),
            }
        }

        fn dispatch(&mut self, u: SchedUop) -> DispatchOutcome {
            let ctx = ReadyCtx {
                cycle: 0,
                scb: &self.scb,
                held: &self.held,
            };
            self.b.try_dispatch(u, &ctx)
        }

        fn issue(&mut self, cycle: u64) -> Vec<u64> {
            let ctx = ReadyCtx {
                cycle,
                scb: &self.scb,
                held: &self.held,
            };
            let busy = FuBusy::new();
            let mut pa = PortAlloc::new(8, 8, &busy, cycle);
            let mut out = Vec::new();
            self.b.issue(&ctx, &mut pa, &mut out);
            out
        }

        fn next_event(&self, cycle: u64) -> Option<u64> {
            let ctx = ReadyCtx {
                cycle,
                scb: &self.scb,
                held: &self.held,
            };
            self.b.next_event_cycle(&ctx, None)
        }

        fn idle(&mut self, cycle: u64, k: u64) {
            let ctx = ReadyCtx {
                cycle,
                scb: &self.scb,
                held: &self.held,
            };
            self.b.note_idle_cycles(&ctx, None, k);
        }
    }

    #[test]
    fn ready_ops_issue_speculatively_without_piq_allocation() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        for i in 0..4 {
            assert_eq!(
                r.dispatch(op(i, None, [None, None])),
                DispatchOutcome::Accepted
            );
        }
        let out = r.issue(0);
        assert_eq!(out.len(), 4);
        assert_eq!(r.b.issue_breakdown().from_siq, 4);
        assert_eq!(r.b.piqs.iter().map(|q| q.len()).sum::<usize>(), 0);
    }

    #[test]
    fn far_nonready_ops_are_steered_along_chains() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        for p in [10, 11, 12] {
            r.scb.allocate(PhysReg(p));
        }
        // Producer never issues; chain 10 -> 11 -> 12.
        r.dispatch(op(0, Some(11), [Some(10), None]));
        r.dispatch(op(1, Some(12), [Some(11), None]));
        let out = r.issue(0);
        assert!(out.is_empty());
        assert_eq!(r.b.piq_len(0), 2, "chain shares one P-IQ");
        assert_eq!(r.b.steer_stats().steer_dc, 1);
        assert_eq!(r.b.steer_stats().alloc_nonready, 1);
    }

    #[test]
    fn soon_ready_consumer_lingers_for_back_to_back() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(10));
        r.dispatch(op(0, Some(10), [None, None])); // ready producer
        r.dispatch(op(1, Some(11), [Some(10), None])); // consumer
                                                       // Cycle 0: producer issues; consumer is 1 cycle from ready and
                                                       // must NOT be steered.
        let out = r.issue(0);
        assert_eq!(out, vec![0]);
        r.scb.set_ready_at(PhysReg(10), 1); // pipeline would do this at issue
        r.b.on_complete(PhysReg(10)); // ...and deliver this edge at writeback
        assert_eq!(r.b.siq_len(), 1);
        assert_eq!(r.b.piq_len(0), 0);
        // Cycle 1: back-to-back issue from the S-IQ.
        let out = r.issue(1);
        assert_eq!(out, vec![1]);
        assert_eq!(r.b.issue_breakdown().from_siq, 2);
    }

    #[test]
    fn piq_head_issues_when_long_latency_producer_completes() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(10));
        r.dispatch(op(1, Some(11), [Some(10), None]));
        let _ = r.issue(0); // steered to P-IQ 0
        assert_eq!(r.b.piq_len(0), 1);
        r.scb.set_ready_at(PhysReg(10), 40);
        r.b.on_complete(PhysReg(10));
        let out = r.issue(40);
        assert_eq!(out, vec![1]);
        assert_eq!(r.b.issue_breakdown().from_piq, 1);
    }

    #[test]
    fn sharing_activates_when_piqs_exhausted() {
        let mut r = Rig::new(BallerinoConfig {
            num_piqs: 2,
            ..BallerinoConfig::eight_wide()
        });
        for p in 10..20 {
            r.scb.allocate(PhysReg(p));
        }
        // Three independent blocked chains; only 2 P-IQs.
        r.dispatch(op(0, Some(15), [Some(10), None]));
        r.dispatch(op(1, Some(16), [Some(11), None]));
        r.dispatch(op(2, Some(17), [Some(12), None]));
        let _ = r.issue(0);
        assert_eq!(r.b.sharing_activations, 1);
        assert!(r.b.piq_shared(0));
        assert_eq!(r.b.piq_len(0), 2);
        assert_eq!(r.b.steer_stats().steer_shared, 1);
    }

    #[test]
    fn sharing_disabled_blocks_third_chain_in_siq() {
        let mut r = Rig::new(BallerinoConfig {
            num_piqs: 2,
            piq_sharing: false,
            ..BallerinoConfig::eight_wide()
        });
        for p in 10..20 {
            r.scb.allocate(PhysReg(p));
        }
        r.dispatch(op(0, Some(15), [Some(10), None]));
        r.dispatch(op(1, Some(16), [Some(11), None]));
        r.dispatch(op(2, Some(17), [Some(12), None]));
        let _ = r.issue(0);
        assert_eq!(r.b.siq_len(), 1, "third chain stalls in S-IQ");
        assert!(r.b.steer_stats().stall_nonready > 0);
    }

    #[test]
    fn steering_stall_blocks_younger_window_entries() {
        let mut r = Rig::new(BallerinoConfig {
            num_piqs: 1,
            piq_sharing: false,
            ..BallerinoConfig::eight_wide()
        });
        for p in 10..20 {
            r.scb.allocate(PhysReg(p));
        }
        r.dispatch(op(0, Some(15), [Some(10), None])); // takes P-IQ 0
        r.dispatch(op(1, Some(16), [Some(11), None])); // stalls: no queue
        r.dispatch(op(2, None, [None, None])); // ready, behind the stall
        let out = r.issue(0);
        assert!(
            out.is_empty(),
            "blocked head must not let younger μops issue: {out:?}"
        );
    }

    #[test]
    fn shared_partition_issues_out_of_order_wrt_other_partition() {
        let mut r = Rig::new(BallerinoConfig {
            num_piqs: 1,
            ..BallerinoConfig::eight_wide()
        });
        for p in 10..20 {
            r.scb.allocate(PhysReg(p));
        }
        r.dispatch(op(0, Some(15), [Some(10), None])); // chain A -> P-IQ 0
        r.dispatch(op(1, Some(16), [Some(11), None])); // chain B -> shared part 1
        let _ = r.issue(0);
        assert!(r.b.piq_shared(0));
        // Chain B's producer completes first.
        r.scb.set_ready_at(PhysReg(11), 10);
        r.b.on_complete(PhysReg(11));
        // The active head starts at partition 0 (blocked); with no issue
        // it toggles, so within two cycles partition 1 must issue.
        let mut issued = Vec::new();
        for t in 10..13 {
            issued.extend(r.issue(t));
        }
        assert_eq!(issued, vec![1], "younger chain must bypass the blocked one");
    }

    /// A shared P-IQ whose active head waits while the other
    /// partition's head is ready: the waiting head is the one examined
    /// and recorded, the ready one is not a candidate (and not issued)
    /// until the pointer toggles to it, and the records alternate with
    /// the pointer — the same whether the idle stretch before it is
    /// stepped or replayed in closed form.
    #[test]
    fn shared_piq_records_alternate_with_the_active_head() {
        let cfg = BallerinoConfig {
            num_piqs: 1,
            ..BallerinoConfig::eight_wide()
        };
        let (mut stepped, mut replayed) = (Rig::new(cfg.clone()), Rig::new(cfg));
        for r in [&mut stepped, &mut replayed] {
            for p in 10..20 {
                r.scb.allocate(PhysReg(p));
            }
            r.dispatch(op(0, Some(15), [Some(10), None])); // chain A -> partition 0
            r.dispatch(op(1, Some(16), [Some(11), None])); // chain B -> partition 1
            assert!(r.issue(0).is_empty());
            assert!(r.b.piq_shared(0));
            assert_eq!(r.b.head_stats().empty, 1, "cycle 0 saw an empty queue");
        }
        // Cycles 1..=8: both heads wait; the pointer alternates 0,1,0,...
        for t in 1..=8 {
            assert!(stepped.issue(t).is_empty());
        }
        assert_eq!(
            replayed.next_event(1),
            Some(u64::MAX),
            "waiting heads add no horizon"
        );
        replayed.idle(1, 8);
        for r in [&stepped, &replayed] {
            assert_eq!(r.b.head_stats().stall_nonready, 8);
            assert_eq!(
                r.b.piqs[0].active_part(),
                PartId(0),
                "even number of toggles"
            );
        }
        assert_eq!(stepped.b.energy_events(), replayed.b.energy_events());
        let before = stepped.b.energy_events().head_examinations;
        for r in [&mut stepped, &mut replayed] {
            // B's producer completes: partition 1's head is ready but not
            // active; the machine is no longer quiesced.
            r.scb.set_ready_at(PhysReg(11), 9);
            r.b.on_complete(PhysReg(11));
            assert_eq!(r.next_event(9), None, "a ready head, candidate or not");
            // Cycle 9: the active head (A, waiting) is examined and
            // recorded; B does not issue.
            assert!(r.issue(9).is_empty());
            assert_eq!(r.b.head_stats().stall_nonready, 9);
            assert_eq!(r.b.head_stats().issuing, 0);
            // Cycle 10: the pointer toggled to B, which issues.
            assert_eq!(r.issue(10), vec![1]);
            assert_eq!(r.b.head_stats().issuing, 1);
            // Cycle 11: B's drained partition is still active (it issued
            // last cycle): one Empty record, then the pointer leaves it.
            assert!(r.issue(11).is_empty());
            assert_eq!(r.b.head_stats().empty, 2);
            assert!(r.issue(12).is_empty());
            assert_eq!(r.b.head_stats().stall_nonready, 10);
        }
        // Examinations at cycles 9, 10, 12 (none of the empty head at 11).
        assert_eq!(stepped.b.energy_events().head_examinations, before + 3);
        assert_eq!(stepped.b.head_stats(), replayed.b.head_stats());
        assert_eq!(stepped.b.energy_events(), replayed.b.energy_events());
    }

    #[test]
    #[should_panic(expected = "exceeds the 32-slot issue buffers")]
    fn siq_window_wider_than_the_issue_buffers_is_rejected() {
        let _ = Ballerino::new(BallerinoConfig {
            siq_entries: 64,
            siq_window: MAX_SIQ_WINDOW + 1,
            ..BallerinoConfig::eight_wide()
        });
    }

    #[test]
    #[should_panic(expected = "P-IQs exceed the 64-queue head board")]
    fn more_piqs_than_the_head_board_holds_are_rejected() {
        let _ = Ballerino::new(BallerinoConfig {
            num_piqs: MAX_PIQS + 1,
            ..BallerinoConfig::eight_wide()
        });
    }

    /// The widest accepted shape: a full 32-slot window steering into
    /// all 64 P-IQs, the last queue's head issuing through the board.
    #[test]
    fn widest_accepted_config_steers_and_issues() {
        let mut r = Rig::new(BallerinoConfig {
            siq_entries: MAX_SIQ_WINDOW,
            siq_window: MAX_SIQ_WINDOW,
            num_piqs: MAX_PIQS,
            ..BallerinoConfig::eight_wide()
        });
        for i in 0..MAX_SIQ_WINDOW as u64 {
            r.scb.allocate(PhysReg(100 + i as u32));
            let mut u = op(i, None, [Some(100 + i as u32), None]);
            u.port = PortId(0);
            r.dispatch(u);
        }
        assert_eq!(r.next_event(0), None, "every window entry would steer");
        assert!(r.issue(0).is_empty());
        assert_eq!(r.b.siq_len(), 0);
        assert_eq!(r.b.piq_len(MAX_SIQ_WINDOW - 1), 1);
        let last = MAX_SIQ_WINDOW as u32 - 1;
        r.scb.set_ready_at(PhysReg(100 + last), 3);
        r.b.on_complete(PhysReg(100 + last));
        assert_eq!(r.issue(3), vec![last as u64]);
        assert_eq!(r.b.issue_breakdown().from_piq, 1);
    }

    #[test]
    fn ideal_sharing_issues_without_toggle_delay() {
        let mut r = Rig::new(BallerinoConfig {
            num_piqs: 1,
            ideal_sharing: true,
            ..BallerinoConfig::eight_wide()
        });
        for p in 10..20 {
            r.scb.allocate(PhysReg(p));
        }
        r.dispatch(op(0, Some(15), [Some(10), None]));
        r.dispatch(op(1, Some(16), [Some(11), None]));
        let _ = r.issue(0);
        r.scb.set_ready_at(PhysReg(11), 10);
        r.b.on_complete(PhysReg(11));
        let out = r.issue(10);
        assert_eq!(out, vec![1], "ideal mode examines both heads every cycle");
    }

    #[test]
    fn mda_steering_places_load_behind_store() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(20));
        let mut st = op(0, None, [Some(20), None]);
        st.class = OpClass::Store;
        st.ssid = Some(SsId(3));
        st.port = PortId(2);
        r.dispatch(st);
        let mut ld = op(1, Some(30), [None, None]);
        ld.class = OpClass::Load;
        ld.ssid = Some(SsId(3));
        ld.mdp_wait = Some(0);
        ld.port = PortId(3);
        r.held.insert(1); // register-ready but MDP-held
        r.dispatch(ld);
        let _ = r.issue(0);
        assert_eq!(
            r.b.piq_len(0),
            2,
            "store and its M-dependent load share P-IQ 0"
        );
        assert_eq!(r.b.steer_stats().steer_dc, 1);
    }

    #[test]
    fn without_mda_held_load_takes_own_piq() {
        let mut r = Rig::new(BallerinoConfig::step1());
        r.scb.allocate(PhysReg(20));
        let mut st = op(0, None, [Some(20), None]);
        st.class = OpClass::Store;
        st.ssid = Some(SsId(3));
        r.dispatch(st);
        let mut ld = op(1, Some(30), [None, None]);
        ld.class = OpClass::Load;
        ld.ssid = Some(SsId(3));
        r.held.insert(1);
        r.dispatch(ld);
        let _ = r.issue(0);
        assert_eq!(r.b.piq_len(0), 1);
        assert_eq!(
            r.b.piq_len(1),
            1,
            "Step 1 wastes a P-IQ on the M-dependent load"
        );
    }

    #[test]
    fn ready_but_port_denied_is_steered_to_new_head() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        // Two ready μops competing for the same port.
        let mut a = op(0, None, [None, None]);
        a.port = PortId(5);
        let mut b = op(1, None, [None, None]);
        b.port = PortId(5);
        r.dispatch(a);
        r.dispatch(b);
        let out = r.issue(0);
        assert_eq!(out, vec![0]);
        assert_eq!(r.b.piq_len(0), 1, "loser steered to a P-IQ head");
        assert_eq!(r.b.steer_stats().alloc_ready, 1);
        // Next cycle it issues from the P-IQ head.
        let out = r.issue(1);
        assert_eq!(out, vec![1]);
        assert_eq!(r.b.issue_breakdown().from_piq, 1);
    }

    #[test]
    fn piq_heads_win_port_arbitration_over_siq() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(10));
        let mut old = op(0, Some(15), [Some(10), None]);
        old.port = PortId(5);
        r.dispatch(old);
        let _ = r.issue(0); // steered to P-IQ
                            // Make it ready, then race a younger ready S-IQ μop on the port.
        r.scb.set_ready_at(PhysReg(10), 5);
        r.b.on_complete(PhysReg(10));
        let mut young = op(1, None, [None, None]);
        young.port = PortId(5);
        r.dispatch(young);
        let out = r.issue(5);
        assert_eq!(out, vec![0], "P-IQ head (older) has select priority");
    }

    #[test]
    fn flush_clears_siq_piqs_and_lfst() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(10));
        let mut st = op(0, None, [Some(10), None]);
        st.class = OpClass::Store;
        st.ssid = Some(SsId(2));
        r.dispatch(st);
        r.dispatch(op(1, Some(11), [Some(10), None]));
        r.dispatch(op(2, Some(12), [None, None]));
        let _ = r.issue(0); // st and op1 steered (both depend on 10)
        r.b.flush_after(0, &[PhysReg(11), PhysReg(12)]);
        assert_eq!(r.b.occupancy(), 1);
        // LFST steering entry for a younger store would be gone; here the
        // store itself (seq 0) survives.
        assert_eq!(r.b.piqs.iter().map(|q| q.len()).sum::<usize>(), 1);
    }

    #[test]
    fn capacity_counts_siq_plus_piqs() {
        let b = Ballerino::new(BallerinoConfig::eight_wide());
        assert_eq!(b.capacity(), 8 + 7 * 12);
        let b12 = Ballerino::new(BallerinoConfig::twelve());
        assert_eq!(b12.capacity(), 8 + 11 * 12);
    }

    #[test]
    fn siq_full_stalls_dispatch() {
        let mut r = Rig::new(BallerinoConfig::eight_wide());
        r.scb.allocate(PhysReg(10));
        for i in 0..8 {
            assert_eq!(
                r.dispatch(op(i, None, [Some(10), None])),
                DispatchOutcome::Accepted
            );
        }
        assert_eq!(
            r.dispatch(op(8, None, [Some(10), None])),
            DispatchOutcome::Stall(StallReason::Full)
        );
    }

    #[test]
    fn ldt_steering_places_memory_op_behind_predicted_tail() {
        let mut r = Rig::new(BallerinoConfig::ldt());
        r.scb.allocate(PhysReg(10));
        r.scb.allocate(PhysReg(20));
        // Load A annotates dst 10 with the tracked delay and issues.
        let mut a = op(0, Some(10), [None, None]);
        a.class = OpClass::Load;
        r.dispatch(a);
        // Chain head C is steered to a fresh P-IQ; its dst prediction
        // (exec latency) becomes a steering tail candidate.
        r.dispatch(op(1, Some(21), [Some(20), None]));
        // Load D consumes A's dst: its prediction (4) covers C's tail
        // prediction (1), so LDT steering queues it behind C.
        let mut d = op(2, Some(11), [Some(10), None]);
        d.class = OpClass::Load;
        r.dispatch(d);
        let out = r.issue(0);
        assert_eq!(out, vec![0]);
        assert_eq!(r.b.piq_len(0), 2, "D steered behind C's predicted tail");
        assert_eq!(r.b.steer_stats().steer_dc, 1);
        assert_eq!(r.b.steer_stats().alloc_nonready, 1);
        // A's actual delay is observed at the next scheduler activity.
        r.scb.set_ready_at(PhysReg(10), 20);
        let _ = r.issue(1);
        assert_eq!(
            r.b.load_delay_tracker().map(|t| t.estimate()),
            Some((3 * INITIAL_TRACKED_DELAY + 20) / 4)
        );
    }

    #[test]
    fn names_encode_steps() {
        assert_eq!(
            Ballerino::new(BallerinoConfig::eight_wide()).name(),
            "ballerino-8"
        );
        assert_eq!(
            Ballerino::new(BallerinoConfig::twelve()).name(),
            "ballerino-12"
        );
        assert_eq!(
            Ballerino::new(BallerinoConfig::step1()).name(),
            "ballerino-8-step1"
        );
        assert_eq!(
            Ballerino::new(BallerinoConfig::step2()).name(),
            "ballerino-8-step2"
        );
        assert_eq!(
            Ballerino::new(BallerinoConfig::step3_ideal()).name(),
            "ballerino-8-ideal"
        );
        assert_eq!(
            Ballerino::new(BallerinoConfig::ldt()).name(),
            "ballerino-8-ldt"
        );
    }
}
