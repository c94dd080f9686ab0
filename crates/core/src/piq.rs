//! The shareable P-IQ: a circular FIFO with an optional two-partition
//! sharing mode (§IV-D, Fig. 9).
//!
//! In **normal mode** the queue is one circular FIFO holding a single
//! dependence chain. When the steer logic finds no empty P-IQ it may
//! activate **sharing mode** on an eligible queue: the queue splits into
//! two equal halves operating as distinct FIFOs, each with its own head
//! and tail pointer. The paper's implementation constraints are modelled
//! exactly:
//!
//! * at most **two** partitions,
//! * a queue is eligible only when its head and tail pointers sit in the
//!   **same physical half** (so each logical partition maps to one
//!   physical half),
//! * only **one head pointer is active** per cycle; the active pointer
//!   stays after an issue (back-to-back) and toggles otherwise.
//!
//! The `ideal` flag lifts the second and third constraints (the Fig. 13
//! "w/o constraints" series).

use ballerino_sched::SchedUop;
use std::collections::VecDeque;

/// Identifies one of the two partitions of a P-IQ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartId(pub u8);

/// The (at most two) partitions whose heads compete for issue this
/// cycle; a stack-allocated iterator so the per-cycle select path never
/// touches the heap.
#[derive(Debug, Clone, Copy)]
pub struct IssueCandidates {
    parts: [PartId; 2],
    len: u8,
    next: u8,
}

impl IssueCandidates {
    /// Number of candidate partitions (1 or 2).
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> usize {
        self.len as usize
    }
}

impl Iterator for IssueCandidates {
    type Item = PartId;

    fn next(&mut self) -> Option<PartId> {
        if self.next < self.len {
            let p = self.parts[self.next as usize];
            self.next += 1;
            Some(p)
        } else {
            None
        }
    }
}

/// A P-IQ: single-chain circular FIFO, shareable into two partitions.
#[derive(Debug)]
pub struct Piq {
    cap: usize,
    parts: [VecDeque<SchedUop>; 2],
    shared: bool,
    active: usize,
    /// Physical index of each partition's front slot (pointer emulation
    /// for the same-half eligibility test).
    phys_heads: [usize; 2],
    ideal: bool,
}

impl Piq {
    /// Builds an empty P-IQ with `cap` entries.
    ///
    /// # Panics
    ///
    /// Panics unless `cap` is even and at least 2.
    pub fn new(cap: usize, ideal: bool) -> Self {
        assert!(
            cap >= 2 && cap.is_multiple_of(2),
            "P-IQ capacity must be even and >= 2"
        );
        Piq {
            cap,
            parts: [VecDeque::new(), VecDeque::new()],
            shared: false,
            active: 0,
            phys_heads: [0, 0],
            ideal,
        }
    }

    /// Total entries across partitions.
    pub fn len(&self) -> usize {
        self.parts[0].len() + self.parts[1].len()
    }

    /// Whether the queue holds no μops.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queue capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Whether sharing mode is active.
    pub fn is_shared(&self) -> bool {
        self.shared
    }

    /// The partition whose head pointer is active this cycle (always 0 in
    /// normal mode).
    pub fn active_part(&self) -> PartId {
        PartId(self.active as u8)
    }

    fn half(&self) -> usize {
        self.cap / 2
    }

    fn part_cap(&self, p: usize) -> usize {
        if self.shared || p == 1 {
            self.half()
        } else {
            self.cap
        }
    }

    /// Whether partition `p` can accept another μop.
    pub fn can_push(&self, p: PartId) -> bool {
        let p = p.0 as usize;
        if p == 1 && !self.shared {
            return false;
        }
        self.parts[p].len() < self.part_cap(p)
    }

    /// Appends `uop` to partition `p`'s tail.
    ///
    /// # Panics
    ///
    /// Panics if the partition is full or (for partition 1) sharing is
    /// not active.
    pub fn push(&mut self, p: PartId, uop: SchedUop) {
        assert!(self.can_push(p), "push into unavailable partition {p:?}");
        self.parts[p.0 as usize].push_back(uop);
    }

    /// The μop at partition `p`'s head.
    pub fn front(&self, p: PartId) -> Option<&SchedUop> {
        self.parts[p.0 as usize].front()
    }

    /// The μop at partition `p`'s tail.
    pub fn back(&self, p: PartId) -> Option<&SchedUop> {
        self.parts[p.0 as usize].back()
    }

    /// Pops partition `p`'s head, advancing its physical pointer.
    pub fn pop(&mut self, p: PartId) -> Option<SchedUop> {
        let pi = p.0 as usize;
        let u = self.parts[pi].pop_front();
        if u.is_some() {
            if self.shared {
                let half = self.half();
                let base = (self.phys_heads[pi] / half) * half;
                self.phys_heads[pi] = base + (self.phys_heads[pi] - base + 1) % half;
            } else {
                self.phys_heads[0] = (self.phys_heads[0] + 1) % self.cap;
            }
            self.maybe_collapse();
        }
        u
    }

    /// Whether the same-half eligibility constraint holds (or `ideal`
    /// lifts it): the queue is non-empty, in normal mode, and its content
    /// fits one physical half.
    pub fn shareable(&self) -> bool {
        if self.shared || self.is_empty() {
            return false;
        }
        let len = self.parts[0].len();
        if len > self.half() {
            // More than half the entries are occupied: the content cannot
            // fit one physical half, whatever the pointers say. (This also
            // covers the full-and-wrapped case where the tail lands back
            // in the head's half.)
            return false;
        }
        if self.ideal {
            return true;
        }
        let head = self.phys_heads[0];
        let tail = (head + len - 1) % self.cap;
        let half = self.half();
        head / half == tail / half
    }

    /// Activates sharing mode; returns the new (empty) partition id.
    ///
    /// # Panics
    ///
    /// Panics if [`Piq::shareable`] is false.
    pub fn activate_sharing(&mut self) -> PartId {
        assert!(self.shareable(), "sharing activation on ineligible queue");
        let half = self.half();
        let head_half = if self.ideal {
            // Ideal mode ignores pointer locations; pretend content sits
            // in half 0.
            self.phys_heads[0] = 0;
            0
        } else {
            self.phys_heads[0] / half
        };
        self.shared = true;
        self.phys_heads[1] = (1 - head_half) * half;
        self.active = 0;
        PartId(1)
    }

    /// In sharing mode, a fully-drained partition may host a brand-new
    /// dependence chain; returns such a partition if one exists.
    pub fn empty_partition(&self) -> Option<PartId> {
        if !self.shared {
            return None;
        }
        (0..2)
            .find(|&p| self.parts[p].is_empty())
            .map(|p| PartId(p as u8))
    }

    /// Head candidates for issue this cycle: in normal mode the single
    /// head; in sharing mode the active partition's head (both heads when
    /// `ideal`). At most two, returned by value — this runs once per
    /// P-IQ per cycle, so it must not allocate.
    pub fn issue_candidates(&self) -> IssueCandidates {
        if !self.shared {
            return IssueCandidates {
                parts: [PartId(0), PartId(0)],
                len: 1,
                next: 0,
            };
        }
        if self.ideal {
            return IssueCandidates {
                parts: [PartId(0), PartId(1)],
                len: 2,
                next: 0,
            };
        }
        IssueCandidates {
            parts: [PartId(self.active as u8), PartId(0)],
            len: 1,
            next: 0,
        }
    }

    /// End-of-cycle head-pointer policy (§IV-D): keep the active pointer
    /// after an issue (enabling back-to-back), otherwise activate the
    /// other partition if it holds μops.
    pub fn end_cycle(&mut self, issued_from: Option<PartId>) {
        if !self.shared || self.ideal {
            return;
        }
        match issued_from {
            Some(p) if p.0 as usize == self.active => {}
            _ => {
                let other = 1 - self.active;
                if !self.parts[other].is_empty() {
                    self.active = other;
                }
            }
        }
    }

    /// Replays `k` issue-free [`Piq::end_cycle`] calls in one step: with
    /// both partitions occupied the active pointer alternates every
    /// cycle, and with only the other partition occupied it toggles once
    /// and then stays.
    pub fn end_idle_cycles(&mut self, k: u64) {
        if !self.shared || self.ideal || k == 0 {
            return;
        }
        let other = 1 - self.active;
        if self.parts[other].is_empty() {
            return;
        }
        if self.parts[self.active].is_empty() || k % 2 == 1 {
            self.active = other;
        }
    }

    /// Collapses back to normal mode when both partitions drain.
    fn maybe_collapse(&mut self) {
        if self.shared && self.parts[0].is_empty() && self.parts[1].is_empty() {
            self.shared = false;
            self.active = 0;
            // The pointer of an empty queue is arbitrary; keep partition
            // 0's last position so shareability behaves like hardware.
            self.phys_heads[0] %= self.cap;
        }
    }

    /// Removes all μops younger than `seq` from both partitions.
    pub fn flush_after(&mut self, seq: u64) {
        for p in &mut self.parts {
            while p.back().map(|u| u.seq > seq).unwrap_or(false) {
                p.pop_back();
            }
        }
        self.maybe_collapse();
    }

    /// Iterates over every resident μop (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &SchedUop> {
        self.parts[0].iter().chain(self.parts[1].iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(seq: u64) -> SchedUop {
        SchedUop::test_op(seq)
    }

    #[test]
    fn normal_mode_is_fifo() {
        let mut q = Piq::new(8, false);
        q.push(PartId(0), u(1));
        q.push(PartId(0), u(2));
        assert_eq!(q.front(PartId(0)).unwrap().seq, 1);
        assert_eq!(q.pop(PartId(0)).unwrap().seq, 1);
        assert_eq!(q.pop(PartId(0)).unwrap().seq, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn fresh_queue_with_few_entries_is_shareable() {
        let mut q = Piq::new(8, false);
        q.push(PartId(0), u(1));
        q.push(PartId(0), u(2));
        assert!(q.shareable()); // head 0, tail 1: same half
    }

    #[test]
    fn queue_spanning_halves_is_not_shareable() {
        let mut q = Piq::new(8, false);
        for i in 0..5 {
            q.push(PartId(0), u(i)); // head 0, tail 4: crosses halves
        }
        assert!(!q.shareable());
        // Ideal mode ignores pointers but still needs content <= half.
        let mut qi = Piq::new(8, true);
        for i in 0..5 {
            qi.push(PartId(0), u(i));
        }
        assert!(!qi.shareable());
    }

    #[test]
    fn full_wrapped_queue_is_not_shareable() {
        // Regression (found by proptest): fill, pop one, refill so the
        // tail wraps back into the head's half; the queue is full and
        // must NOT be eligible for sharing.
        let mut q = Piq::new(8, false);
        for i in 0..7 {
            q.push(PartId(0), u(i));
        }
        q.pop(PartId(0)); // head = 1
        q.push(PartId(0), u(10));
        q.push(PartId(0), u(11)); // len = 8, tail wraps to slot 0
        assert_eq!(q.len(), 8);
        assert!(!q.shareable());
    }

    #[test]
    fn pointer_drift_affects_eligibility() {
        let mut q = Piq::new(8, false);
        // Advance head to 3 by pushing/popping.
        for i in 0..3 {
            q.push(PartId(0), u(i));
        }
        for _ in 0..3 {
            q.pop(PartId(0));
        }
        // Now head = 3; two entries occupy slots 3,4 → crosses halves.
        q.push(PartId(0), u(10));
        q.push(PartId(0), u(11));
        assert!(!q.shareable());
        // The same content at slots 0,1 would be shareable (checked above).
    }

    #[test]
    fn sharing_gives_independent_fifos() {
        let mut q = Piq::new(8, false);
        q.push(PartId(0), u(1));
        q.push(PartId(0), u(2));
        let p1 = q.activate_sharing();
        assert_eq!(p1, PartId(1));
        assert!(q.is_shared());
        q.push(p1, u(10));
        q.push(p1, u(11));
        assert_eq!(q.front(PartId(0)).unwrap().seq, 1);
        assert_eq!(q.front(PartId(1)).unwrap().seq, 10);
        assert_eq!(q.pop(PartId(1)).unwrap().seq, 10);
        assert_eq!(q.front(PartId(0)).unwrap().seq, 1, "partition 0 untouched");
    }

    #[test]
    fn partition_capacity_is_half() {
        let mut q = Piq::new(8, false);
        q.push(PartId(0), u(1));
        let p1 = q.activate_sharing();
        for i in 0..4 {
            assert!(q.can_push(p1));
            q.push(p1, u(10 + i));
        }
        assert!(
            !q.can_push(p1),
            "partition 1 holds at most half the entries"
        );
        // Partition 0 is also capped at half now.
        for i in 0..3 {
            q.push(PartId(0), u(2 + i));
        }
        assert!(!q.can_push(PartId(0)));
    }

    #[test]
    fn active_head_toggles_only_without_issue() {
        let mut q = Piq::new(8, false);
        q.push(PartId(0), u(1));
        let p1 = q.activate_sharing();
        q.push(p1, u(10));
        assert_eq!(q.active_part(), PartId(0));
        // Issued from active partition: pointer stays (back-to-back).
        q.end_cycle(Some(PartId(0)));
        assert_eq!(q.active_part(), PartId(0));
        // No issue: toggle to give the other chain a chance.
        q.end_cycle(None);
        assert_eq!(q.active_part(), PartId(1));
        q.end_cycle(None);
        assert_eq!(q.active_part(), PartId(0));
    }

    #[test]
    fn non_ideal_exposes_one_candidate_ideal_exposes_two() {
        let mut q = Piq::new(8, false);
        q.push(PartId(0), u(1));
        let p1 = q.activate_sharing();
        q.push(p1, u(10));
        assert_eq!(q.issue_candidates().len(), 1);

        let mut qi = Piq::new(8, true);
        qi.push(PartId(0), u(1));
        let p1 = qi.activate_sharing();
        qi.push(p1, u(10));
        assert_eq!(qi.issue_candidates().len(), 2);
    }

    #[test]
    fn draining_both_partitions_collapses_to_normal() {
        let mut q = Piq::new(8, false);
        q.push(PartId(0), u(1));
        let p1 = q.activate_sharing();
        q.push(p1, u(10));
        q.pop(PartId(0));
        assert!(q.is_shared(), "still shared with one occupied partition");
        assert_eq!(q.empty_partition(), Some(PartId(0)));
        q.pop(PartId(1));
        assert!(!q.is_shared());
        assert!(q.is_empty());
    }

    #[test]
    fn empty_partition_hosts_new_chain() {
        let mut q = Piq::new(8, false);
        q.push(PartId(0), u(1));
        let p1 = q.activate_sharing();
        q.push(p1, u(10));
        q.pop(p1);
        assert_eq!(q.empty_partition(), Some(p1));
        q.push(p1, u(20));
        assert_eq!(q.front(p1).unwrap().seq, 20);
    }

    #[test]
    fn flush_after_trims_both_partitions() {
        let mut q = Piq::new(8, false);
        q.push(PartId(0), u(1));
        q.push(PartId(0), u(5));
        let p1 = q.activate_sharing();
        q.push(p1, u(3));
        q.push(p1, u(7));
        q.flush_after(4);
        assert_eq!(q.len(), 2);
        assert_eq!(q.back(PartId(0)).unwrap().seq, 1);
        assert_eq!(q.back(PartId(1)).unwrap().seq, 3);
    }

    #[test]
    fn flush_that_empties_queue_collapses_sharing() {
        let mut q = Piq::new(8, false);
        q.push(PartId(0), u(1));
        let p1 = q.activate_sharing();
        q.push(p1, u(2));
        q.flush_after(0);
        assert!(!q.is_shared());
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "unavailable partition")]
    fn push_to_inactive_partition_panics() {
        let mut q = Piq::new(8, false);
        q.push(PartId(1), u(1));
    }

    #[test]
    #[should_panic(expected = "ineligible")]
    fn activating_on_empty_queue_panics() {
        let mut q = Piq::new(8, false);
        let _ = q.activate_sharing();
    }

    #[test]
    fn wrap_within_partition_half() {
        let mut q = Piq::new(8, false);
        q.push(PartId(0), u(1));
        let p1 = q.activate_sharing();
        // Fill, drain, refill partition 1 to exercise half-local wrap.
        for i in 0..4 {
            q.push(p1, u(10 + i));
        }
        for _ in 0..4 {
            q.pop(p1);
        }
        for i in 0..4 {
            q.push(p1, u(20 + i));
        }
        assert_eq!(q.front(p1).unwrap().seq, 20);
        assert_eq!(q.back(p1).unwrap().seq, 23);
    }
}
