//! The P-IQ head board: the readiness of every P-IQ head, kept as
//! bitmasks over queues and updated on edges instead of re-derived by
//! walking the heads every cycle.
//!
//! Each (queue, partition) head is empty or holds a μop whose fabric
//! [`WakeState`] is `Waiting`, `Held` or `Ready`. A head changes only on
//! a push into an empty partition, a pop, a flush, a sharing activation
//! or collapse, and the fabric's wake (`on_complete`) and release
//! (`poll`) edges of the μop at a head, so those are the only places the
//! board is written. An issue cycle reads its head examinations and its
//! Empty / StallNonReady / StallMdepLoad records from popcounts and
//! visits only the queues whose candidate head is ready; an idle stretch
//! is replayed in closed form from the same masks.
//!
//! The board also mirrors each queue's active head pointer (§IV-D) as a
//! mask, so the candidate head of every queue is one mask select away.
//! [`Piq`] keeps its own pointer and the scheduler applies each toggle
//! the board reports to it, which keeps `Piq::end_cycle` and
//! `Piq::end_idle_cycles` the single definition of the policy.

use crate::piq::{PartId, Piq};
use ballerino_sched::{WakeFabric, WakeState};

/// The widest P-IQ cluster the board's `u64` masks can hold.
pub const MAX_PIQS: usize = 64;

/// Fabric tag of a μop resident in partition `part` of P-IQ `k`. Tag 0
/// marks a μop still in the S-IQ.
pub(crate) fn piq_tag(k: usize, part: PartId) -> u32 {
    (k as u32) * 2 + part.0 as u32 + 1
}

/// Inverse of [`piq_tag`]; `None` for an S-IQ μop.
fn untag(tag: u32) -> Option<(usize, PartId)> {
    let t = tag.checked_sub(1)?;
    Some(((t / 2) as usize, PartId((t % 2) as u8)))
}

/// Iterates the set bits of `m`, lowest (queue 0) first.
pub(crate) fn bits(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if m == 0 {
            return None;
        }
        let k = m.trailing_zeros() as usize;
        m &= m - 1;
        Some(k)
    })
}

fn count(m: u64) -> u64 {
    m.count_ones() as u64
}

/// Head examinations and the per-queue head-state records that need no
/// port arbitration, summed over queues (and over cycles for an idle
/// replay).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HeadCounts {
    /// Non-empty candidate heads examined.
    pub exams: u64,
    /// `HeadState::Empty` records.
    pub empty: u64,
    /// `HeadState::StallNonReady` records.
    pub waiting: u64,
    /// `HeadState::StallMdepLoad` records.
    pub held: u64,
}

/// What one issue cycle sees of the P-IQ heads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IssueView {
    /// Records of every queue whose recorded (first) candidate head is
    /// not ready, plus every examination.
    pub counts: HeadCounts,
    /// Queues whose first candidate head is ready (it is recorded as
    /// Issuing or StallPortConflict after arbitration).
    pub ready_first: u64,
    /// Ideal-sharing queues whose partition-1 head is ready (a second
    /// candidate, never recorded).
    pub ready_second: u64,
    /// Queues whose active head pointer is partition 1.
    pub active1: u64,
}

impl IssueView {
    /// The partition of queue `k`'s first candidate head.
    pub fn first_part(&self, k: usize) -> PartId {
        PartId(((self.active1 >> k) & 1) as u8)
    }
}

/// Per-(queue, partition) head states as bitmasks over queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HeadBoard {
    /// Bit `k` of `[p]`: partition `p` of P-IQ `k` holds a μop.
    occupied: [u64; 2],
    /// Bit `k` of `[p]`: that head is `Ready`.
    ready: [u64; 2],
    /// Bit `k` of `[p]`: that head is `Held` (sources done, MDP hold
    /// possibly outstanding).
    held: [u64; 2],
    /// P-IQs in sharing mode.
    shared: u64,
    /// P-IQs whose active head pointer is partition 1.
    active1: u64,
    /// Every queue's bit.
    all: u64,
    /// Ideal sharing: both heads of a shared queue are candidates and
    /// no pointer toggles.
    ideal: bool,
}

impl HeadBoard {
    /// An all-empty board for `num_piqs <= MAX_PIQS` queues (checked by
    /// `Ballerino::new`).
    pub fn new(num_piqs: usize, ideal: bool) -> Self {
        debug_assert!(num_piqs <= MAX_PIQS);
        HeadBoard {
            occupied: [0; 2],
            ready: [0; 2],
            held: [0; 2],
            shared: 0,
            active1: 0,
            all: if num_piqs == 0 {
                0
            } else {
                u64::MAX >> (MAX_PIQS - num_piqs)
            },
            ideal,
        }
    }

    /// The board recomputed by walking every head: rebuilds it after a
    /// flush, and is the debug cross-check's reference.
    pub fn from_walk(piqs: &[Piq], fabric: &WakeFabric, ideal: bool) -> Self {
        let mut b = Self::new(piqs.len(), ideal);
        for (k, q) in piqs.iter().enumerate() {
            if q.is_shared() {
                b.shared |= 1 << k;
            }
            if q.active_part() == PartId(1) {
                b.active1 |= 1 << k;
            }
            for part in [PartId(0), PartId(1)] {
                b.set_head(k, part, q.front(part).map(|u| fabric.state(u.seq)));
            }
        }
        b
    }

    /// Sets the head state of partition `part` of queue `k` (`None`:
    /// empty).
    pub fn set_head(&mut self, k: usize, part: PartId, head: Option<WakeState>) {
        let (bit, p) = (1u64 << k, part.0 as usize);
        self.occupied[p] &= !bit;
        self.ready[p] &= !bit;
        self.held[p] &= !bit;
        match head {
            None => {}
            Some(state) => {
                self.occupied[p] |= bit;
                match state {
                    WakeState::Ready => self.ready[p] |= bit,
                    WakeState::Held => self.held[p] |= bit,
                    WakeState::Waiting => {}
                }
            }
        }
    }

    /// Records a sharing activation (`true`) or collapse of queue `k`;
    /// either way its active head pointer is partition 0.
    pub fn set_shared(&mut self, k: usize, shared: bool) {
        let bit = 1u64 << k;
        if shared {
            self.shared |= bit;
        } else {
            self.shared &= !bit;
        }
        self.active1 &= !bit;
    }

    /// A fabric wake or release edge of μop `seq` tagged `tag`: if it
    /// heads its P-IQ partition, that head's state becomes `state`.
    pub fn on_edge(&mut self, piqs: &[Piq], seq: u64, tag: u32, state: WakeState) {
        let Some((k, part)) = untag(tag) else { return };
        if piqs[k].front(part).is_some_and(|u| u.seq == seq) {
            self.set_head(k, part, Some(state));
        }
    }

    /// Whether any head, candidate or not, is `Ready`.
    pub fn any_ready(&self) -> bool {
        (self.ready[0] | self.ready[1]) != 0
    }

    /// The `(queue, partition)` of every `Held` head.
    pub fn held_heads(&self) -> impl Iterator<Item = (usize, PartId)> {
        bits(self.held[0])
            .map(|k| (k, PartId(0)))
            .chain(bits(self.held[1]).map(|k| (k, PartId(1))))
    }

    /// Selects, per queue, the bit of mask pair `m` for the partition
    /// the active pointer names.
    fn active(&self, m: [u64; 2]) -> u64 {
        (m[0] & !self.active1) | (m[1] & self.active1)
    }

    /// The other partition's bit of `m`, per queue.
    fn inactive(&self, m: [u64; 2]) -> u64 {
        (m[1] & !self.active1) | (m[0] & self.active1)
    }

    /// Shared queues under ideal sharing (two candidates each).
    fn two_candidates(&self) -> u64 {
        if self.ideal {
            self.shared
        } else {
            0
        }
    }

    /// Shared queues whose single active pointer toggles.
    fn toggling(&self) -> u64 {
        if self.ideal {
            0
        } else {
            self.shared
        }
    }

    /// The P-IQ heads as this cycle's issue sees them.
    pub fn issue_view(&self) -> IssueView {
        let occ = self.active(self.occupied);
        let ready = self.active(self.ready);
        let held = self.active(self.held);
        let second = self.two_candidates();
        IssueView {
            counts: HeadCounts {
                exams: count(occ) + count(second & self.occupied[1]),
                empty: count(self.all & !occ),
                waiting: count(occ & !ready & !held),
                held: count(held),
            },
            ready_first: ready,
            ready_second: second & self.ready[1],
            active1: self.active1,
        }
    }

    /// The end-of-cycle pointer policy (`Piq::end_cycle`) for every
    /// queue at once: a shared queue that did not issue (bit clear in
    /// `issued`) activates its other partition if that one holds μops.
    /// Returns the queues whose pointer toggled.
    pub fn end_cycle(&mut self, issued: u64) -> u64 {
        let toggled = self.toggling() & !issued & self.inactive(self.occupied);
        self.active1 ^= toggled;
        toggled
    }

    /// Replays `k >= 1` issue-free cycles in closed form: the summed
    /// examinations and records of `k` calls of [`HeadBoard::issue_view`]
    /// with an [`HeadBoard::end_cycle`] after each, and the pointer state
    /// they leave (`Piq::end_idle_cycles`). Returns the summed counts and
    /// the queues whose pointer ends toggled. No head may be ready.
    pub fn end_idle_cycles(&mut self, k: u64) -> (HeadCounts, u64) {
        debug_assert!(k >= 1 && !self.any_ready());
        let occ = self.active(self.occupied);
        let other_occ = self.inactive(self.occupied);
        let held = self.active(self.held);
        let other_held = self.inactive(self.held);
        let waiting = occ & !held;
        let other_waiting = other_occ & !other_held;
        let toggling = self.toggling();
        // With both partitions occupied the pointer alternates every
        // cycle, active head first; with only the inactive one occupied
        // it records one Empty, then moves there for good. Every other
        // queue records its first candidate every cycle.
        let both = toggling & occ & other_occ;
        let moves = toggling & !occ & other_occ;
        let steady = self.all & !both & !moves;
        let (first_half, second_half) = (k - k / 2, k / 2);
        let per_state = |m: u64, other: u64| {
            k * count(steady & m)
                + first_half * count(both & m)
                + second_half * count(both & other)
                + (k - 1) * count(moves & other)
        };
        let counts = HeadCounts {
            exams: k * count(occ)
                + k * count(self.two_candidates() & self.occupied[1])
                + (k - 1) * count(moves),
            empty: k * count(steady & !occ) + count(moves),
            waiting: per_state(waiting, other_waiting),
            held: per_state(held, other_held),
        };
        let toggled = moves | if k % 2 == 1 { both } else { 0 };
        self.active1 ^= toggled;
        (counts, toggled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ballerino_isa::rng::Rng64;

    fn random_board(rng: &mut Rng64, n: usize, ideal: bool) -> HeadBoard {
        let mut b = HeadBoard::new(n, ideal);
        for k in 0..n {
            let shared = rng.chance(0.5);
            let heads = |rng: &mut Rng64| match rng.below(3) {
                0 => None,
                1 => Some(WakeState::Waiting),
                _ => Some(WakeState::Held),
            };
            let h0 = heads(rng);
            let h1 = if shared { heads(rng) } else { None };
            if shared && h0.is_none() && h1.is_none() {
                // An empty shared queue collapses to normal mode.
                continue;
            }
            if shared {
                b.set_shared(k, true);
                if !ideal && rng.chance(0.5) {
                    b.active1 |= 1 << k;
                }
            }
            b.set_head(k, PartId(0), h0);
            b.set_head(k, PartId(1), h1);
        }
        b
    }

    #[test]
    fn idle_replay_matches_stepping_cycle_by_cycle() {
        for case in 0..512u64 {
            let mut rng = Rng64::new(0xB0A2_D000 + case);
            let n = rng.index(12);
            let ideal = rng.chance(0.3);
            let start = random_board(&mut rng, n, ideal);
            let k = 1 + rng.below(9);
            let mut stepped = start;
            let mut sum = HeadCounts::default();
            for _ in 0..k {
                let v = stepped.issue_view();
                assert_eq!(v.ready_first | v.ready_second, 0);
                sum.exams += v.counts.exams;
                sum.empty += v.counts.empty;
                sum.waiting += v.counts.waiting;
                sum.held += v.counts.held;
                stepped.end_cycle(0);
            }
            let mut replayed = start;
            let (counts, toggled) = replayed.end_idle_cycles(k);
            assert_eq!(counts, sum, "case {case}: k {k}");
            assert_eq!(replayed, stepped, "case {case}: pointer state after k {k}");
            assert_eq!(start.active1 ^ toggled, stepped.active1);
        }
    }

    #[test]
    fn full_width_board_keeps_every_queue() {
        let mut b = HeadBoard::new(MAX_PIQS, false);
        b.set_head(MAX_PIQS - 1, PartId(0), Some(WakeState::Ready));
        let v = b.issue_view();
        assert_eq!(v.ready_first, 1 << (MAX_PIQS - 1));
        assert_eq!(v.counts.empty, MAX_PIQS as u64 - 1);
        assert_eq!(
            HeadBoard::new(0, false).issue_view().counts,
            HeadCounts::default()
        );
    }

    #[test]
    fn tags_round_trip_and_siq_is_untagged() {
        assert_eq!(untag(0), None);
        for k in [0, 1, MAX_PIQS - 1] {
            for p in [PartId(0), PartId(1)] {
                assert_eq!(untag(piq_tag(k, p)), Some((k, p)));
            }
        }
    }
}
