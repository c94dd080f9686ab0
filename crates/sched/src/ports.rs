//! Per-cycle issue-port arbitration and unpipelined-FU occupancy.

use ballerino_isa::{FuKind, OpClass, PortId, PortMap, MAX_PORTS};
use std::collections::HashMap;

/// Busy-until tracking for unpipelined functional units (dividers).
#[derive(Debug, Clone, Default)]
pub struct FuBusy {
    busy_until: HashMap<(u8, FuKind), u64>,
}

impl FuBusy {
    /// Creates an all-idle tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the unit for `class` on `port` is free at `cycle`.
    pub fn is_free(&self, port: PortId, class: OpClass, cycle: u64) -> bool {
        if !class.unpipelined() {
            return true;
        }
        let fu = FuKind::for_class(class);
        self.busy_until
            .get(&(port.0, fu))
            .map(|&t| t <= cycle)
            .unwrap_or(true)
    }

    /// Reserves the unit for `class` on `port` until `until`.
    pub fn reserve(&mut self, port: PortId, class: OpClass, until: u64) {
        if class.unpipelined() {
            let fu = FuKind::for_class(class);
            self.busy_until.insert((port.0, fu), until);
        }
    }
}

/// One cycle's worth of issue-port grants.
///
/// Each port issues at most one μop per cycle; unpipelined units
/// additionally gate their port for the duration of the operation.
#[derive(Debug)]
pub struct PortAlloc<'a> {
    /// Bit `i` set ⟺ port `i` is still free this cycle.
    free_mask: u32,
    fu_busy: &'a FuBusy,
    cycle: u64,
    granted: usize,
    width: usize,
}

impl<'a> PortAlloc<'a> {
    /// Begins a cycle with all `num_ports` ports free and a total grant
    /// budget of `width` (equal to `num_ports` in every paper config).
    pub fn new(num_ports: usize, width: usize, fu_busy: &'a FuBusy, cycle: u64) -> Self {
        debug_assert!(num_ports <= MAX_PORTS && MAX_PORTS <= 32);
        let free_mask = ((1u64 << num_ports) - 1) as u32;
        PortAlloc {
            free_mask,
            fu_busy,
            cycle,
            granted: 0,
            width,
        }
    }

    /// Whether `port` could be claimed for `class` right now.
    pub fn can_claim(&self, port: PortId, class: OpClass) -> bool {
        self.granted < self.width
            && self.free_mask & (1 << port.index()) != 0
            && self.fu_busy.is_free(port, class, self.cycle)
    }

    /// Attempts to claim `port` for `class`; returns whether it succeeded.
    pub fn try_claim(&mut self, port: PortId, class: OpClass) -> bool {
        if self.can_claim(port, class) {
            self.free_mask &= !(1 << port.index());
            self.granted += 1;
            true
        } else {
            false
        }
    }

    /// Number of grants handed out so far this cycle.
    pub fn granted(&self) -> usize {
        self.granted
    }

    /// Remaining grant budget.
    pub fn remaining(&self) -> usize {
        self.width - self.granted
    }

    /// Caps the remaining budget at `n` further grants (used by designs
    /// whose back-end issues narrower than the machine, e.g. FXA).
    pub fn cap_remaining(&mut self, n: usize) {
        self.width = self.width.min(self.granted + n);
    }
}

/// Assigns an issue port to a μop at dispatch: among the ports able to
/// execute `class`, picks the one with the fewest in-flight (dispatched
/// but un-issued) μops, exactly as §II-A describes.
#[derive(Debug, Clone)]
pub struct PortArbiter {
    map: PortMap,
    inflight: [u32; MAX_PORTS],
    /// Capable ports per FU kind, precomputed at build time: `assign`
    /// runs once per renamed μop, so it must not walk the port map (or
    /// allocate) on every call.
    by_fu: [([PortId; MAX_PORTS], u8); FuKind::COUNT],
}

impl PortArbiter {
    /// Builds an arbiter over a port map.
    pub fn new(map: PortMap) -> Self {
        let mut by_fu = [([PortId(0); MAX_PORTS], 0u8); FuKind::COUNT];
        // One representative class per FU kind (loads and stores share
        // the AGU entry).
        let classes = [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::IntDiv,
            OpClass::FpAdd,
            OpClass::FpMul,
            OpClass::FpDiv,
            OpClass::Load,
            OpClass::Branch,
        ];
        for class in classes {
            let fu = FuKind::for_class(class);
            let (ports, n) = &mut by_fu[fu.index()];
            for (k, p) in map.ports_for(class).into_iter().enumerate() {
                ports[k] = p;
                *n = (k + 1) as u8;
            }
        }
        PortArbiter {
            map,
            inflight: [0; MAX_PORTS],
            by_fu,
        }
    }

    /// The underlying port map.
    pub fn map(&self) -> &PortMap {
        &self.map
    }

    /// Picks the least-loaded capable port and records the in-flight μop.
    pub fn assign(&mut self, class: OpClass) -> PortId {
        let (ports, n) = &self.by_fu[FuKind::for_class(class).index()];
        let best = ports[..*n as usize]
            .iter()
            .copied()
            .min_by_key(|p| self.inflight[p.index()])
            .expect("PortMap::new guarantees every class has a port");
        self.inflight[best.index()] += 1;
        best
    }

    /// Notes that a μop assigned to `port` has issued (or was squashed).
    pub fn release(&mut self, port: PortId) {
        let c = &mut self.inflight[port.index()];
        *c = c.saturating_sub(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_alloc_grants_each_port_once() {
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 8, &busy, 0);
        assert!(pa.try_claim(PortId(0), OpClass::IntAlu));
        assert!(!pa.try_claim(PortId(0), OpClass::IntAlu));
        assert!(pa.try_claim(PortId(1), OpClass::IntAlu));
        assert_eq!(pa.granted(), 2);
    }

    #[test]
    fn width_budget_limits_total_grants() {
        let busy = FuBusy::new();
        let mut pa = PortAlloc::new(8, 2, &busy, 0);
        assert!(pa.try_claim(PortId(0), OpClass::IntAlu));
        assert!(pa.try_claim(PortId(1), OpClass::IntAlu));
        assert!(!pa.try_claim(PortId(2), OpClass::Load));
        assert_eq!(pa.remaining(), 0);
    }

    #[test]
    fn unpipelined_div_blocks_port_until_done() {
        let mut busy = FuBusy::new();
        busy.reserve(PortId(0), OpClass::IntDiv, 25);
        let mut pa = PortAlloc::new(8, 8, &busy, 10);
        assert!(!pa.try_claim(PortId(0), OpClass::IntDiv));
        // Pipelined ops on the same port are unaffected.
        assert!(pa.try_claim(PortId(0), OpClass::IntAlu));
        let mut pa2 = PortAlloc::new(8, 8, &busy, 25);
        assert!(pa2.try_claim(PortId(0), OpClass::IntDiv));
    }

    #[test]
    fn arbiter_balances_load_across_agus() {
        let mut a = PortArbiter::new(PortMap::skylake_8wide());
        let p1 = a.assign(OpClass::Load);
        let p2 = a.assign(OpClass::Load);
        let p3 = a.assign(OpClass::Load);
        let p4 = a.assign(OpClass::Load);
        let mut got = vec![p1, p2, p3, p4];
        got.sort();
        assert_eq!(got, vec![PortId(2), PortId(3), PortId(4), PortId(7)]);
        // Releasing one makes it preferred again.
        a.release(p2);
        assert_eq!(a.assign(OpClass::Load), p2);
    }

    #[test]
    fn arbiter_respects_capability() {
        let mut a = PortArbiter::new(PortMap::skylake_8wide());
        for _ in 0..10 {
            let p = a.assign(OpClass::IntDiv);
            assert_eq!(p, PortId(0));
        }
    }
}
