//! Scheduler properties shared by the property tests of
//! `ballerino-sched` (the baselines) and `ballerino-core` (the P-IQ
//! cluster: CES, CES+MDA and Ballerino): issue soundness, conservation
//! and flush exactness over random dependence streams from the in-repo
//! deterministic [`Rng64`].

#![allow(dead_code)]

use ballerino_isa::rng::Rng64;
use ballerino_isa::{PhysReg, PortId};
use ballerino_sched::{
    DispatchOutcome, FuBusy, HeldSet, PortAlloc, ReadyCtx, SchedUop, Scheduler, Scoreboard,
};
use std::collections::HashSet;

/// One random μop stream: (source index into earlier ops or None, port).
pub fn arb_stream(rng: &mut Rng64) -> Vec<(Option<usize>, u8)> {
    let n = rng.index(63) + 1;
    (0..n)
        .map(|_| {
            let src = if rng.chance(0.5) {
                Some(rng.index(64))
            } else {
                None
            };
            (src, rng.below(8) as u8)
        })
        .collect()
}

/// Random μops over `stream`: μop `i` (seq `i + 1`) writes `p(100 + i)`
/// and reads the destination of an earlier μop when the stream says so.
pub fn chain_uops(stream: &[(Option<usize>, u8)]) -> Vec<SchedUop> {
    stream
        .iter()
        .enumerate()
        .map(|(i, (src, port))| {
            let src_preg = src.and_then(|s| {
                if s < i {
                    Some(PhysReg(100 + s as u32))
                } else {
                    None
                }
            });
            SchedUop {
                seq: i as u64 + 1,
                port: PortId(*port),
                srcs: [src_preg, None],
                dst: Some(PhysReg(100 + i as u32)),
                ..SchedUop::test_op(i as u64 + 1)
            }
        })
        .collect()
}

/// Drives `sched` for up to 400 cycles over `uops` (from
/// [`chain_uops`]), dispatching up to 4 a cycle and completing each
/// issued μop the next cycle: every μop issues exactly once, only when
/// its sources are ready, and everything eventually drains.
pub fn check_issues_soundly_and_drains(sched: &mut dyn Scheduler, uops: &[SchedUop]) {
    let mut scb = Scoreboard::new(512);
    let held = HeldSet::new();
    let busy = FuBusy::new();
    for u in uops {
        scb.allocate(u.dst.unwrap());
    }

    let mut issued = HashSet::new();
    let mut next = 0usize;
    for cycle in 0..400u64 {
        let mut out = Vec::new();
        {
            let ctx = ReadyCtx {
                cycle,
                scb: &scb,
                held: &held,
            };
            let mut pa = PortAlloc::new(8, 8, &busy, cycle);
            sched.issue(&ctx, &mut pa, &mut out);
        }
        for seq in out {
            assert!(issued.insert(seq), "double issue of {seq}");
            let u = &uops[(seq - 1) as usize];
            assert!(
                scb.srcs_ready(&u.srcs, cycle),
                "issued {seq} with unready sources at {cycle}"
            );
            scb.set_ready_at(u.dst.unwrap(), cycle + 1);
        }
        for _ in 0..4 {
            if next >= uops.len() {
                break;
            }
            let ctx = ReadyCtx {
                cycle,
                scb: &scb,
                held: &held,
            };
            match sched.try_dispatch(uops[next], &ctx) {
                DispatchOutcome::Accepted => next += 1,
                DispatchOutcome::AcceptedIssued => {
                    assert!(issued.insert(uops[next].seq));
                    scb.set_ready_at(uops[next].dst.unwrap(), cycle + 1);
                    next += 1;
                }
                DispatchOutcome::Stall(_) => break,
            }
        }
        // Wakeup edges for everything that completes next cycle.
        for u in uops {
            if issued.contains(&u.seq) && scb.ready_cycle(u.dst.unwrap()) == cycle + 1 {
                sched.on_complete(u.dst.unwrap());
            }
        }
        if issued.len() == uops.len() {
            break;
        }
    }
    assert_eq!(issued.len(), uops.len(), "{} failed to drain", sched.name());
    assert_eq!(sched.occupancy(), 0);
}

/// Dispatches up to `n` μops blocked on one never-ready register, then
/// flushes everything younger than `flush_at`: exactly the older
/// accepted μops stay resident.
pub fn check_flush_is_exact(sched: &mut dyn Scheduler, n: usize, flush_at: u64) {
    let mut scb = Scoreboard::new(512);
    let held = HeldSet::new();
    scb.allocate(PhysReg(0));
    let mut accepted = Vec::new();
    for i in 0..n {
        let u = SchedUop {
            seq: i as u64 + 1,
            srcs: [Some(PhysReg(0)), None],
            dst: Some(PhysReg(100 + i as u32)),
            port: PortId((i % 8) as u8),
            ..SchedUop::test_op(i as u64 + 1)
        };
        let ctx = ReadyCtx {
            cycle: 0,
            scb: &scb,
            held: &held,
        };
        if sched.try_dispatch(u, &ctx) == DispatchOutcome::Accepted {
            accepted.push(u.seq);
        } else {
            break;
        }
    }
    let dests: Vec<PhysReg> = accepted
        .iter()
        .filter(|&&s| s > flush_at)
        .map(|&s| PhysReg(100 + (s - 1) as u32))
        .collect();
    sched.flush_after(flush_at, &dests);
    let expect = accepted.iter().filter(|&&s| s <= flush_at).count();
    assert_eq!(sched.occupancy(), expect, "{}", sched.name());
}
