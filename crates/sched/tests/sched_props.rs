//! Property tests over every scheduler in this crate: issue soundness
//! (never issue a non-ready μop), conservation (dispatched = issued +
//! resident), and flush correctness — under randomized dependence
//! graphs generated by the in-repo deterministic [`Rng64`]. The same
//! properties run on the P-IQ cluster (CES and Ballerino) in
//! `ballerino-core`'s `cluster_props`.

mod common;

use ballerino_isa::rng::Rng64;
use ballerino_isa::PhysReg;
use ballerino_sched::{
    Casino, CasinoConfig, DispatchOutcome, FuBusy, HeldSet, InOrderIq, InOrderIqConfig, OooIq,
    OooIqConfig, PortAlloc, ReadyCtx, Scheduler, Scoreboard, SelectPolicy,
};
use common::{arb_stream, chain_uops, check_flush_is_exact, check_issues_soundly_and_drains};
use std::collections::HashSet;

/// The predicted-ready (`ldt`) select policy over 512 registers.
const PREDICTED_READY: SelectPolicy = SelectPolicy::PredictedReady { num_phys_regs: 512 };

fn window(policy: SelectPolicy) -> OooIq {
    OooIq::new(OooIqConfig {
        policy,
        ..Default::default()
    })
}

/// The schedulers [`mk_sched`] builds.
const NUM_SCHEDS: usize = 5;

fn mk_sched(which: usize) -> Box<dyn Scheduler> {
    match which {
        0 => Box::new(InOrderIq::new(InOrderIqConfig::default())),
        1 => Box::new(window(SelectPolicy::LowestSlot)),
        2 => Box::new(window(SelectPolicy::OldestFirst)),
        3 => Box::new(Casino::new(CasinoConfig::default())),
        _ => Box::new(window(PREDICTED_READY)),
    }
}

/// Drive each scheduler for up to 400 cycles on a random dependence
/// stream: every μop issues exactly once, only when its sources are
/// ready, and everything eventually drains.
#[test]
fn schedulers_issue_soundly_and_drain() {
    for case in 0..128u64 {
        let mut rng = Rng64::new(0x5C_0001 + case);
        let uops = chain_uops(&arb_stream(&mut rng));
        let mut sched = mk_sched(rng.index(NUM_SCHEDS));
        check_issues_soundly_and_drains(sched.as_mut(), &uops);
    }
}

/// Flush removes exactly the younger μops from the window.
#[test]
fn flush_is_exact() {
    for case in 0..128u64 {
        let mut rng = Rng64::new(0x5C_0002 + case);
        let n = rng.index(39) + 1;
        let flush_at = rng.below(39) + 1;
        let mut sched = mk_sched(rng.index(NUM_SCHEDS));
        check_flush_is_exact(sched.as_mut(), n, flush_at);
    }
}

/// Drives a fabric-path scheduler and its broadcast-scan twin through
/// one random dependence stream with an optional mid-run flush. Each
/// issued producer completes `1..=max_latency` cycles later, its
/// `on_complete` edge delivered at that cycle as the pipeline does. The
/// two must make identical grant and dispatch decisions, charge
/// identical energy, drain, and agree on quiescence: `None`/`Some`
/// exactly, and the horizon once both are clamped to the earliest
/// outstanding completion (the bound the pipeline's event queue adds
/// anyway; the fabric reports no horizon for edge wakes).
fn check_fabric_against_broadcast(
    case: u64,
    rng: &mut Rng64,
    fab: &mut dyn Scheduler,
    bro: &mut dyn Scheduler,
    max_latency: u64,
) {
    let stream = arb_stream(rng);
    let uops = chain_uops(&stream);
    let mut scb = Scoreboard::new(512);
    let held = HeldSet::new();
    let busy = FuBusy::new();
    for u in &uops {
        scb.allocate(u.dst.unwrap());
    }

    let flush_cycle = if rng.chance(0.5) {
        Some(1 + rng.below(8))
    } else {
        None
    };
    let mut issued = HashSet::new();
    let mut next = 0usize;
    for cycle in 0..1000u64 {
        let mut out_f = Vec::new();
        let mut out_b = Vec::new();
        {
            let ctx = ReadyCtx {
                cycle,
                scb: &scb,
                held: &held,
            };
            let mut pa = PortAlloc::new(8, 8, &busy, cycle);
            fab.issue(&ctx, &mut pa, &mut out_f);
            let mut pb = PortAlloc::new(8, 8, &busy, cycle);
            bro.issue(&ctx, &mut pb, &mut out_b);
        }
        assert_eq!(
            out_f, out_b,
            "case {case} cycle {cycle}: grant decisions diverge"
        );
        for &seq in &out_f {
            assert!(issued.insert(seq));
            let latency = 1 + rng.below(max_latency);
            scb.set_ready_at(uops[(seq - 1) as usize].dst.unwrap(), cycle + latency);
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
            let a = fab.try_dispatch(uops[next], &ctx);
            let b = bro.try_dispatch(uops[next], &ctx);
            assert_eq!(a, b, "case {case} cycle {cycle}: dispatch outcomes diverge");
            if a == DispatchOutcome::Accepted {
                next += 1;
            } else {
                break;
            }
        }
        if flush_cycle == Some(cycle) {
            // Squash a random tail; the refetched stream is not replayed.
            let f = rng.below(uops.len() as u64) + 1;
            let dests: Vec<PhysReg> = uops
                .iter()
                .filter(|u| u.seq > f && !issued.contains(&u.seq))
                .map(|u| u.dst.unwrap())
                .collect();
            fab.flush_after(f, &dests);
            bro.flush_after(f, &dests);
            next = uops.len();
        }
        let mut earliest_outstanding = u64::MAX;
        for u in &uops {
            if !issued.contains(&u.seq) {
                continue;
            }
            let rc = scb.ready_cycle(u.dst.unwrap());
            if rc == cycle + 1 {
                fab.on_complete(u.dst.unwrap());
                bro.on_complete(u.dst.unwrap());
            } else if rc > cycle + 1 {
                earliest_outstanding = earliest_outstanding.min(rc);
            }
        }
        {
            let ctx = ReadyCtx {
                cycle: cycle + 1,
                scb: &scb,
                held: &held,
            };
            let clamp = |h: Option<u64>| h.map(|t| t.min(earliest_outstanding));
            let (f, b) = (
                fab.next_event_cycle(&ctx, None),
                bro.next_event_cycle(&ctx, None),
            );
            assert_eq!(
                f.is_some(),
                b.is_some(),
                "case {case} cycle {cycle}: quiescence diverges ({f:?} vs {b:?})"
            );
            assert_eq!(
                clamp(f),
                clamp(b),
                "case {case} cycle {cycle}: quiesce horizons diverge"
            );
        }
        if next == uops.len() && fab.occupancy() == 0 && earliest_outstanding == u64::MAX {
            break;
        }
    }
    assert_eq!(
        fab.occupancy(),
        bro.occupancy(),
        "case {case}: occupancy diverges"
    );
    assert_eq!(fab.occupancy(), 0, "case {case}: failed to drain");
    assert_eq!(
        fab.energy_events(),
        bro.energy_events(),
        "case {case}: energy diverges"
    );
}

/// A fabric-path window and its broadcast-scan twin under `policy`.
fn window_pair(policy: SelectPolicy) -> (OooIq, OooIq) {
    (window(policy), window(policy).with_broadcast_wakeup())
}

/// The lowest-slot or the oldest-first policy, by a coin flip.
fn ooo_policy(rng: &mut Rng64) -> SelectPolicy {
    if rng.chance(0.5) {
        SelectPolicy::OldestFirst
    } else {
        SelectPolicy::LowestSlot
    }
}

/// The fabric-driven OoO wakeup path and the legacy broadcast-scan
/// reference (`OooIq::with_broadcast_wakeup`) must make identical grant
/// decisions, charge identical energy, and agree on the quiesce horizon
/// across random dependence streams with a mid-run flush.
#[test]
fn ooo_fabric_matches_broadcast_wakeup() {
    for case in 0..128u64 {
        let mut rng = Rng64::new(0x5C_0003 + case);
        let (mut fab, mut bro) = window_pair(ooo_policy(&mut rng));
        check_fabric_against_broadcast(case, &mut rng, &mut fab, &mut bro, 1);
    }
}

/// Same pin for the predicted-ready (`ldt`) policy: the fabric-driven
/// delay-sorted select and the legacy broadcast-scan path must make
/// identical grant decisions, charge identical energy, and agree on the
/// quiesce horizon across random dependence streams with a mid-run
/// flush.
#[test]
fn ldt_fabric_matches_broadcast_wakeup() {
    for case in 0..128u64 {
        let mut rng = Rng64::new(0x5C_0004 + case);
        let (mut fab, mut bro) = window_pair(PREDICTED_READY);
        check_fabric_against_broadcast(case, &mut rng, &mut fab, &mut bro, 1);
    }
}

/// Producers that take 1 to 24 cycles leave consumers waiting on
/// *scheduled* completions at quiesce time, which 1-cycle producers
/// never do: this is where an edge-bounded quiesce query (no horizon
/// for `Waiting` entries) and the level-checked broadcast scan (the
/// latest source ready cycle) can differ. They must agree on
/// quiescence exactly, and on the horizon once the earliest outstanding
/// completion bounds both.
#[test]
fn fabric_quiesce_matches_broadcast_with_long_latencies() {
    for case in 0..128u64 {
        let mut rng = Rng64::new(0x5C_0005 + case);
        let (mut fab, mut bro) = window_pair(ooo_policy(&mut rng));
        check_fabric_against_broadcast(case, &mut rng, &mut fab, &mut bro, 24);
        let (mut fab, mut bro) = window_pair(PREDICTED_READY);
        check_fabric_against_broadcast(case, &mut rng, &mut fab, &mut bro, 24);
    }
}
