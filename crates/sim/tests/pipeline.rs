//! End-to-end pipeline tests: every machine kind runs every kind of
//! workload to completion, and first-order performance orderings hold.

use ballerino_sim::{
    build_scheduler_point, run_machine, run_point, DesignPoint, MachineKind, Width,
};
use ballerino_workloads::workload;

const N: usize = 6_000;

fn ipc(kind: MachineKind, wl: &str) -> f64 {
    let t = workload(wl, N, 42);
    let r = run_machine(kind, Width::Eight, &t);
    assert_eq!(
        r.committed,
        t.len() as u64,
        "{kind:?} on {wl} must commit everything"
    );
    r.ipc()
}

#[test]
fn all_machines_complete_a_mixed_workload() {
    let t = workload("int_crunch", 3_000, 7);
    for kind in [
        MachineKind::InOrder,
        MachineKind::OutOfOrder,
        MachineKind::OutOfOrderOldestFirst,
        MachineKind::OutOfOrderNoMdp,
        MachineKind::Ces,
        MachineKind::CesMda,
        MachineKind::Casino,
        MachineKind::Fxa,
        MachineKind::BallerinoStep1,
        MachineKind::BallerinoStep2,
        MachineKind::Ballerino,
        MachineKind::BallerinoIdeal,
        MachineKind::Ballerino12,
    ] {
        let r = run_machine(kind, Width::Eight, &t);
        assert_eq!(r.committed, t.len() as u64, "{kind:?}");
        assert!(r.ipc() > 0.1, "{kind:?} ipc {}", r.ipc());
        assert!(r.ipc() <= 8.0, "{kind:?} ipc {}", r.ipc());
    }
}

#[test]
fn all_machines_survive_memory_violation_workloads() {
    // branchy_sort has spill store→load pairs that trigger violations and
    // MDP training.
    let t = workload("branchy_sort", 3_000, 9);
    for kind in [
        MachineKind::OutOfOrder,
        MachineKind::OutOfOrderNoMdp,
        MachineKind::Ces,
        MachineKind::Ballerino,
    ] {
        let r = run_machine(kind, Width::Eight, &t);
        assert_eq!(r.committed, t.len() as u64, "{kind:?}");
    }
}

/// CES splits its IQ budget across its P-IQs without rounding, so a
/// P-IQ can hold an odd number of entries: 96 entries at width 10 (a
/// `SweepSpec::full()` point) give 9 per queue, 60 at width 8 give 7.
#[test]
fn ces_runs_at_odd_piq_capacities() {
    let t = workload("branchy_sort", 2_000, 3);
    for kind in [MachineKind::Ces, MachineKind::CesMda] {
        for (width, iq, capacity) in [(Width::Ten, 96, 10 * 9), (Width::Eight, 60, 8 * 7)] {
            let point = DesignPoint {
                iq_entries: Some(iq),
                ..DesignPoint::new(kind, width)
            };
            let (_, sched, _) = build_scheduler_point(&point);
            assert_eq!(sched.capacity(), capacity, "{}", point.label());
            let r = run_point(&point, &t);
            assert_eq!(r.committed, t.len() as u64, "{}", point.label());
        }
    }
}

#[test]
fn ooo_beats_ino_substantially_on_ilp_workload() {
    let ino = ipc(MachineKind::InOrder, "gemm_blocked");
    let ooo = ipc(MachineKind::OutOfOrder, "gemm_blocked");
    assert!(
        ooo > 1.5 * ino,
        "OoO should be far faster than InO on ILP-rich code: {ooo:.2} vs {ino:.2}"
    );
}

#[test]
fn ballerino_lands_between_casino_and_ooo() {
    let wl = "hash_join";
    let casino = ipc(MachineKind::Casino, wl);
    let ballerino = ipc(MachineKind::Ballerino12, wl);
    let ooo = ipc(MachineKind::OutOfOrder, wl);
    assert!(
        ballerino >= 0.95 * casino,
        "Ballerino-12 should not lose to CASINO: {ballerino:.2} vs {casino:.2}"
    );
    assert!(
        ballerino <= 1.05 * ooo,
        "Ballerino-12 should not beat OoO by much: {ballerino:.2} vs {ooo:.2}"
    );
}

#[test]
fn mdp_slashes_violations_and_helps_high_ilp_code() {
    // High-IPC code is where violation squashes destroy the most in-flight
    // work, so the MDP's serialization pays off most clearly there.
    let t = workload("int_crunch", N, 11);
    let with = run_machine(MachineKind::OutOfOrder, Width::Eight, &t);
    let without = run_machine(MachineKind::OutOfOrderNoMdp, Width::Eight, &t);
    assert!(
        with.violations * 10 < without.violations.max(1),
        "MDP must remove ≳90% of violations: {} vs {}",
        with.violations,
        without.violations
    );
    assert!(
        with.ipc() > 1.05 * without.ipc(),
        "MDP should speed up high-ILP spill code: {} vs {}",
        with.ipc(),
        without.ipc()
    );
}

#[test]
fn pointer_chase_is_slow_everywhere() {
    let ooo = ipc(MachineKind::OutOfOrder, "pointer_chase");
    assert!(
        ooo < 1.5,
        "dependent DRAM misses cannot run fast, got {ooo}"
    );
}

#[test]
fn widths_scale_monotonically_for_ooo() {
    let t = workload("gemm_blocked", N, 5);
    let w2 = run_machine(MachineKind::OutOfOrder, Width::Two, &t);
    let w4 = run_machine(MachineKind::OutOfOrder, Width::Four, &t);
    let w8 = run_machine(MachineKind::OutOfOrder, Width::Eight, &t);
    assert!(w4.ipc() > w2.ipc());
    assert!(w8.ipc() > w4.ipc());
}

#[test]
fn timing_records_cover_all_committed_uops() {
    use ballerino_sim::stats::TimingClass;
    let t = workload("stream_triad", N, 3);
    let r = run_machine(MachineKind::Ballerino, Width::Eight, &t);
    let total = r.timing.count(TimingClass::Ld)
        + r.timing.count(TimingClass::LdC)
        + r.timing.count(TimingClass::Rst);
    assert_eq!(total, r.committed);
}

#[test]
fn energy_events_are_populated() {
    let t = workload("mixed_media", 3_000, 1);
    let r = run_machine(MachineKind::OutOfOrder, Width::Eight, &t);
    assert!(r.energy.cycles > 0);
    assert!(r.energy.fetched_uops >= r.committed);
    assert!(r.energy.sched.cam_broadcasts > 0);
    assert!(r.energy.prf_writes > 0);
    assert!(r.energy.l1d_accesses > 0);
}

#[test]
fn ballerino_issues_from_both_siq_and_piqs() {
    let t = workload("hash_join", N, 2);
    let r = run_machine(MachineKind::Ballerino, Width::Eight, &t);
    assert!(
        r.issue_breakdown.from_siq > 0,
        "S-IQ must filter ready μops"
    );
    assert!(
        r.issue_breakdown.from_piq > 0,
        "P-IQs must issue chain μops"
    );
}

#[test]
fn fxa_executes_a_large_fraction_in_ixu() {
    let t = workload("int_crunch", N, 2);
    let r = run_machine(MachineKind::Fxa, Width::Eight, &t);
    let frac = r.issue_breakdown.from_ixu as f64 / r.issue_breakdown.total() as f64;
    assert!(frac > 0.25, "IXU fraction too small: {frac:.2}");
}

#[test]
fn branch_mispredictions_are_observed_on_random_branches() {
    let t = workload("compress_lz", N, 4);
    let r = run_machine(MachineKind::OutOfOrder, Width::Eight, &t);
    assert!(
        r.mispredicts > 50,
        "random branches must mispredict, got {}",
        r.mispredicts
    );
}

#[test]
fn all_machines_complete_at_every_width() {
    let t = workload("mixed_media", 2_000, 13);
    for kind in [
        MachineKind::InOrder,
        MachineKind::OutOfOrder,
        MachineKind::Ces,
        MachineKind::CesMda,
        MachineKind::Casino,
        MachineKind::Fxa,
        MachineKind::Ballerino,
        MachineKind::Ballerino12,
    ] {
        for width in [Width::Two, Width::Four, Width::Eight, Width::Ten] {
            let r = run_machine(kind, width, &t);
            assert_eq!(r.committed, t.len() as u64, "{kind:?} at {width:?}");
            let cap = match width {
                Width::Two => 2.0,
                Width::Four => 4.0,
                _ => 8.0,
            };
            assert!(
                r.ipc() <= cap,
                "{kind:?} at {width:?}: IPC {} over cap",
                r.ipc()
            );
        }
    }
}

#[test]
fn ten_wide_flattens_for_inorder_but_not_ooo() {
    // §VI-E1: InO's achievable ILP saturates at 8-wide.
    let t = workload("gemm_blocked", N, 3);
    let ino8 = run_machine(MachineKind::InOrder, Width::Eight, &t);
    let ino10 = run_machine(MachineKind::InOrder, Width::Ten, &t);
    assert!(
        ino10.ipc() < ino8.ipc() * 1.05,
        "InO should not gain from 10-wide: {} vs {}",
        ino10.ipc(),
        ino8.ipc()
    );
}
