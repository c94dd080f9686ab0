//! Skip-on vs skip-off equivalence for the event-horizon engine.
//!
//! The engine may only fast-forward cycles it can prove are pure
//! bookkeeping, and must replay that bookkeeping in closed form — so
//! every reported statistic (cycles, IPC, stall counters, energy
//! micro-events, head states, steering outcomes, ...) must be
//! byte-identical with skipping on and off, for every scheduler. The
//! comparison goes through `format!("{result:?}")` on the full
//! [`SimResult`] after zeroing the fields that are *allowed* to differ
//! (`host_wall_s` and `cycles_skipped`).

use ballerino_isa::rng::Rng64;
use ballerino_isa::Trace;
use ballerino_sched::SchedEnergyEvents;
use ballerino_sim::{build_scheduler, Core, MachineKind, Width};
use ballerino_workloads::{workload, workload_names};

const ALL_KINDS: [MachineKind; 18] = [
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
    MachineKind::BallerinoN(4),
    MachineKind::LoadSliceCore,
    MachineKind::DelayAndBypass,
    MachineKind::Ldt,
    MachineKind::BallerinoLdt,
];

/// Runs one machine with skipping forced on or off and returns the
/// normalized result rendering, the skipped-cycle count, and the typed
/// scheduler energy micro-events.
fn run_normalized(
    kind: MachineKind,
    width: Width,
    trace: &Trace,
    skip: bool,
) -> (String, u64, SchedEnergyEvents) {
    let (mut cfg, sched, sizes) = build_scheduler(kind, width);
    cfg.skip_idle = skip;
    let mut r = Core::new(cfg, sched, sizes).run(trace);
    let skipped = r.cycles_skipped;
    let sched_energy = r.energy.sched;
    r.host_wall_s = 0.0;
    r.cycles_skipped = 0;
    (format!("{r:?}"), skipped, sched_energy)
}

#[test]
fn every_machine_is_skip_invariant_on_randomized_workloads() {
    let names = workload_names();
    let mut rng = Rng64::new(0xBA11_E51A);
    for kind in ALL_KINDS {
        // Several random (workload, seed, width) draws per machine.
        for _ in 0..3 {
            let name = names[rng.index(names.len())];
            let seed = rng.next_u64();
            let width = [Width::Two, Width::Four, Width::Eight][rng.index(3)];
            let n = 300 + rng.index(200);
            let trace = workload(name, n, seed);
            let (off, _, e_off) = run_normalized(kind, width, &trace, false);
            let (on, _, e_on) = run_normalized(kind, width, &trace, true);
            // Typed comparison first: a `Debug` rendering change can never
            // mask a drifting scheduler energy counter.
            assert_eq!(
                e_off, e_on,
                "{kind:?} {width:?} scheduler energy events diverge with skipping on \
                 ({name}, seed {seed:#x}, n {n})"
            );
            assert_eq!(
                off, on,
                "{kind:?} {width:?} diverges with skipping on ({name}, seed {seed:#x}, n {n})"
            );
        }
    }
}

#[test]
fn skipping_engages_on_memory_bound_workloads() {
    // The engine must actually fire where it matters: long-latency misses
    // with a quiesced scheduler. A pointer chase at 8-wide OoO spends most
    // of its cycles waiting on DRAM.
    let trace = workload("pointer_chase", 2_000, 7);
    let (_, skipped, _) = run_normalized(MachineKind::OutOfOrder, Width::Eight, &trace, true);
    assert!(
        skipped > 0,
        "event-horizon engine never fired on pointer_chase"
    );
    let (_, skipped_off, _) = run_normalized(MachineKind::OutOfOrder, Width::Eight, &trace, false);
    assert_eq!(
        skipped_off, 0,
        "cycles_skipped must stay zero with skip_idle off"
    );
}
