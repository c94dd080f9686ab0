//! Property tests for the tier-0 analytic model: determinism (batched
//! lanes included) and the monotonicities the sweep engine's
//! conservative promotion relies on.

use ballerino_analytic::{
    calib_for, predict_cycles, predict_cycles_with, predict_shape, KindCalib, MachineParams,
    ScheduleShape, SUITE,
};
use ballerino_bench::SweepSpec;
use ballerino_isa::rng::Rng64;
use ballerino_isa::{from_text, MemGeometry, TraceDag, TraceFeatures};
use ballerino_sim::{DesignPoint, MachineKind, Width};
use ballerino_workloads::{cached_dag, cached_features, workload_names};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

const N: usize = 8_000;
const SEED: u64 = 42;

const KINDS: [MachineKind; 5] = [
    MachineKind::InOrder,
    MachineKind::OutOfOrder,
    MachineKind::Ces,
    MachineKind::Ballerino,
    MachineKind::DelayAndBypass,
];

/// Compute-dense, cache-resident suite workloads — the class whose
/// behavior is dominated by the machine axes the grid sweeps, so the
/// model must order them correctly.
const DENSE: [&str; 3] = ["int_crunch", "gemm_blocked", "stencil3d"];

fn estimate(point: &DesignPoint, workload: &str) -> u64 {
    let params = MachineParams::from_point(point);
    let dag = cached_dag(workload, N, SEED);
    let feat = cached_features(workload, N, SEED);
    predict_cycles(&params, &dag, &feat, workload).cycles
}

/// The committed [`SUITE`] list (which indexes the per-workload
/// reference alphas in the calibration table) must match the workload
/// crate's suite exactly — a drifted index would silently apply one
/// workload's correction to another.
#[test]
fn suite_matches_workload_names() {
    assert_eq!(SUITE.to_vec(), workload_names());
}

/// A seeded random trace in the text format: compute, loads and stores
/// over a 4 MiB footprint (so some miss to DRAM with row conflicts) and
/// branches of random direction (so some are predicted wrong).
fn random_text_trace(seed: u64, records: usize) -> (TraceDag, TraceFeatures) {
    let mut rng = Rng64::new(seed);
    let mut text = String::from("# ballerino-trace v1 random\n");
    for i in 0..records {
        let pc = 0x1000 + 4 * (i as u64 % 64);
        let (r0, r1, r2) = (rng.below(16), rng.below(16), rng.below(16));
        let addr = 0x10_0000 + 8 * rng.below(1 << 19);
        let _ = match rng.below(10) {
            0..=3 => {
                let class = ["ialu", "imul", "idiv", "fadd", "fmul", "fdiv"][rng.index(6)];
                writeln!(text, "C {pc:#x} {class} r{r0} r{r1} r{r2}")
            }
            4..=6 => writeln!(text, "L {pc:#x} r{r0} r{r1} {addr:#x} 8"),
            7 => writeln!(text, "S {pc:#x} r{r0} r{r1} {addr:#x} 8"),
            _ => {
                let dir = ["taken", "not"][rng.index(2)];
                writeln!(
                    text,
                    "B {pc:#x} r{r0} {dir} {:#x}",
                    0x1000 + 4 * rng.below(64)
                )
            }
        };
    }
    let trace = from_text(&text).expect("the generator writes valid records");
    let dag = TraceDag::resolve(&trace);
    let feat = TraceFeatures::extract(&trace, &dag, &MemGeometry::default());
    (dag, feat)
}

/// The estimator is a pure function of (point, trace): repeated
/// evaluation — including after other points were scored in between —
/// returns bit-identical cycles, and so does evaluation in a lane of a
/// batched pass. Random subsets of every schedule shape of the full
/// sweep grid (every kind including InOrder, every IQ budget, DRAM
/// 70–400%), in random order, batched through [`predict_shape`] on
/// suite traces and a seeded random text trace, must give exactly the
/// estimates of [`predict_cycles_with`] one point at a time.
#[test]
fn tier0_is_deterministic() {
    let points: Vec<DesignPoint> = KINDS
        .iter()
        .map(|&k| DesignPoint::new(k, Width::Eight))
        .collect();
    let first: Vec<u64> = points.iter().map(|p| estimate(p, "int_crunch")).collect();
    // Interleave other work, then re-evaluate.
    for p in &points {
        estimate(p, "branchy_sort");
    }
    let second: Vec<u64> = points.iter().map(|p| estimate(p, "int_crunch")).collect();
    assert_eq!(first, second);

    let grid = SweepSpec::full().points();
    let params: Vec<MachineParams> = grid.iter().map(MachineParams::from_point).collect();
    let calibs: Vec<KindCalib> = grid.iter().map(|p| calib_for(p.kind)).collect();
    let mut shapes: BTreeMap<ScheduleShape, Vec<usize>> = BTreeMap::new();
    for (i, (p, c)) in params.iter().zip(&calibs).enumerate() {
        shapes.entry(p.shape(c)).or_default().push(i);
    }
    let mut traces: Vec<_> = ["int_crunch", "pointer_chase"]
        .map(|w| (w, cached_dag(w, N, SEED), cached_features(w, N, SEED)))
        .into();
    let (dag, feat) = random_text_trace(0x7A2E, 3_000);
    assert!(feat.dram_row_switches > 0 && feat.est_mispredicts > 0);
    traces.push(("imported", Arc::new(dag), Arc::new(feat)));

    let mut rng = Rng64::new(0x1A_9E5);
    for (name, dag, feat) in &traces {
        for members in shapes.values() {
            // A random subset in random order (duplicates allowed, so
            // equal lanes meet too).
            let take = 1 + rng.index(members.len());
            let batch: Vec<usize> = (0..take)
                .map(|_| members[rng.index(members.len())])
                .collect();
            let lanes: Vec<_> = batch.iter().map(|&i| (&params[i], &calibs[i])).collect();
            let batched = predict_shape(&lanes, dag, feat, name);
            for (&i, got) in batch.iter().zip(&batched) {
                let alone = predict_cycles_with(&params[i], dag, feat, &calibs[i], name);
                assert_eq!(*got, alone, "{} on {name}", grid[i].label());
            }
        }
    }
}

/// More IQ entries can only help: predicted cycles are non-increasing in
/// the IQ budget (the window constraint looks back at a running max, so
/// a larger window relaxes it — monotone by construction).
#[test]
fn tier0_is_monotone_in_iq_budget() {
    let budgets = [16usize, 32, 64, 96, 160, 256];
    for kind in KINDS {
        if kind == MachineKind::InOrder {
            continue; // no issue queue to sweep
        }
        for wl in DENSE {
            let mut prev = u64::MAX;
            for b in budgets {
                let point = DesignPoint {
                    iq_entries: Some(b),
                    ..DesignPoint::new(kind, Width::Eight)
                };
                let est = estimate(&point, wl);
                assert!(
                    est <= prev,
                    "{kind:?}/{wl}: iq {b} predicted {est} > smaller budget's {prev}"
                );
                prev = est;
            }
        }
    }
}

/// A wider machine helps on dense workloads: at the calibration's fit
/// configuration (`n = 30_000`, the width presets) predicted cycles are
/// non-increasing across 2/4/8/10-wide, up to a 2% tolerance. Both
/// choices are deliberate. The fit configuration is where the
/// per-workload reference alphas pin the prediction to the simulator,
/// so reordering there means the committed table itself is broken (a
/// fitting bug misses by tens of percent, not a fraction of one); away
/// from the fit trace length the model's width sensitivity drifts by a
/// few percent and the chain ordering is only approximate. The
/// tolerance covers the cycle-accurate tier's own anomalies — it is not
/// strictly width-monotone either (4-wide InOrder runs `gemm_blocked`
/// ~0.2% *slower* than 2-wide, and 10-wide Ballerino runs `int_crunch`
/// ~1.2% slower than 8-wide: wider speculative issue shifts DRAM row
/// conflicts and P-IQ steering), and the calibration reproduces the
/// simulator exactly, anomalies included.
#[test]
fn tier0_is_monotone_in_width_for_dense_workloads() {
    const FIT_N: usize = 30_000;
    for kind in KINDS {
        for wl in DENSE {
            let mut prev = u64::MAX;
            for width in [Width::Two, Width::Four, Width::Eight, Width::Ten] {
                let point = DesignPoint::new(kind, width);
                let params = MachineParams::from_point(&point);
                let dag = cached_dag(wl, FIT_N, SEED);
                let feat = cached_features(wl, FIT_N, SEED);
                let est = predict_cycles(&params, &dag, &feat, wl).cycles;
                assert!(
                    est as u128 * 100 <= prev as u128 * 102,
                    "{kind:?}/{wl}: {width:?} predicted {est} > narrower width's {prev} by >2%"
                );
                prev = est.min(prev);
            }
        }
    }
}
