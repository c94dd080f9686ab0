//! Gates the committed calibration table against the cycle-accurate
//! tier: the per-class mean absolute error of the tier-0 estimator must
//! stay within the committed [`class_error_bound_pct`] bounds.
//!
//! Runs a CI-affordable slice of the full calibration comparison —
//! every base kind at the 2- and 8-wide presets (the extremes the sweep
//! grid stresses) over the whole suite at `n = 8_000`. The committed
//! table is fit at `n = 30_000` over all four widths; `tier0_calibrate`
//! is the authoritative full check, this test catches drift cheaply.
//! Ignored by default (it simulates 300 cells); CI's `sweep-smoke` job
//! runs it with `--ignored`.

use ballerino_analytic::{
    class_error_bound_pct, predict_cycles, workload_class, MachineParams, WorkloadClass,
};
use ballerino_sim::{run_machine, DesignPoint, MachineKind, Width};
use ballerino_workloads::{cached_dag, cached_features, cached_workload, workload_names};

const N: usize = 8_000;
const SEED: u64 = 42;

const BASE_KINDS: [MachineKind; 10] = [
    MachineKind::InOrder,
    MachineKind::OutOfOrder,
    MachineKind::Ces,
    MachineKind::Casino,
    MachineKind::Fxa,
    MachineKind::LoadSliceCore,
    MachineKind::DelayAndBypass,
    MachineKind::Ballerino,
    MachineKind::Ldt,
    MachineKind::BallerinoLdt,
];

#[test]
#[ignore = "simulates 300 kind x width x workload cells (~minutes); run in CI's sweep-smoke job"]
fn committed_calibration_stays_within_class_bounds() {
    let mut class_err: Vec<(WorkloadClass, Vec<f64>)> = WorkloadClass::ALL
        .iter()
        .map(|&c| (c, Vec::new()))
        .collect();

    for kind in BASE_KINDS {
        for width in [Width::Two, Width::Eight] {
            let params = MachineParams::from_point(&DesignPoint::new(kind, width));
            for wl in workload_names() {
                let trace = cached_workload(wl, N, SEED);
                let dag = cached_dag(wl, N, SEED);
                let feat = cached_features(wl, N, SEED);
                let sim = run_machine(kind, width, &trace).cycles;
                let class = workload_class(wl);
                let est = predict_cycles(&params, &dag, &feat, wl).cycles;
                let err = 100.0 * (est as f64 - sim as f64).abs() / sim as f64;
                class_err
                    .iter_mut()
                    .find(|(c, _)| *c == class)
                    .expect("class bucket")
                    .1
                    .push(err);
            }
        }
    }

    let mut report = String::new();
    let mut any_over = false;
    for (class, errs) in &class_err {
        let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
        let bound = class_error_bound_pct(*class);
        report.push_str(&format!(
            "{}: mean abs err {mean:.1}% (bound {bound}%)\n",
            class.label()
        ));
        any_over |= mean > bound as f64;
    }
    println!("{report}");
    assert!(
        !any_over,
        "calibration drifted outside committed bounds:\n{report}"
    );
}
