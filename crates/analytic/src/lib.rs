//! # ballerino-analytic
//!
//! The **tier-0** estimator of the tiered-fidelity design-space engine:
//! a queuing/dataflow model that predicts cycles and IPC for a
//! [`DesignPoint`](ballerino_sim::DesignPoint) without stepping the
//! cycle-accurate pipeline.
//!
//! The model consumes per-trace static features
//! ([`TraceFeatures`](ballerino_isa::TraceFeatures), memoized by
//! `ballerino_workloads::TraceCache`) and a handful of machine scalars
//! ([`MachineParams`]) and replays the dependence DAG through an
//! idealized machine in `O(n)` integer passes: one per trace and
//! [`ScheduleShape`] — the part of a point the pass reads — with every
//! point of that shape in a lane of its own ([`predict_shape`]), so a
//! grid of thousands of points costs a pass per shape, not per point,
//! and batching never changes an estimate. Predictions are
//! deterministic and — for a fixed kind and width — monotone in window
//! size by construction; across widths the committed calibration keeps
//! predictions monotone on dense workloads to within the simulator's
//! own sub-percent width anomalies (enforced by the `tier0_props`
//! tests). The sweep engine's promotion does not assume monotonicity —
//! it anchors dominance on simulated cycles — but sane orderings keep
//! the estimated frontier close to the true one, which is what makes
//! the anchor round effective.
//!
//! Accuracy is tracked per workload class against committed bounds
//! ([`class_error_bound_pct`]); `tier0_calibrate` regenerates the
//! [`CALIBRATION`] table when the simulator's timing model moves.
//!
//! # Examples
//!
//! ```
//! use ballerino_analytic::{predict_cycles, MachineParams};
//! use ballerino_sim::{DesignPoint, MachineKind, Width};
//! use ballerino_workloads::{cached_dag, cached_features};
//!
//! let point = DesignPoint::new(MachineKind::Ballerino, Width::Eight);
//! let params = MachineParams::from_point(&point);
//! let dag = cached_dag("int_crunch", 2_000, 42);
//! let feat = cached_features("int_crunch", 2_000, 42);
//! let est = predict_cycles(&params, &dag, &feat, "int_crunch");
//! assert!(est.cycles > 0 && est.ipc() > 0.1);
//! ```

#![warn(missing_docs)]

pub mod calib;
pub mod model;

pub use calib::{
    calib_for, class_error_bound_pct, class_index, default_promotion_margin_pct, has_calibration,
    promotion_margin_pct, suite_index, width_index, workload_class, KindCalib, WorkloadClass,
    CALIBRATION, SUITE,
};
pub use model::{
    predict_cycles, predict_cycles_with, predict_point, predict_shape, shape_passes, Estimate,
    MachineParams, ScheduleShape,
};
