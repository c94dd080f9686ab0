//! # ballerino-sim
//!
//! The execution substrate of the reproduction: a trace-driven,
//! cycle-level superscalar core model (our stand-in for the paper's
//! Multi2Sim + Ramulator setup — see DESIGN.md §1 for the substitution
//! argument).
//!
//! The pipeline is fetch → decode/allocation queue → 2-stage rename (+
//! steer) → dispatch → *scheduler* → execute → writeback → commit, with:
//!
//! * TAGE + BTB branch prediction, fetch stall on mispredictions and a
//!   Table I recovery penalty after resolution,
//! * full register renaming with ROB-walk squash recovery,
//! * a load/store queue with store-to-load forwarding, memory-order
//!   violation squashes, and store-set MDP serialization,
//! * the Table I cache/DRAM hierarchy with MSHRs and stride prefetching,
//! * per-μop timing records (decode/dispatch/ready/issue) that feed the
//!   Fig. 3c / Fig. 12 breakdowns,
//! * energy micro-event counting that feeds `ballerino-energy`.
//!
//! The scheduler — the design under evaluation — is any implementation of
//! [`ballerino_sched::Scheduler`], selected via [`MachineKind`].

#![warn(missing_docs)]

pub mod config;
pub mod core;
pub mod machine;
pub mod slab;
pub mod stats;

pub use crate::core::Core;
pub use config::{CoreConfig, Width};
pub use machine::{
    build_scheduler, build_scheduler_point, run_machine, run_point, DesignPoint, MachineKind,
};
pub use slab::SeqSlab;
pub use stats::{SimResult, TimingBreakdown, TimingClass};
