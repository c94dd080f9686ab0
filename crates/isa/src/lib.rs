//! # ballerino-isa
//!
//! Core instruction-set types shared by every crate in the Ballerino
//! reproduction: architectural/physical registers, micro-op (μop) classes,
//! functional-unit kinds, issue ports, and dynamic traces.
//!
//! The simulated machine is a generic RISC-like μop stream modelled after the
//! paper's x86-μop baseline (Skylake-like, Table I): each μop has up to two
//! register sources, up to one register destination, an optional memory
//! access, and an optional branch outcome.
//!
//! # Examples
//!
//! ```
//! use ballerino_isa::{MicroOp, OpClass, ArchReg};
//!
//! let add = MicroOp::alu(0x400000, ArchReg::int(3), [Some(ArchReg::int(1)), Some(ArchReg::int(2))]);
//! assert_eq!(add.class, OpClass::IntAlu);
//! assert!(add.dst.is_some());
//! ```

#![warn(missing_docs)]

pub mod dag;
pub mod features;
pub mod op;
pub mod ports;
pub mod regs;
pub mod rng;
pub mod trace;
pub mod trace_io;

pub use dag::{DagOp, TraceDag, NO_PRODUCER};
pub use features::{HitLevel, MemGeometry, TraceFeatures, NO_STORE_DEP, NUM_HIT_LEVELS};
pub use op::{BranchInfo, BranchKind, MemInfo, MicroOp, OpClass};
pub use ports::{FuKind, PortId, PortMap, MAX_PORTS};
pub use regs::{ArchReg, PhysReg, RegClass, NUM_ARCH_REGS};
pub use trace::{Trace, TraceStats};
pub use trace_io::{from_text, to_text, ParseTraceError};

/// Whether a boolean `BALLERINO_*` environment knob is enabled.
///
/// Set-but-empty counts as *unset*, so CI matrices (and shell one-liners
/// like `BALLERINO_SWEEP_SMALL= cargo run ...`) can pass an empty value
/// to mean "leave the default"; any non-empty value enables the knob.
pub fn env_flag(name: &str) -> bool {
    std::env::var_os(name).is_some_and(|v| !v.is_empty())
}
