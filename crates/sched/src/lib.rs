//! # ballerino-sched
//!
//! The dynamic-scheduling abstraction and every baseline scheduler the
//! paper evaluates against:
//!
//! * [`ino`] — stall-on-use in-order issue queue (the `InO` baseline),
//! * [`ooo`] — the unified out-of-order IQ: CAM-style wakeup without
//!   compaction and per-port prefix-sum select, with an optional
//!   oldest-first select policy (Fig. 2 / §II-A),
//! * [`ces`] — Complexity-Effective Superscalar clustered P-IQs with
//!   dependence-based steering \[3\], plus the MDA-steering extension the
//!   paper evaluates in Fig. 13,
//! * [`casino`] — cascaded speculative in-order IQs \[2\],
//! * [`dnb`] — Delay-and-Bypass \[25\]: a criticality/readiness hybrid
//!   extension baseline from the paper's related work (§VII),
//! * [`lsc`] — Load Slice Core \[8\]: a slice-out-of-order extension
//!   baseline from the paper's related work (§VII),
//! * [`ldt`] — real-time load-delay tracking (Diavastos & Carlson, see
//!   PAPERS.md): delay-sorted select driven by a per-register predicted
//!   ready-cycle table, an extension kind beyond the paper's own set,
//! * [`fxa`] — front-end execution architecture: an in-order execution
//!   unit (IXU) filtering ready μops ahead of a half-size OoO IQ \[1\].
//!
//! The Ballerino scheduler itself (the paper's contribution) lives in the
//! `ballerino-core` crate and implements the same [`Scheduler`] trait.
//!
//! ## Contract
//!
//! The pipeline model drives a scheduler with three calls per cycle, in
//! this order: [`Scheduler::issue`], then any
//! number of [`Scheduler::try_dispatch`] calls; completions and flushes
//! arrive via [`Scheduler::on_complete`] / [`Scheduler::flush_after`].

#![warn(missing_docs)]

pub mod casino;
pub mod ces;
pub mod dnb;
pub mod fabric;
pub mod fxa;
pub mod held;
pub mod ino;
pub mod ldt;
pub mod loc;
pub mod lsc;
pub mod ooo;
pub mod ports;
pub mod scoreboard;
pub mod stats;
pub mod traits;
pub mod uop;

pub use casino::{Casino, CasinoConfig};
pub use ces::{Ces, CesConfig};
pub use dnb::{Dnb, DnbConfig};
pub use fabric::{WakeFabric, WakeState};
pub use fxa::{Fxa, FxaConfig};
pub use held::HeldSet;
pub use ino::{InOrderIq, InOrderIqConfig};
pub use ldt::{DelayTable, Ldt, LdtConfig};
pub use loc::{LocEntry, LocTable};
pub use lsc::{Lsc, LscConfig};
pub use ooo::{OooIq, OooIqConfig};
pub use ports::{FuBusy, PortAlloc};
pub use scoreboard::Scoreboard;
pub use stats::{
    HeadState, HeadStateStats, IssueBreakdown, SchedEnergyEvents, SteerEvent, SteerStats,
};
pub use traits::{DispatchOutcome, ReadyCtx, Scheduler, StallReason};
pub use uop::SchedUop;
