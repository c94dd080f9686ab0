//! # ballerino-sched
//!
//! The dynamic-scheduling abstraction and every baseline scheduler the
//! paper evaluates against:
//!
//! * [`ino`] — stall-on-use in-order issue queue (the `InO` baseline),
//! * [`ooo`] — the unified out-of-order IQ: CAM-style wakeup without
//!   compaction and per-port prefix-sum select (Fig. 2). Its
//!   [`SelectPolicy`] grants the lowest slot (the `OoO` baseline), the
//!   oldest μop (§II-A), or the soonest predicted ready (the `LDT`
//!   extension kind),
//! * [`casino`] — cascaded speculative in-order IQs \[2\],
//! * [`dnb`] — Delay-and-Bypass \[25\]: a criticality/readiness hybrid
//!   extension baseline from the paper's related work (§VII),
//! * [`lsc`] — Load Slice Core \[8\]: a slice-out-of-order extension
//!   baseline from the paper's related work (§VII),
//! * [`ldt`] — real-time load-delay tracking (Diavastos & Carlson, see
//!   PAPERS.md): the [`LoadDelayTracker`] behind the OoO IQ's
//!   predicted-ready select and Ballerino-LDT's steering, an extension
//!   beyond the paper's own set,
//! * [`fxa`] — front-end execution architecture: an in-order execution
//!   unit (IXU) filtering ready μops ahead of a half-size OoO IQ \[1\].
//!
//! The Ballerino scheduler itself (the paper's contribution) lives in the
//! `ballerino-core` crate and implements the same [`Scheduler`] trait.
//! So does the Complexity-Effective Superscalar baseline \[3\] and its
//! MDA-steering extension (Fig. 13): CES is Ballerino's P-IQ cluster
//! with no S-IQ, steered at dispatch, so both share one definition of
//! every steering rule.
//!
//! ## Contract
//!
//! The pipeline model drives a scheduler with three calls per cycle, in
//! this order: [`Scheduler::issue`], then any
//! number of [`Scheduler::try_dispatch`] calls; completions and flushes
//! arrive via [`Scheduler::on_complete`] / [`Scheduler::flush_after`].

#![warn(missing_docs)]

pub mod casino;
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
pub use dnb::{Dnb, DnbConfig};
pub use fabric::{WakeFabric, WakeState};
pub use fxa::{Fxa, FxaConfig};
pub use held::HeldSet;
pub use ino::{InOrderIq, InOrderIqConfig};
pub use ldt::{DelayTable, LoadDelayTracker};
pub use loc::{LocEntry, LocTable};
pub use lsc::{Lsc, LscConfig};
pub use ooo::{OooIq, OooIqConfig, SelectPolicy};
pub use ports::{FuBusy, PortAlloc};
pub use scoreboard::Scoreboard;
pub use stats::{
    HeadState, HeadStateStats, IssueBreakdown, SchedEnergyEvents, SteerEvent, SteerStats,
};
pub use traits::{DispatchOutcome, ReadyCtx, Scheduler, StallReason};
pub use uop::SchedUop;
