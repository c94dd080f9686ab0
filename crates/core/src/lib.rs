//! # ballerino-core
//!
//! The paper's contribution: the **Ballerino** instruction scheduler —
//! *BALanced and cache-miss-toLERable dynamic scheduling via cascaded and
//! clustered IN-Order IQs* (MICRO 2022).
//!
//! Ballerino composes three mechanisms on top of purely in-order queues:
//!
//! 1. **Speculative issue (S-IQ)** — a small FIFO ahead of the cluster
//!    filters out ready-at-dispatch μops and their soon-ready consumers,
//!    issuing them without ever occupying a P-IQ (§III-A),
//! 2. **M/R-dependence steering** — non-ready μops are steered into
//!    clustered in-order P-IQs along their dependence chains, with
//!    memory-dependence-aware (MDA) steering placing a predicted
//!    M-dependent load directly behind its producer store (§III-B),
//! 3. **P-IQ sharing** — when no empty P-IQ exists, an eligible P-IQ is
//!    split into two equal partitions that act as distinct FIFOs, each
//!    hosting a dependence chain, with one active head per cycle (§III-C,
//!    §IV-D) — plus an *ideal* variant lifting the implementation
//!    constraints (Fig. 13).
//!
//! With no S-IQ the same cluster is the Complexity-Effective
//! Superscalar baseline (CES, and CES+MDA with MDA steering): every μop
//! is steered at dispatch ([`BallerinoConfig::ces`]).
//!
//! The scheduler implements the [`ballerino_sched::Scheduler`] trait and
//! plugs into the `ballerino-sim` pipeline exactly like the baselines.

#![warn(missing_docs)]

mod board;
pub mod piq;
pub mod scheduler;

pub use board::MAX_PIQS;
pub use piq::{PartId, Piq};
pub use scheduler::{Ballerino, BallerinoConfig, MAX_SIQ_WINDOW};
