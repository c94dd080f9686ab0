//! # ballerino-mem
//!
//! The memory-system substrate of the Ballerino reproduction:
//!
//! * [`cache`] — set-associative caches with per-line fill timestamps and
//!   MSHR-limited outstanding misses (L1I/L1D/L2/L3 of Table I),
//! * [`dram`] — a bank/row-state DDR4-lite timing model standing in for the
//!   paper's Ramulator integration,
//! * [`prefetch`] — the stride-based L1D prefetcher of Table I,
//! * [`hierarchy`] — the composed L1→L2→L3→DRAM walk with prefetch hooks,
//! * [`lsq`] — load/store queues with store-to-load forwarding and memory
//!   order violation detection,
//! * [`mdp`] — store-set memory dependence prediction (SSIT + LFST).
//!
//! All times are in **core cycles**; callers pass the current cycle and get
//! back an absolute completion cycle. The model is deterministic: the same
//! request sequence always produces the same timings.
//!
//! The per-access hot path (flat SoA cache arrays, MRU fast hits, the
//! hierarchy line filter, slot-array MSHRs) has a frozen seed-exact
//! counterpart, built only by [`Hierarchy::with_naive_lookup`] as a test
//! reference: `tests/hierarchy_equiv.rs` pins the two paths to identical
//! timings, levels, and statistics.

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod dram;
pub mod hierarchy;
pub mod lsq;
pub mod mdp;
pub mod mshr;
pub mod prefetch;

pub use cache::Cache;
pub use config::{CacheConfig, DramConfig, MemConfig};
pub use dram::Dram;
pub use hierarchy::{AccessKind, Hierarchy, HitLevel, MemStats};
pub use lsq::{LoadQueue, StoreQueue};
pub use mdp::{Mdp, MdpConfig, SsId};
pub use mshr::MshrFile;
pub use prefetch::{StridePrefetcher, MAX_PF_DEGREE};

/// Cache line size in bytes, fixed across the hierarchy.
pub const LINE_BYTES: u64 = 64;

/// Converts a byte address to a line address.
pub fn line_of(addr: u64) -> u64 {
    addr / LINE_BYTES
}
