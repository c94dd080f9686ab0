//! [`TraceCache`]: a process-wide memoizing cache of generated traces.
//!
//! Workload generation is deterministic in `(name, n, seed)`, yet the
//! seed harness regenerated the same trace once per machine kind — the
//! Fig. 11 matrix (7 kinds × 15 workloads) paid for 105 generations of
//! 15 distinct traces, and the Fig. 11 harness (which also runs the
//! `InO` baseline) paid 8× per workload. The cache hands out `Arc<Trace>`
//! clones so every `(name, n, seed)` is generated exactly once per
//! process no matter how many runner threads ask for it.
//!
//! Generation happens *outside* the map lock: each key owns a
//! `OnceLock` slot, so two threads racing on the same workload block
//! only each other (one generates, the other waits on the slot), while
//! requests for different workloads proceed concurrently.

use crate::suite::workload;
use ballerino_isa::{MemGeometry, Trace, TraceDag, TraceFeatures};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

type Key = (String, usize, u64);
type Slot = Arc<OnceLock<Arc<Trace>>>;
type DagSlot = Arc<OnceLock<Arc<TraceDag>>>;
type FeatSlot = Arc<OnceLock<Arc<TraceFeatures>>>;

/// A memoizing trace cache keyed by `(workload name, n, seed)`.
///
/// Besides the traces themselves, the cache memoizes each trace's
/// pre-resolved dependence/latency [`TraceDag`] (see
/// [`TraceCache::dag`]) so the tier-0 estimator's one-time O(n)
/// resolution is also paid once per `(name, n, seed)` per process.
#[derive(Debug, Default)]
pub struct TraceCache {
    slots: Mutex<HashMap<Key, Slot>>,
    dag_slots: Mutex<HashMap<Key, DagSlot>>,
    feat_slots: Mutex<HashMap<Key, FeatSlot>>,
}

impl TraceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        TraceCache::default()
    }

    /// Returns the trace for `(name, n, seed)`, generating it on first
    /// use. Repeated calls return clones of the same `Arc`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name, like
    /// [`workload`].
    pub fn get(&self, name: &str, n: usize, seed: u64) -> Arc<Trace> {
        let slot = {
            let mut slots = self.slots.lock().expect("trace cache poisoned");
            match slots.get(&(name.to_string(), n, seed)) {
                Some(s) => Arc::clone(s),
                None => {
                    let s = Slot::default();
                    slots.insert((name.to_string(), n, seed), Arc::clone(&s));
                    s
                }
            }
        };
        // The map lock is released; the winner generates while losers
        // block on this slot only.
        Arc::clone(slot.get_or_init(|| Arc::new(workload(name, n, seed))))
    }

    /// Returns the pre-resolved dependence/latency DAG for
    /// `(name, n, seed)`, resolving it on first use (generating the
    /// trace too if needed). Repeated calls return clones of the same
    /// `Arc`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name, like
    /// [`workload`].
    pub fn dag(&self, name: &str, n: usize, seed: u64) -> Arc<TraceDag> {
        let slot = {
            let mut slots = self.dag_slots.lock().expect("dag cache poisoned");
            match slots.get(&(name.to_string(), n, seed)) {
                Some(s) => Arc::clone(s),
                None => {
                    let s = DagSlot::default();
                    slots.insert((name.to_string(), n, seed), Arc::clone(&s));
                    s
                }
            }
        };
        // As with traces: the winner resolves outside the map lock.
        Arc::clone(slot.get_or_init(|| Arc::new(TraceDag::resolve(&self.get(name, n, seed)))))
    }

    /// Returns the static [`TraceFeatures`] for `(name, n, seed)` — the
    /// tier-0 estimator's per-trace inputs (memory-level classification,
    /// misprediction estimate, store→load deps, FU work) — extracting
    /// them on first use with the default Table I cache geometry.
    /// Repeated calls return clones of the same `Arc`, so a sweep over
    /// thousands of design points pays the `O(n log n)` extraction once
    /// per `(name, n, seed)` per process.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name, like
    /// [`workload`].
    pub fn features(&self, name: &str, n: usize, seed: u64) -> Arc<TraceFeatures> {
        let slot = {
            let mut slots = self.feat_slots.lock().expect("feature cache poisoned");
            match slots.get(&(name.to_string(), n, seed)) {
                Some(s) => Arc::clone(s),
                None => {
                    let s = FeatSlot::default();
                    slots.insert((name.to_string(), n, seed), Arc::clone(&s));
                    s
                }
            }
        };
        // As with traces and DAGs: the winner extracts outside the map
        // lock, losers block on this slot only.
        Arc::clone(slot.get_or_init(|| {
            let trace = self.get(name, n, seed);
            let dag = self.dag(name, n, seed);
            Arc::new(TraceFeatures::extract(
                &trace,
                &dag,
                &MemGeometry::default(),
            ))
        }))
    }

    /// Number of traces generated so far.
    pub fn len(&self) -> usize {
        let slots = self.slots.lock().expect("trace cache poisoned");
        slots.values().filter(|s| s.get().is_some()).count()
    }

    /// Whether no trace has been generated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide cache used by the bench harness and its binaries.
pub fn global() -> &'static TraceCache {
    static GLOBAL: OnceLock<TraceCache> = OnceLock::new();
    GLOBAL.get_or_init(TraceCache::new)
}

/// Cached variant of [`workload`]: same trace, shared
/// through the process-wide [`TraceCache`].
pub fn cached_workload(name: &str, n: usize, seed: u64) -> Arc<Trace> {
    global().get(name, n, seed)
}

/// Cached pre-resolved DAG for a workload, shared through the
/// process-wide [`TraceCache`].
pub fn cached_dag(name: &str, n: usize, seed: u64) -> Arc<TraceDag> {
    global().dag(name, n, seed)
}

/// Cached static trace features for a workload, shared through the
/// process-wide [`TraceCache`].
pub fn cached_features(name: &str, n: usize, seed: u64) -> Arc<TraceFeatures> {
    global().features(name, n, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_returns_same_allocation() {
        let cache = TraceCache::new();
        let a = cache.get("int_crunch", 500, 42);
        let b = cache.get("int_crunch", 500, 42);
        assert!(Arc::ptr_eq(&a, &b), "cache must hand out the same Arc");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_are_distinct_traces() {
        let cache = TraceCache::new();
        let a = cache.get("int_crunch", 500, 42);
        let b = cache.get("int_crunch", 500, 43);
        let c = cache.get("hash_join", 500, 42);
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn cached_trace_matches_direct_generation() {
        let cache = TraceCache::new();
        let cached = cache.get("pointer_chase", 400, 7);
        let direct = workload("pointer_chase", 400, 7);
        assert_eq!(cached.len(), direct.len());
        for (a, b) in cached.ops.iter().zip(direct.ops.iter()) {
            assert_eq!(a.pc, b.pc);
            assert_eq!(a.class, b.class);
        }
    }

    #[test]
    fn features_are_memoized_and_sized_like_the_trace() {
        let cache = TraceCache::new();
        let fa = cache.features("hash_join", 400, 42);
        let fb = cache.features("hash_join", 400, 42);
        assert!(Arc::ptr_eq(&fa, &fb), "features must be extracted once");
        let trace = cache.get("hash_join", 400, 42);
        assert_eq!(fa.len(), trace.len());
        assert!(fa.loads > 0);
        assert_eq!(cache.len(), 1, "features() reuses the cached trace");
    }

    #[test]
    fn dag_is_memoized_and_matches_trace() {
        let cache = TraceCache::new();
        let dag_a = cache.dag("int_crunch", 500, 42);
        let dag_b = cache.dag("int_crunch", 500, 42);
        assert!(Arc::ptr_eq(&dag_a, &dag_b), "dag must be resolved once");
        let trace = cache.get("int_crunch", 500, 42);
        assert_eq!(dag_a.len(), trace.len());
        assert_eq!(cache.len(), 1, "dag() reuses the cached trace");
    }

    #[test]
    fn concurrent_requests_generate_once() {
        let cache = Arc::new(TraceCache::new());
        let traces: Vec<_> = std::thread::scope(|s| {
            (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    s.spawn(move || cache.get("gemm_blocked", 600, 42))
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(cache.len(), 1);
        for t in &traces[1..] {
            assert!(Arc::ptr_eq(&traces[0], t));
        }
    }
}
