//! Set-associative cache with LRU replacement and per-line fill timestamps.
//!
//! The `valid_at` timestamp per line lets late prefetches be modelled: a
//! demand access that finds a line still in flight completes when the fill
//! arrives rather than at the hit latency.
//!
//! # Storage layout and the MRU fast path
//!
//! Ways live in a single contiguous allocation with the per-way fields
//! split SoA-style (`tags` / `valid_at` / `lru`), indexed `set * ways +
//! way`, so a set probe is one short linear scan of adjacent tags instead
//! of chasing a per-set heap `Vec`. On top of that the default (fast)
//! mode keeps the most-recently-used way of every set and services
//! re-touches of it without scanning or re-stamping: the MRU way already
//! holds its set's maximum LRU stamp, so skipping the stamp preserves the
//! within-set recency *order* — the only thing victim selection ever
//! reads. The naive mode ([`Cache::new_naive`]) reproduces the seed
//! implementation's bookkeeping exactly (clock tick on every lookup,
//! re-stamp on every hit) and is kept as the test reference for
//! `tests/hierarchy_equiv.rs`.

use crate::config::CacheConfig;
use crate::mshr::MshrFile;

/// Sentinel tag marking an empty way. Real tags are line addresses
/// (`addr / 64`), which can never reach `u64::MAX`.
const TAG_EMPTY: u64 = u64::MAX;

/// What a lookup found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Present with data available; completes at `ready`.
    Hit {
        /// Cycle the data is available to the requester.
        ready: u64,
    },
    /// Not present.
    Miss,
}

/// Internal lookup result carrying the hit way's flat slot index and raw
/// fill timestamp, so the hierarchy's line filter can memoize it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SlotLookup {
    Hit {
        ready: u64,
        slot: u32,
        valid_at: u64,
    },
    Miss,
}

/// One level of set-associative cache.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    num_sets: usize,
    /// `num_sets - 1` when the set count is a power of two (every Table I
    /// geometry), letting [`Cache::set_index`] mask instead of divide;
    /// `u64::MAX` otherwise.
    set_mask: u64,
    ways: usize,
    /// Per-way tags (`set * ways + way`); [`TAG_EMPTY`] marks empty ways.
    tags: Box<[u64]>,
    /// Absolute cycle each way's data is present (fills in flight have
    /// `valid_at` in the future).
    valid_at: Box<[u64]>,
    /// LRU stamps (higher = more recently used; 0 = never filled).
    lru: Box<[u64]>,
    /// Most-recently-used way per set; the fast path probes it first.
    mru: Box<[u32]>,
    /// Seed-exact bookkeeping (full scan + re-stamp on every hit).
    naive: bool,
    lru_clock: u64,
    /// Bumped on every fill; generation-invalidates line-filter entries.
    generation: u64,
    /// MSHRs guarding this level's misses.
    pub mshrs: MshrFile,
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
}

impl Cache {
    /// Builds an empty cache for a configuration (fast lookup mode).
    pub fn new(cfg: CacheConfig) -> Self {
        Self::with_mode(cfg, false)
    }

    /// Builds the test reference: an empty cache that scans and stamps
    /// exactly like the seed implementation. Only the naive
    /// [`Hierarchy::with_naive_lookup`](crate::Hierarchy::with_naive_lookup)
    /// and the equivalence tests build it.
    pub fn new_naive(cfg: CacheConfig) -> Self {
        Self::with_mode(cfg, true)
    }

    fn with_mode(cfg: CacheConfig, naive: bool) -> Self {
        let num_sets = cfg.num_sets();
        let ways = cfg.ways;
        let lines = num_sets * ways;
        let mshrs = MshrFile::new(cfg.mshrs);
        Cache {
            cfg,
            num_sets,
            set_mask: if num_sets.is_power_of_two() {
                num_sets as u64 - 1
            } else {
                u64::MAX
            },
            ways,
            tags: vec![TAG_EMPTY; lines].into_boxed_slice(),
            valid_at: vec![0; lines].into_boxed_slice(),
            lru: vec![0; lines].into_boxed_slice(),
            mru: vec![0; num_sets].into_boxed_slice(),
            naive,
            lru_clock: 0,
            generation: 0,
            mshrs,
            hits: 0,
            misses: 0,
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Hit latency of this level.
    pub fn latency(&self) -> u64 {
        self.cfg.latency
    }

    /// Fill/evict generation; any change invalidates memoized slot
    /// indices and fill timestamps held outside the cache.
    pub(crate) fn generation(&self) -> u64 {
        self.generation
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        if self.set_mask != u64::MAX {
            (line & self.set_mask) as usize
        } else {
            (line % self.num_sets as u64) as usize
        }
    }

    /// Looks up `line` at `cycle`, updating LRU and hit/miss counters.
    ///
    /// On a hit the completion cycle accounts for both the hit latency and
    /// an in-flight fill (`valid_at`).
    pub fn lookup(&mut self, line: u64, cycle: u64) -> Lookup {
        match self.lookup_slot(line, cycle) {
            SlotLookup::Hit { ready, .. } => Lookup::Hit { ready },
            SlotLookup::Miss => Lookup::Miss,
        }
    }

    /// [`Cache::lookup`] plus the hit way's slot identity for memoization.
    #[inline]
    pub(crate) fn lookup_slot(&mut self, line: u64, cycle: u64) -> SlotLookup {
        let lat = self.cfg.latency;
        let set = self.set_index(line);
        let base = set * self.ways;
        if self.naive {
            // Seed-exact: the clock ticks on every lookup and every hit
            // re-stamps, reproducing the seed's absolute LRU stamps.
            self.lru_clock += 1;
            for w in 0..self.ways {
                let i = base + w;
                if self.tags[i] == line {
                    self.lru[i] = self.lru_clock;
                    self.hits += 1;
                    let va = self.valid_at[i];
                    return SlotLookup::Hit {
                        ready: (cycle + lat).max(va),
                        slot: i as u32,
                        valid_at: va,
                    };
                }
            }
            self.misses += 1;
            return SlotLookup::Miss;
        }
        // Fast path: a re-touch of the MRU way needs no bookkeeping at
        // all — it already holds the set's maximum stamp.
        let m = base + self.mru[set] as usize;
        if self.tags[m] == line {
            self.hits += 1;
            let va = self.valid_at[m];
            return SlotLookup::Hit {
                ready: (cycle + lat).max(va),
                slot: m as u32,
                valid_at: va,
            };
        }
        for w in 0..self.ways {
            let i = base + w;
            if self.tags[i] == line {
                self.lru_clock += 1;
                self.lru[i] = self.lru_clock;
                self.mru[set] = w as u32;
                self.hits += 1;
                let va = self.valid_at[i];
                return SlotLookup::Hit {
                    ready: (cycle + lat).max(va),
                    slot: i as u32,
                    valid_at: va,
                };
            }
        }
        self.misses += 1;
        SlotLookup::Miss
    }

    /// Re-touches a way found via the hierarchy's line filter: counts the
    /// hit and restores MRU recency without a tag scan.
    pub(crate) fn filter_touch(&mut self, slot: u32) {
        self.hits += 1;
        let slot = slot as usize;
        let set = slot / self.ways;
        let way = (slot % self.ways) as u32;
        if self.mru[set] != way {
            self.lru_clock += 1;
            self.lru[slot] = self.lru_clock;
            self.mru[set] = way;
        }
    }

    /// Checks presence without perturbing LRU or counters (for tests and
    /// prefetch-duplicate suppression).
    pub fn probe(&self, line: u64) -> bool {
        let base = self.set_index(line) * self.ways;
        self.tags[base..base + self.ways].contains(&line)
    }

    /// Installs `line`, arriving at absolute cycle `valid_at`; evicts LRU.
    pub fn fill(&mut self, line: u64, valid_at: u64) {
        self.generation += 1;
        self.lru_clock += 1;
        let set = self.set_index(line);
        let base = set * self.ways;
        // Refill of a present line (e.g. prefetch racing demand): refresh.
        for w in 0..self.ways {
            let i = base + w;
            if self.tags[i] == line {
                self.valid_at[i] = self.valid_at[i].min(valid_at);
                self.lru[i] = self.lru_clock;
                self.mru[set] = w as u32;
                return;
            }
        }
        // First way with the minimal stamp; empty ways keep stamp 0,
        // matching the seed's `if valid { lru } else { 0 }` victim key.
        let mut victim = 0usize;
        let mut victim_key = self.lru[base];
        for w in 1..self.ways {
            let k = self.lru[base + w];
            if k < victim_key {
                victim = w;
                victim_key = k;
            }
        }
        let i = base + victim;
        self.tags[i] = line;
        self.valid_at[i] = valid_at;
        self.lru[i] = self.lru_clock;
        self.mru[set] = victim as u32;
    }

    /// Demand miss ratio so far.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways, latency 4, 4 mshrs
        Cache::new(CacheConfig {
            size_bytes: 4 * 64,
            ways: 2,
            latency: 4,
            mshrs: 4,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert_eq!(c.lookup(100, 10), Lookup::Miss);
        c.fill(100, 50);
        match c.lookup(100, 60) {
            Lookup::Hit { ready } => assert_eq!(ready, 64),
            other => panic!("{other:?}"),
        }
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn hit_on_inflight_fill_waits_for_valid_at() {
        let mut c = tiny();
        c.fill(100, 500); // prefetch in flight
        match c.lookup(100, 100) {
            Lookup::Hit { ready } => assert_eq!(ready, 500),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        let mut c = tiny();
        // lines 0 and 2 map to set 0 (2 sets); line 4 also maps to set 0.
        c.fill(0, 0);
        c.fill(2, 0);
        let _ = c.lookup(0, 10); // touch 0, so 2 is LRU
        c.fill(4, 20);
        assert!(c.probe(0));
        assert!(!c.probe(2));
        assert!(c.probe(4));
    }

    #[test]
    fn refill_of_present_line_does_not_duplicate() {
        let mut c = tiny();
        c.fill(100, 10);
        c.fill(100, 999);
        // The line remains valid and valid_at keeps the earlier arrival.
        match c.lookup(100, 20) {
            Lookup::Hit { ready } => assert_eq!(ready, 24),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn miss_ratio_tracks_counters() {
        let mut c = tiny();
        let _ = c.lookup(0, 0);
        c.fill(0, 0);
        let _ = c.lookup(0, 1);
        assert!((c.miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mru_retouch_preserves_replacement_order() {
        // Touch the MRU way many times (fast path, no stamping), then
        // check the victim is still the other, least-recently-used way.
        let mut c = tiny();
        c.fill(0, 0); // set 0, becomes MRU
        c.fill(2, 0); // set 0, becomes MRU
        for t in 0..32 {
            // Alternate so both ways take MRU turns; end on line 0.
            let _ = c.lookup(2, t);
            let _ = c.lookup(0, t);
            let _ = c.lookup(0, t); // MRU re-touch, fast path
        }
        c.fill(4, 100); // must evict 2, the non-MRU way
        assert!(c.probe(0));
        assert!(!c.probe(2));
        assert!(c.probe(4));
        assert_eq!(c.hits, 96);
    }

    #[test]
    fn naive_mode_matches_fast_mode_decisions() {
        let mut fast = tiny();
        let mut naive = Cache::new_naive(fast.config().clone());
        let mut x = 0x9E37_79B9u64;
        for t in 0..2000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let line = x % 12;
            if x.is_multiple_of(5) {
                fast.fill(line, t + x % 50);
                naive.fill(line, t + x % 50);
            } else {
                assert_eq!(fast.lookup(line, t), naive.lookup(line, t), "cycle {t}");
            }
            assert_eq!(fast.probe(line), naive.probe(line));
        }
        assert_eq!(fast.hits, naive.hits);
        assert_eq!(fast.misses, naive.misses);
    }

    #[test]
    fn generation_bumps_on_every_fill() {
        let mut c = tiny();
        let g0 = c.generation();
        c.fill(7, 0);
        c.fill(7, 5); // refresh also invalidates memoized timestamps
        assert_eq!(c.generation(), g0 + 2);
        let _ = c.lookup(7, 10);
        assert_eq!(c.generation(), g0 + 2, "lookups must not bump");
    }
}
