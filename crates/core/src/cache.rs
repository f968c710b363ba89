//! Content-addressed solve cache with reverse-annealing warm starts.
//!
//! The paper's workload is repetitive by construction: fuzzing and
//! symbolic-execution frontends recompile string-constraint scripts into
//! structurally identical or near-identical QUBOs. [`SolveCache`] exploits
//! that on two levels (see `docs/CACHING.md` for the full architecture):
//!
//! 1. **Exact hits** — keyed by [`ModelFingerprint::exact`]. Two models
//!    with equal exact keys have identical energy landscapes, so the
//!    cached sample set is replayed through the deterministic
//!    post-selection path and the answer is bit-identical to a fresh
//!    solve, with zero sampling. Entries remember the read budget and
//!    seed they were computed under: a request with a *larger* read
//!    budget than the cached solve is not answered from cache (it falls
//!    through to the warm path), and replays disclose the originating
//!    configuration in the report.
//! 2. **Warm starts** — keyed by the coefficient-blind
//!    [`ModelFingerprint::shape`]. A structurally identical model with
//!    different coefficients seeds reverse annealing
//!    ([`SimulatedAnnealer::with_initial_state`]) from the cached ground
//!    state, refining a near-solution with a short, moderately hot
//!    schedule instead of a full cold anneal.
//!
//! Every level is a bounded least-recently-used map; `capacity == 0`
//! disables the cache entirely. Lookups, hits, misses, and warm starts
//! are published as unlabeled `qsmt_cache_*` series through the global
//! metrics registry (`docs/OBSERVABILITY.md`).
//!
//! [`SimulatedAnnealer::with_initial_state`]: qsmt_anneal::SimulatedAnnealer::with_initial_state

use qsmt_anneal::SampleSet;
use qsmt_qubo::ModelFingerprint;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A cached exact-hit entry: the full sample set of a completed solve,
/// plus the read budget and seed it was computed under so lookups can
/// honor (and reports can disclose) the originating configuration.
struct ExactEntry {
    samples: SampleSet,
    reads: u64,
    seed: u64,
    last_used: u64,
}

/// A cached warm-start seed: the lowest-energy state a completed solve
/// reached for this shape, reusable as a reverse-annealing start point.
struct ShapeEntry {
    num_vars: usize,
    state: Vec<u8>,
    last_used: u64,
}

/// What a cache lookup found.
pub enum CacheLookup {
    /// Exact-key hit: replaying this sample set through post-selection
    /// reproduces the original answer bit-for-bit, no sampling needed.
    /// Only returned when the cached read budget covers the requester's,
    /// so a replay never silently under-delivers solve quality.
    Exact {
        /// The cached sample set, ready for post-selection.
        samples: SampleSet,
        /// Read budget the cached solve ran with (≥ the requester's).
        reads: u64,
        /// Seed the cached solve ran with — disclosed in the report so
        /// a replay under a different per-job seed is visible.
        seed: u64,
    },
    /// Shape-key hit: this ground state seeds a reverse anneal.
    Warm(Vec<u8>),
    /// Nothing cached for either key.
    Miss,
}

/// Bounded, content-addressed cache of solve results and warm-start
/// seeds. Thread-safe; one instance is shared across all workers of a
/// solve service.
pub struct SolveCache {
    exact: Mutex<HashMap<u64, ExactEntry>>,
    shape: Mutex<HashMap<u64, ShapeEntry>>,
    capacity: usize,
    tick: AtomicU64,
}

impl SolveCache {
    /// Creates a cache holding at most `capacity` entries per level
    /// (exact results, warm-start seeds). A capacity of zero
    /// disables every level: lookups miss, inserts are dropped.
    pub fn new(capacity: usize) -> Self {
        let reg = qsmt_metrics::global();
        reg.describe(
            "qsmt_cache_hits_total",
            "Cache lookups that found a usable entry (exact or shape key)",
        );
        reg.describe(
            "qsmt_cache_exact_hits_total",
            "Cache lookups answered verbatim from a cached sample set",
        );
        reg.describe(
            "qsmt_cache_warm_starts_total",
            "Cache lookups that seeded a reverse anneal from a cached ground state",
        );
        reg.describe(
            "qsmt_cache_misses_total",
            "Cache lookups that found nothing usable",
        );
        reg.describe(
            "qsmt_cache_entries",
            "Exact-key result entries currently cached",
        );
        reg.describe(
            "qsmt_cache_lookup_us",
            "Cache lookup latency in microseconds",
        );
        Self {
            exact: Mutex::new(HashMap::new()),
            shape: Mutex::new(HashMap::new()),
            capacity,
            tick: AtomicU64::new(0),
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Looks up a model by fingerprint. `reads` is the requester's read
    /// budget: an exact entry cached under a *smaller* budget is not
    /// replayed (it would silently under-deliver solve quality) and the
    /// lookup falls through to the warm path, which samples at the
    /// requested budget. `allow_warm` gates the shape-key fallback:
    /// callers whose sampler cannot accept an initial state pass
    /// `false`, and a shape hit is then counted (truthfully) as a miss.
    /// Publishes `qsmt_cache_*` lookup metrics.
    pub fn lookup(
        &self,
        fp: ModelFingerprint,
        num_vars: usize,
        reads: u64,
        allow_warm: bool,
    ) -> CacheLookup {
        let start = Instant::now();
        let result = self.lookup_inner(fp, num_vars, reads, allow_warm);
        let reg = qsmt_metrics::global();
        reg.histogram_observe(
            "qsmt_cache_lookup_us",
            &[],
            start.elapsed().as_micros() as f64,
        );
        match &result {
            CacheLookup::Exact { .. } => {
                reg.counter_add("qsmt_cache_hits_total", &[], 1.0);
                reg.counter_add("qsmt_cache_exact_hits_total", &[], 1.0);
            }
            CacheLookup::Warm(_) => {
                reg.counter_add("qsmt_cache_hits_total", &[], 1.0);
                reg.counter_add("qsmt_cache_warm_starts_total", &[], 1.0);
            }
            CacheLookup::Miss => {
                reg.counter_add("qsmt_cache_misses_total", &[], 1.0);
            }
        }
        result
    }

    fn lookup_inner(
        &self,
        fp: ModelFingerprint,
        num_vars: usize,
        reads: u64,
        allow_warm: bool,
    ) -> CacheLookup {
        let tick = self.next_tick();
        {
            let mut exact = self.exact.lock().expect("solve cache poisoned");
            if let Some(entry) = exact.get_mut(&fp.exact) {
                // A cached sample set computed under a smaller read
                // budget than requested is not a usable answer; fall
                // through to the warm path, which honors the budget.
                if entry.reads >= reads {
                    entry.last_used = tick;
                    return CacheLookup::Exact {
                        samples: entry.samples.clone(),
                        reads: entry.reads,
                        seed: entry.seed,
                    };
                }
            }
        }
        if allow_warm {
            let mut shape = self.shape.lock().expect("solve cache poisoned");
            if let Some(entry) = shape.get_mut(&fp.shape) {
                // Equal shape keys imply equal num_vars (the hash absorbs
                // the dimension); the check is a collision guard.
                if entry.num_vars == num_vars {
                    entry.last_used = tick;
                    return CacheLookup::Warm(entry.state.clone());
                }
            }
        }
        CacheLookup::Miss
    }

    /// Caches a completed solve: the full sample set under the exact key
    /// and its lowest-energy state as a warm-start seed under the shape
    /// key. `seed` is the RNG seed the solve ran with; the read budget
    /// is taken from the sample set itself. Callers must not insert
    /// cancelled (stop-flagged) partial results — a truncated sample set
    /// would replay as a worse answer than a fresh solve. Updates the
    /// `qsmt_cache_entries` gauge.
    pub fn insert(&self, fp: ModelFingerprint, num_vars: usize, seed: u64, samples: &SampleSet) {
        if self.capacity == 0 {
            return;
        }
        let Some(best) = samples.best() else {
            return; // nothing to replay or seed from
        };
        let seed_state = best.state.clone();
        let tick = self.next_tick();
        let entries = {
            let mut exact = self.exact.lock().expect("solve cache poisoned");
            if !exact.contains_key(&fp.exact) && exact.len() >= self.capacity {
                evict_coldest(&mut exact, |e| e.last_used);
            }
            exact.insert(
                fp.exact,
                ExactEntry {
                    samples: samples.clone(),
                    reads: samples.total_reads() as u64,
                    seed,
                    last_used: tick,
                },
            );
            exact.len()
        };
        {
            let mut shape = self.shape.lock().expect("solve cache poisoned");
            if !shape.contains_key(&fp.shape) && shape.len() >= self.capacity {
                evict_coldest(&mut shape, |e| e.last_used);
            }
            shape.insert(
                fp.shape,
                ShapeEntry {
                    num_vars,
                    state: seed_state,
                    last_used: tick,
                },
            );
        }
        qsmt_metrics::global().gauge_set("qsmt_cache_entries", &[], entries as f64);
    }

    /// Number of exact-key result entries currently cached.
    pub fn len(&self) -> usize {
        self.exact.lock().expect("solve cache poisoned").len()
    }

    /// True when no results are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for SolveCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveCache")
            .field("capacity", &self.capacity)
            .field("entries", &self.len())
            .finish()
    }
}

/// Removes the entry with the smallest LRU tick. O(n) scan — capacities
/// are small and bounded, so pointer-chasing LRU lists buy nothing.
fn evict_coldest<V>(map: &mut HashMap<u64, V>, last_used: impl Fn(&V) -> u64) {
    if let Some(&coldest) = map.iter().min_by_key(|(_, v)| last_used(v)).map(|(k, _)| k) {
        map.remove(&coldest);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsmt_qubo::QuboModel;

    fn fp(tag: u64) -> ModelFingerprint {
        // Distinct synthetic fingerprints; exact and shape move together.
        ModelFingerprint {
            exact: tag,
            shape: tag.wrapping_mul(31).wrapping_add(7),
        }
    }

    fn samples(state: Vec<u8>, energy: f64) -> SampleSet {
        SampleSet::from_reads(vec![(state, energy)])
    }

    #[test]
    fn exact_hit_returns_the_cached_sample_set() {
        let cache = SolveCache::new(8);
        let set = samples(vec![1, 0, 1], -3.0);
        cache.insert(fp(1), 3, 7, &set);
        match cache.lookup(fp(1), 3, 1, true) {
            CacheLookup::Exact {
                samples: cached,
                reads,
                seed,
            } => {
                assert_eq!(cached, set);
                assert_eq!(reads, 1);
                assert_eq!(seed, 7);
            }
            _ => panic!("expected exact hit"),
        }
    }

    #[test]
    fn exact_hits_honor_the_read_budget() {
        let cache = SolveCache::new(8);
        // Cached under a 2-read budget.
        let set = SampleSet::from_reads(vec![(vec![1, 0], -1.0), (vec![0, 1], 3.0)]);
        cache.insert(fp(9), 2, 0, &set);
        // Asking for more reads than the entry carries must not replay
        // it — the warm path (same shape entry) honors the budget.
        assert!(matches!(
            cache.lookup(fp(9), 2, 3, true),
            CacheLookup::Warm(_)
        ));
        assert!(matches!(
            cache.lookup(fp(9), 2, 3, false),
            CacheLookup::Miss
        ));
        // Equal or smaller budgets are served from cache.
        assert!(matches!(
            cache.lookup(fp(9), 2, 2, true),
            CacheLookup::Exact { .. }
        ));
        assert!(matches!(
            cache.lookup(fp(9), 2, 1, true),
            CacheLookup::Exact { .. }
        ));
    }

    #[test]
    fn shape_hit_yields_the_ground_state_as_seed() {
        let cache = SolveCache::new(8);
        let set = SampleSet::from_reads(vec![(vec![1, 1, 0], 2.0), (vec![0, 1, 1], -5.0)]);
        cache.insert(fp(2), 3, 0, &set);
        // Same shape, different exact key: a coefficient change.
        let near = ModelFingerprint {
            exact: 999,
            shape: fp(2).shape,
        };
        match cache.lookup(near, 3, 1, true) {
            CacheLookup::Warm(state) => assert_eq!(state, vec![0, 1, 1]),
            _ => panic!("expected warm hit"),
        }
    }

    #[test]
    fn warm_hits_are_suppressed_when_disallowed() {
        let cache = SolveCache::new(8);
        cache.insert(fp(3), 2, 0, &samples(vec![1, 0], 0.0));
        let near = ModelFingerprint {
            exact: 777,
            shape: fp(3).shape,
        };
        assert!(matches!(cache.lookup(near, 2, 1, false), CacheLookup::Miss));
    }

    #[test]
    fn lru_evicts_the_coldest_result() {
        let cache = SolveCache::new(2);
        cache.insert(fp(1), 1, 0, &samples(vec![0], 0.0));
        cache.insert(fp(2), 1, 0, &samples(vec![1], 1.0));
        // Touch entry 1 so entry 2 is coldest, then overflow.
        assert!(matches!(
            cache.lookup(fp(1), 1, 1, true),
            CacheLookup::Exact { .. }
        ));
        cache.insert(fp(3), 1, 0, &samples(vec![0], 2.0));
        assert_eq!(cache.len(), 2);
        assert!(matches!(
            cache.lookup(fp(1), 1, 1, true),
            CacheLookup::Exact { .. }
        ));
        assert!(matches!(
            cache.lookup(fp(2), 1, 1, false),
            CacheLookup::Miss
        ));
        assert!(matches!(
            cache.lookup(fp(3), 1, 1, true),
            CacheLookup::Exact { .. }
        ));
    }

    #[test]
    fn zero_capacity_disables_everything() {
        let cache = SolveCache::new(0);
        cache.insert(fp(1), 1, 0, &samples(vec![1], 0.0));
        assert!(cache.is_empty());
        assert!(matches!(cache.lookup(fp(1), 1, 1, true), CacheLookup::Miss));
    }

    #[test]
    fn empty_sample_sets_are_not_cached() {
        let cache = SolveCache::new(4);
        cache.insert(fp(1), 1, 0, &SampleSet::from_reads(vec![]));
        assert!(cache.is_empty());
    }

    #[test]
    fn real_fingerprints_route_exact_vs_shape() {
        let mut a = QuboModel::new(2);
        a.add_linear(0, -1.0);
        a.add_quadratic(0, 1, 2.0);
        let mut b = a.clone();
        b.scale(3.0); // same shape, different exact

        let cache = SolveCache::new(4);
        cache.insert(a.fingerprint(), 2, 0, &samples(vec![1, 0], -1.0));
        assert!(matches!(
            cache.lookup(a.fingerprint(), 2, 1, true),
            CacheLookup::Exact { .. }
        ));
        assert!(matches!(
            cache.lookup(b.fingerprint(), 2, 1, true),
            CacheLookup::Warm(_)
        ));
    }
}
