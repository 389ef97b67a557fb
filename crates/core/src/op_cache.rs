//! Process-wide operating-point cache for [`PathDistribution`] builds.
//!
//! Every sweep in the experiment suite probes the same handful of
//! `(node, path length, vdd)` operating points — Table 1 and Table 2
//! alone revisit each voltage across four nodes, and the margining/DSE
//! bisections land on identical probe voltages across experiment modules.
//! Before this cache each [`crate::DatapathEngine`] owned a private map, so
//! fifteen experiment modules repeated identical 24×12 Gauss–Hermite
//! builds. [`OpPointCache`] shares them process-wide.
//!
//! # Keying and the custom-parameter escape hatch
//!
//! Entries are keyed by `(TechNode, path_length, vdd.to_bits())`. A
//! distribution does not depend on the [`crate::engine::VariationMode`]
//! (the mode only decides how an engine samples it), so engines of every
//! mode share one entry per operating point. The key deliberately does
//! **not** encode the full [`DeviceParams`] (hashing 14 floats per lookup
//! would cost more than the lookup); instead, [`OpPointCache::shared_for`]
//! hands the global cache only to engines whose parameters are exactly the
//! node's calibrated set, and gives every custom-parameter engine
//! (σ-scaling ablations, what-if studies) a private instance.
//! [`OpPointCache::get_or_build`] re-asserts this invariant on the global
//! instance, so a mis-shared cache panics rather than silently serving a
//! wrong distribution.
//!
//! # Locking discipline
//!
//! Two-level: an `RwLock` guards only the key → cell map, and each cell is
//! an `Arc` whose `OnceLock` owns the one-time build. The map lock is
//! never held across a build, so concurrent builders of *different*
//! operating points proceed in parallel, while racing builders of the
//! *same* point block on that entry's `OnceLock` alone and observe a
//! single shared distribution — request coalescing falls out of the Arc
//! identity: any number of concurrent queries for one operating point
//! attach to the one in-flight build. Values are pure functions of the key
//! (plus the calibrated parameters the key implies), so cache hits are
//! bit-identical to fresh builds and the cache cannot perturb any
//! deterministic-replay contract.
//!
//! # Bounding and eviction
//!
//! A long-running service (`ntv-serve`) faces millions of *distinct*
//! operating points — every client-chosen voltage is its own key — so the
//! cache accepts an optional resident bound ([`OpPointCache::set_bound`]).
//! Eviction is least-recently-used on a logical access clock (a monotone
//! `u64` tick per lookup, never wall time): when an insert pushes the
//! resident count over the bound, the built entries with the smallest
//! last-use ticks are dropped. Three
//! invariants keep eviction invisible to results:
//!
//! * **Values are pure.** An evicted-and-rebuilt entry is bit-identical to
//!   the original (pinned by test), so responses cannot depend on cache
//!   history.
//! * **In-flight builds are never evicted.** A cell whose `OnceLock` is
//!   still empty has waiters parked on it; eviction skips unbuilt cells,
//!   so coalesced queries always observe the build they attached to (the
//!   resident count may transiently exceed the bound by the number of
//!   in-flight builds, and each landing build re-runs the sweep so the
//!   excess drains immediately).
//! * **Out-standing `Arc`s survive.** Eviction drops the map's reference
//!   only; a caller still holding a distribution keeps it alive.
//!
//! Hit/miss/evict/coalesced counters (plain relaxed atomics — they order
//! nothing) are exposed through [`OpPointCache::stats`] for the serve
//! layer's `/stats` endpoint and the `perf` benchmark.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use ntv_device::{DeviceParams, TechModel, TechNode};
use ntv_units::Volts;

use crate::engine::PathDistribution;

type Key = (TechNode, usize, u64);

/// Sentinel for "no resident bound" in the packed capacity word.
const UNBOUNDED: usize = usize::MAX;

/// One cache cell: the one-time build plus its last-use tick.
#[derive(Debug, Default)]
struct CacheEntry {
    /// The one-time build; racers of the same key park here.
    cell: OnceLock<Arc<PathDistribution>>,
    /// Logical access clock value of the most recent lookup.
    ///
    /// All accesses are `Relaxed`: the tick is advisory LRU metadata, read
    /// only under the map's write lock to pick an eviction victim. A store
    /// that races the sweep can at worst evict a just-touched entry early,
    /// and rebuilds are bit-identical, so no ordering can change a result.
    last_use: AtomicU64,
}

/// A point-in-time snapshot of the cache's behaviour counters.
///
/// Counters are cumulative since the cache was created; `resident` is the
/// current number of fully built entries (in-flight builds excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an already-built entry.
    pub hits: u64,
    /// Lookups that built the entry themselves.
    pub misses: u64,
    /// Built entries dropped by the LRU bound.
    pub evictions: u64,
    /// Lookups that attached to another caller's in-flight build instead
    /// of racing it (single-flight coalescing).
    pub coalesced: u64,
    /// Fully built entries currently resident.
    pub resident: usize,
}

/// Shared cache of built [`PathDistribution`]s, one entry per operating
/// point. See the module docs for keying, locking and eviction discipline.
#[derive(Debug, Default)]
pub struct OpPointCache {
    entries: RwLock<BTreeMap<Key, Arc<CacheEntry>>>,
    /// Resident bound; [`UNBOUNDED`] disables eviction. Default unbounded:
    /// the experiment suite touches a few hundred points at most.
    ///
    /// `Relaxed` everywhere: the bound is a standalone configuration cell
    /// that publishes nothing else, and [`Self::set_bound`] documents that
    /// a change takes effect at the *next* insert — a sweep reading the
    /// old value is within contract.
    bound: AtomicUsize,
    /// Logical access clock: one tick per lookup, never wall time, so the
    /// eviction order is a pure function of the access sequence.
    ///
    /// `Relaxed` is enough for monotonicity: `fetch_add` on a single cell
    /// has a total modification order, so ticks never repeat or go
    /// backwards; nothing is published through the clock.
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    coalesced: AtomicU64,
}

impl OpPointCache {
    /// An empty, unbounded private cache (for engines with non-calibrated
    /// parameters).
    #[must_use]
    pub fn new() -> Self {
        let cache = Self::default();
        cache.bound.store(UNBOUNDED, Ordering::Relaxed);
        cache
    }

    /// Install or clear the resident bound. `None` disables eviction;
    /// lowering the bound takes effect at the next insert (the cache does
    /// not shrink eagerly).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is `Some(0)`.
    pub fn set_bound(&self, bound: Option<usize>) {
        assert!(
            bound != Some(0),
            "OpPointCache bound must be at least 1: a cache that can hold \
             nothing cannot satisfy the exactly-once build contract"
        );
        self.bound
            .store(bound.unwrap_or(UNBOUNDED), Ordering::Relaxed);
    }

    /// The current resident bound, if any.
    #[must_use]
    pub fn bound(&self) -> Option<usize> {
        match self.bound.load(Ordering::Relaxed) {
            UNBOUNDED => None,
            n => Some(n),
        }
    }

    /// A point-in-time snapshot of the hit/miss/evict/coalesced counters
    /// and the resident entry count.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            resident: self.len(),
        }
    }

    /// The process-wide cache shared by every engine running a node's
    /// calibrated parameter set.
    #[must_use]
    pub fn global() -> &'static Arc<OpPointCache> {
        static GLOBAL: OnceLock<Arc<OpPointCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(OpPointCache::new()))
    }

    /// The cache an engine over `tech` should use: the global instance when
    /// `tech` carries its node's calibrated parameters, a fresh private one
    /// otherwise (custom parameters are not part of the cache key).
    #[must_use]
    pub fn shared_for(tech: &TechModel) -> Arc<OpPointCache> {
        if *tech.params() == DeviceParams::for_node(tech.node()) {
            Arc::clone(Self::global())
        } else {
            Arc::new(Self::new())
        }
    }

    /// Assert the global-instance parameter invariant (see module docs).
    fn assert_calibrated(&self, tech: &TechModel) {
        assert!(
            !std::ptr::eq(self, Arc::as_ptr(Self::global()))
                || *tech.params() == DeviceParams::for_node(tech.node()),
            "global OpPointCache used with custom device parameters for {:?}",
            tech.node()
        );
    }

    /// Next logical clock tick (monotone across threads).
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Drop least-recently-used *built* entries until the resident count
    /// is back under the bound. Caller holds the map write lock; no build
    /// ever runs in here.
    fn evict_over_bound(&self, entries: &mut BTreeMap<Key, Arc<CacheEntry>>) {
        let bound = self.bound.load(Ordering::Relaxed);
        if bound == UNBOUNDED {
            return;
        }
        // In-flight (unbuilt) cells are pinned: waiters are parked on them.
        while entries.len() > bound {
            let victim = entries
                .iter()
                .filter(|(_, e)| e.cell.get().is_some())
                .min_by_key(|(key, e)| (e.last_use.load(Ordering::Relaxed), **key))
                .map(|(&key, _)| key);
            let Some(key) = victim else {
                // Everything over the bound is in-flight; the transient
                // excess drains as those builds land and later inserts
                // re-run eviction.
                return;
            };
            entries.remove(&key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The distribution for `(tech.node(), path_length, vdd)`,
    /// building it exactly once per *residency*: concurrent callers of a
    /// resident key share one build (racers park on the entry's
    /// `OnceLock`), and only eviction can make a later call rebuild — to a
    /// bit-identical value, since the distribution is a pure function of
    /// the key.
    ///
    /// # Panics
    ///
    /// Panics if called on the global instance with a `tech` whose
    /// parameters differ from the node's calibrated set — such engines
    /// must use a private cache (see [`Self::shared_for`]).
    #[must_use]
    pub fn get_or_build(
        &self,
        tech: &TechModel,
        vdd: Volts,
        path_length: usize,
    ) -> Arc<PathDistribution> {
        self.assert_calibrated(tech);
        let key = (tech.node(), path_length, vdd.get().to_bits());
        let tick = self.tick();
        let entry = self
            .entries
            .read() // map lock guards a pure memo; never held across a build
            // ntv:allow(panic-path): poisoned only if a writer panicked; propagating is correct
            .expect("op-point cache lock")
            .get(&key)
            .cloned();
        let entry = match entry {
            Some(entry) => entry,
            None => {
                let mut entries = self
                    .entries
                    .write() // map lock guards a pure memo; never held across a build
                    // ntv:allow(panic-path): poisoned only if a writer panicked; propagating is correct
                    .expect("op-point cache lock");
                let len_before = entries.len();
                let entry = Arc::clone(entries.entry(key).or_default());
                if entries.len() > len_before {
                    self.evict_over_bound(&mut entries);
                }
                entry
            }
        };
        entry.last_use.store(tick, Ordering::Relaxed);
        let already_built = entry.cell.get().is_some();
        // Build outside both map locks; same-key racers park on this
        // entry's OnceLock only.
        let mut built_here = false;
        #[expect(
            clippy::disallowed_methods,
            reason = "the cache's own build site; every other caller shares it"
        )]
        let dist = Arc::clone(entry.cell.get_or_init(|| {
            built_here = true;
            Arc::new(PathDistribution::build(tech, vdd, path_length))
        }));
        let counter = if built_here {
            &self.misses
        } else if already_built {
            &self.hits
        } else {
            // The cell existed (or we raced its insert) and someone else's
            // build completed while we were parked: a coalesced query.
            &self.coalesced
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if built_here {
            // A landed build may have been what an earlier insert's
            // eviction pass had to skip as in-flight; sweep again so the
            // resident count settles back under the bound without waiting
            // for the next insert.
            self.sweep_if_over_bound();
        }
        dist
    }

    /// Re-run eviction if the map has grown past the bound (entered after
    /// a build lands, when previously in-flight cells become evictable).
    fn sweep_if_over_bound(&self) {
        let bound = self.bound.load(Ordering::Relaxed);
        if bound == UNBOUNDED {
            return;
        }
        let over = self
            .entries
            .read()
            // ntv:allow(panic-path): poisoned only if a writer panicked; propagating is correct
            .expect("op-point cache lock")
            .len()
            > bound;
        if over {
            let mut entries = self
                .entries
                .write() // map lock guards a pure memo; never held across a build
                // ntv:allow(panic-path): poisoned only if a writer panicked; propagating is correct
                .expect("op-point cache lock");
            self.evict_over_bound(&mut entries);
        }
    }

    /// Number of cached operating points (fully built entries only).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
            .read()
            // ntv:allow(panic-path): poisoned only if a writer panicked; propagating is correct
            .expect("op-point cache lock")
            .values()
            .filter(|entry| entry.cell.get().is_some())
            .count()
    }

    /// Whether the cache holds no fully built entry.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatapathConfig;
    use crate::engine::{DatapathEngine, VariationMode};

    #[test]
    fn same_operating_point_is_shared_across_engines() {
        let tech = TechModel::new(TechNode::Gp90);
        let config = DatapathConfig::paper_default();
        let a = DatapathEngine::new(&tech, config);
        let b = DatapathEngine::new(&tech, config);
        let da = a.path_distribution(Volts(0.7125));
        let db = b.path_distribution(Volts(0.7125));
        assert!(Arc::ptr_eq(&da, &db), "engines must share built entries");
        // The distribution does not depend on the variation mode, so
        // engines of every mode share the one entry.
        for mode in [VariationMode::SkewedIid, VariationMode::Hierarchical] {
            let engine = DatapathEngine::with_mode(&tech, config, mode);
            let d = engine.path_distribution(Volts(0.7125));
            assert!(Arc::ptr_eq(&da, &d), "{mode:?} must share the entry");
        }
    }

    #[test]
    fn distinct_shapes_get_distinct_entries() {
        let tech = TechModel::new(TechNode::Gp45);
        let short = DatapathEngine::new(&tech, DatapathConfig::new(128, 100, 10));
        let long = DatapathEngine::new(&tech, DatapathConfig::new(128, 100, 50));
        let ds = short.path_distribution(Volts(0.8));
        let dl = long.path_distribution(Volts(0.8));
        assert!(!Arc::ptr_eq(&ds, &dl));
        assert!(dl.mean_ps() > ds.mean_ps());
    }

    #[test]
    fn custom_parameters_use_a_private_cache() {
        let defaults = TechModel::new(TechNode::Gp90);
        let scaled =
            TechModel::from_params(DeviceParams::for_node(TechNode::Gp90).with_sigma_scale(2.0));
        assert!(Arc::ptr_eq(
            &OpPointCache::shared_for(&defaults),
            OpPointCache::global()
        ));
        assert!(!Arc::ptr_eq(
            &OpPointCache::shared_for(&scaled),
            OpPointCache::global()
        ));
        // And the private cache serves values reflecting the custom σ.
        let tech = TechModel::new(TechNode::Gp90);
        let base = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let wide = DatapathEngine::new(&scaled, DatapathConfig::paper_default());
        let d0 = base.path_distribution(Volts(0.6));
        let d2 = wide.path_distribution(Volts(0.6));
        assert!(d2.std_ps() > 1.5 * d0.std_ps());
    }

    #[test]
    fn global_cache_rejects_custom_parameters() {
        let scaled =
            TechModel::from_params(DeviceParams::for_node(TechNode::Gp45).with_sigma_scale(0.5));
        let result = std::panic::catch_unwind(|| {
            OpPointCache::global().get_or_build(&scaled, Volts(0.6), 50)
        });
        assert!(result.is_err(), "mis-shared global cache must panic");
    }

    #[test]
    fn cached_value_is_bit_identical_to_fresh_build() {
        let tech = TechModel::new(TechNode::PtmHp22);
        let cache = OpPointCache::new();
        let cached = cache.get_or_build(&tech, Volts(0.55), 50);
        #[expect(
            clippy::disallowed_methods,
            reason = "the cached value is compared with a fresh build"
        )]
        let fresh = PathDistribution::build(&tech, Volts(0.55), 50);
        assert_eq!(cached.mean_ps().to_bits(), fresh.mean_ps().to_bits());
        assert_eq!(cached.std_ps().to_bits(), fresh.std_ps().to_bits());
        for g in [1e-6, 1e-3, 0.01, 0.5, 0.99] {
            assert_eq!(
                cached.quantile_by_survival(g).to_bits(),
                fresh.quantile_by_survival(g).to_bits()
            );
        }
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let tech = TechModel::new(TechNode::Gp90);
        let cache = OpPointCache::new();
        cache.set_bound(Some(2));
        let volts = [Volts(0.52), Volts(0.54), Volts(0.56)];
        let _a = cache.get_or_build(&tech, volts[0], 50);
        let _b = cache.get_or_build(&tech, volts[1], 50);
        assert_eq!(cache.len(), 2);
        // Touch A so B becomes the LRU victim when C is inserted.
        let _a2 = cache.get_or_build(&tech, volts[0], 50);
        let _c = cache.get_or_build(&tech, volts[2], 50);
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 1);
        // B was evicted: rebuilding it is a miss that in turn evicts A
        // (tick 3, now the least recently used); C (tick 4) survives.
        let before = cache.stats().misses;
        let _b2 = cache.get_or_build(&tech, volts[1], 50);
        assert_eq!(cache.stats().misses, before + 1);
        let hits_before = cache.stats().hits;
        let _c2 = cache.get_or_build(&tech, volts[2], 50);
        assert_eq!(cache.stats().hits, hits_before + 1);
    }

    #[test]
    fn evicted_and_rebuilt_entries_are_bit_identical() {
        let tech = TechModel::new(TechNode::Gp45);
        let cache = OpPointCache::new();
        cache.set_bound(Some(1));
        let first = cache.get_or_build(&tech, Volts(0.58), 50);
        // Force eviction by inserting a second point, then rebuild.
        let _other = cache.get_or_build(&tech, Volts(0.62), 50);
        let rebuilt = cache.get_or_build(&tech, Volts(0.58), 50);
        assert!(
            !Arc::ptr_eq(&first, &rebuilt),
            "entry must have been evicted and rebuilt"
        );
        assert_eq!(first.mean_ps().to_bits(), rebuilt.mean_ps().to_bits());
        assert_eq!(first.std_ps().to_bits(), rebuilt.std_ps().to_bits());
        for g in [1e-6, 1e-3, 0.01, 0.5, 0.99] {
            assert_eq!(
                first.quantile_by_survival(g).to_bits(),
                rebuilt.quantile_by_survival(g).to_bits()
            );
        }
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let tech = TechModel::new(TechNode::PtmHp32);
        let cache = OpPointCache::new();
        assert_eq!(cache.stats(), CacheStats::default());
        let _ = cache.get_or_build(&tech, Volts(0.6), 50);
        let _ = cache.get_or_build(&tech, Volts(0.6), 50);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.evictions, 0);
        assert_eq!(stats.resident, 1);
    }

    #[test]
    fn bound_is_validated_and_adjustable() {
        let cache = OpPointCache::new();
        assert_eq!(cache.bound(), None);
        cache.set_bound(Some(8));
        assert_eq!(cache.bound(), Some(8));
        cache.set_bound(None);
        assert_eq!(cache.bound(), None);
        let result = std::panic::catch_unwind(|| cache.set_bound(Some(0)));
        assert!(result.is_err(), "zero bound must be rejected");
    }
}
