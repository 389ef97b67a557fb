//! Concurrency contract of the bounded [`OpPointCache`]: N threads racing
//! `get_or_build` over an overlapping voltage grid larger than the cache
//! bound must (a) build each *resident* entry exactly once — racers
//! coalesce onto the in-flight build instead of duplicating it — and
//! (b) return values bit-identical to an unbounded cache, no matter how
//! the eviction sequence interleaves.

use std::sync::Arc;

use ntv_core::OpPointCache;
use ntv_device::{TechModel, TechNode};
use ntv_units::Volts;

const PATH_LENGTH: usize = 50;

/// The overlapping probe grid: more points than the bounded cache holds.
fn grid() -> Vec<Volts> {
    (0..12).map(|i| Volts(0.50 + 0.02 * f64::from(i))).collect()
}

/// Deterministic per-thread walk over the grid (a small LCG so threads
/// overlap on different schedules without sharing an iteration order).
fn walk(thread: u64, steps: usize, len: usize) -> Vec<usize> {
    let mut state = thread.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    (0..steps)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % len
        })
        .collect()
}

#[test]
fn racing_threads_coalesce_onto_one_build_per_resident_entry() {
    let tech = TechModel::new(TechNode::Gp90);
    let cache = OpPointCache::new();
    let volts = grid();
    const THREADS: u64 = 8;
    const STEPS: usize = 64;

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = &cache;
            let tech = &tech;
            let volts = &volts;
            scope.spawn(move || {
                for idx in walk(t, STEPS, volts.len()) {
                    let _ = cache.get_or_build(tech, volts[idx], PATH_LENGTH);
                }
            });
        }
    });

    let stats = cache.stats();
    // Unbounded: nothing is ever evicted, so "exactly once per resident
    // entry" means exactly one build per distinct operating point, with
    // every other lookup a hit or a coalesced wait.
    assert_eq!(stats.evictions, 0);
    assert_eq!(
        stats.misses,
        volts.len() as u64,
        "duplicate builds: {stats:?}"
    );
    assert_eq!(stats.resident, volts.len());
    assert_eq!(
        stats.hits + stats.coalesced + stats.misses,
        THREADS * STEPS as u64,
        "every lookup must be classified exactly once: {stats:?}"
    );
}

#[test]
fn bounded_cache_race_is_bit_identical_to_unbounded() {
    let tech = TechModel::new(TechNode::Gp90);
    let volts = grid();
    const BOUND: usize = 4;
    const THREADS: u64 = 8;
    const STEPS: usize = 96;

    // Reference values from an unbounded cache (itself pinned elsewhere to
    // equal fresh builds bit-for-bit).
    let reference = OpPointCache::new();
    let expected: Vec<_> = volts
        .iter()
        .map(|&v| reference.get_or_build(&tech, v, PATH_LENGTH))
        .collect();

    let cache = OpPointCache::with_bound(BOUND);
    let mut worker_results: Vec<Vec<(usize, u64, u64)>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = &cache;
                let tech = &tech;
                let volts = &volts;
                scope.spawn(move || {
                    walk(t, STEPS, volts.len())
                        .into_iter()
                        .map(|idx| {
                            let d = cache.get_or_build(tech, volts[idx], PATH_LENGTH);
                            (idx, d.mean_ps().to_bits(), d.std_ps().to_bits())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            worker_results.push(handle.join().expect("race worker panicked"));
        }
    });

    for (idx, mean_bits, std_bits) in worker_results.into_iter().flatten() {
        assert_eq!(
            expected[idx].mean_ps().to_bits(),
            mean_bits,
            "vdd index {idx}"
        );
        assert_eq!(
            expected[idx].std_ps().to_bits(),
            std_bits,
            "vdd index {idx}"
        );
    }

    let stats = cache.stats();
    // The grid is three times the bound, so eviction must actually have
    // happened, rebuilds and all — the bit-identity above covered the
    // interesting interleavings.
    assert!(
        stats.evictions > 0,
        "grid must overflow the bound: {stats:?}"
    );
    assert!(
        stats.misses >= volts.len() as u64,
        "each point is built at least once: {stats:?}"
    );
    assert!(stats.resident <= BOUND, "bound violated: {stats:?}");
    assert_eq!(
        stats.hits + stats.coalesced + stats.misses,
        THREADS * STEPS as u64
    );
    // Drained in-flight builds: every map entry is built, so the resident
    // count equals the bound exactly after an overflowing workload.
    assert_eq!(stats.resident, BOUND);
}

/// Arc identity still holds under the bound: two immediate lookups of the
/// same point return the same allocation unless an eviction intervened.
#[test]
fn arc_identity_between_evictions() {
    let tech = TechModel::new(TechNode::Gp45);
    let cache = OpPointCache::with_bound(2);
    let a = cache.get_or_build(&tech, Volts(0.57), PATH_LENGTH);
    let b = cache.get_or_build(&tech, Volts(0.57), PATH_LENGTH);
    assert!(Arc::ptr_eq(&a, &b));
}
