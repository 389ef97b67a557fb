//! Concurrency stress test for the operating-point cache.
//!
//! Several OS threads look up *overlapping* voltage grids in one cache at
//! once, each from its own rotation, so every operating point is raced by
//! every thread. The two-level locking discipline must guarantee that
//! every operating point is built exactly once — every observer sees the
//! same shared `Arc` — and that cached values stay bit-identical to a
//! fresh serial build.

use std::sync::Arc;

use ntv_core::engine::PathDistribution;
use ntv_core::OpPointCache;
use ntv_device::{TechModel, TechNode};
use ntv_units::Volts;

const PATH_LENGTH: usize = 50;
const THREADS: usize = 8;

fn grid() -> Vec<Volts> {
    (0..6).map(|i| Volts(0.50 + 0.03 * f64::from(i))).collect()
}

#[test]
fn racing_lookups_build_each_point_exactly_once() {
    let tech = TechModel::new(TechNode::PtmHp32);
    let cache = Arc::new(OpPointCache::new());
    let volts = grid();

    // Each thread walks the full grid starting at its own rotation and
    // records the entry Arc it observes for each grid point.
    let per_thread: Vec<Vec<Arc<PathDistribution>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let cache = Arc::clone(&cache);
                let tech = &tech;
                let volts = &volts;
                s.spawn(move || {
                    let n = volts.len();
                    let mut seen: Vec<_> = (0..n)
                        .map(|k| cache.get_or_build(tech, volts[(t + k) % n], PATH_LENGTH))
                        .collect();
                    // Back to grid order: seen[k] was volts[(t + k) % n].
                    seen.rotate_right(t % n);
                    seen
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stress thread panicked"))
            .collect()
    });

    // Exactly one fully built entry per grid point, built once each.
    assert_eq!(cache.len(), volts.len());
    assert_eq!(cache.stats().misses, volts.len() as u64);

    // Every thread observed the same shared entry per operating point.
    let first = &per_thread[0];
    for observed in &per_thread[1..] {
        for (a, b) in first.iter().zip(observed) {
            assert!(
                Arc::ptr_eq(a, b),
                "racing builders produced distinct entries"
            );
        }
    }

    // Cached values are bit-identical to a fresh serial build.
    for (i, &vdd) in volts.iter().enumerate() {
        #[expect(
            clippy::disallowed_methods,
            reason = "the cached values are compared with a fresh build"
        )]
        let fresh = PathDistribution::build(&tech, vdd, PATH_LENGTH);
        let cached = &first[i];
        assert_eq!(cached.mean_ps().to_bits(), fresh.mean_ps().to_bits());
        assert_eq!(cached.std_ps().to_bits(), fresh.std_ps().to_bits());
        for g in [1e-6, 1e-3, 0.01, 0.5, 0.99] {
            assert_eq!(
                cached.quantile_by_survival(g).to_bits(),
                fresh.quantile_by_survival(g).to_bits(),
                "quantile mismatch at vdd {vdd:?} survival {g}"
            );
        }
    }
}
