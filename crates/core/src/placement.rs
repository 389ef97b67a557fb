//! Spare placement: global vs local sparing (paper §4.1, Appendix D,
//! Fig 12).
//!
//! *Local* sparing groups lanes into clusters with dedicated spares (e.g.
//! Synctium's one spare per four lanes): simple routing, but a cluster with
//! more faults than spares cannot be repaired. *Global* sparing pools all
//! spares behind the XRAM crossbar and survives any failure pattern of up
//! to `spares` lanes. With per-lane failure probability `p`, both repair
//! probabilities are exact binomial expressions, computed here and checked
//! by Monte Carlo.

use ntv_mc::CounterDraws;

/// A spare-placement scheme for a `lanes`-wide array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SparePlacement {
    /// All spares pooled; any ≤ `spares` failures are repairable
    /// (requires crossbar bypass — Appendix D).
    Global {
        /// Total spare lanes.
        spares: u32,
    },
    /// Lanes split into clusters of `cluster_size`, each with its own
    /// `spares_per_cluster` spares; a cluster fails if it has more faulty
    /// lanes than local spares.
    Local {
        /// Lanes per cluster.
        cluster_size: u32,
        /// Spares dedicated to each cluster.
        spares_per_cluster: u32,
    },
}

/// Binomial CDF `P(X ≤ k)` for `X ~ Bin(n, p)`, by stable iterative pmf.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
#[must_use]
pub fn binomial_cdf(n: u32, p: f64, k: u32) -> f64 {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    if k >= n {
        return 1.0;
    }
    // Degenerate endpoints (p is already confined to [0, 1] above).
    if p <= 0.0 {
        return 1.0;
    }
    if p >= 1.0 {
        return 0.0; // k < n and all trials fail.
    }
    let q = 1.0 - p;
    // pmf(0) = q^n computed in log space for tiny values.
    let mut pmf = (f64::from(n) * q.ln()).exp();
    let mut cdf = pmf;
    for i in 0..k {
        let i_f = f64::from(i);
        // ntv:allow(reduction-order): binomial pmf ratio recurrence — the product order is the definition
        pmf *= (f64::from(n) - i_f) / (i_f + 1.0) * (p / q);
        // ntv:allow(reduction-order): running CDF over the loop-carried pmf; cannot be split without materializing terms
        cdf += pmf;
    }
    cdf.min(1.0)
}

/// Probability that a `lanes`-wide array with this placement can be fully
/// repaired when each physical lane independently fails with probability
/// `p_fail`.
///
/// Failures are counted over *all* physical lanes (used + spare) of the
/// relevant pool, matching the test-time flow: every lane is screened and
/// the array needs `lanes` (or `cluster_size`) good ones per pool.
///
/// # Panics
///
/// Panics if `p_fail` is outside `[0, 1]`, or for a local scheme whose
/// cluster size does not divide `lanes`.
#[must_use]
pub fn repair_probability(placement: SparePlacement, lanes: u32, p_fail: f64) -> f64 {
    match placement {
        SparePlacement::Global { spares } => binomial_cdf(lanes + spares, p_fail, spares),
        SparePlacement::Local {
            cluster_size,
            spares_per_cluster,
        } => {
            assert!(
                cluster_size > 0 && lanes.is_multiple_of(cluster_size),
                "cluster size {cluster_size} must divide the lane count {lanes}"
            );
            let clusters = lanes / cluster_size;
            let per_cluster = binomial_cdf(
                cluster_size + spares_per_cluster,
                p_fail,
                spares_per_cluster,
            );
            per_cluster.powi(clusters as i32)
        }
    }
}

/// Monte-Carlo estimate of [`repair_probability`] (validation helper).
#[must_use]
pub fn mc_repair_probability(
    placement: SparePlacement,
    lanes: u32,
    p_fail: f64,
    trials: usize,
    rng: &mut CounterDraws,
) -> f64 {
    assert!((0.0..=1.0).contains(&p_fail), "probability out of range");
    let mut ok = 0usize;
    for _ in 0..trials {
        let repaired = match placement {
            SparePlacement::Global { spares } => {
                let failures = (0..lanes + spares)
                    .filter(|_| rng.uniform() < p_fail)
                    .count();
                failures <= spares as usize
            }
            SparePlacement::Local {
                cluster_size,
                spares_per_cluster,
            } => {
                let clusters = lanes / cluster_size;
                (0..clusters).all(|_| {
                    let failures = (0..cluster_size + spares_per_cluster)
                        .filter(|_| rng.uniform() < p_fail)
                        .count();
                    failures <= spares_per_cluster as usize
                })
            }
        };
        ok += usize::from(repaired);
    }
    ok as f64 / trials as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntv_mc::CounterRng;

    #[test]
    fn binomial_cdf_known_values() {
        // Bin(4, 0.5): P(X<=1) = (1+4)/16 = 0.3125.
        assert!((binomial_cdf(4, 0.5, 1) - 0.3125).abs() < 1e-12);
        assert_eq!(binomial_cdf(4, 0.5, 4), 1.0);
        assert_eq!(binomial_cdf(10, 0.0, 0), 1.0);
        assert_eq!(binomial_cdf(10, 1.0, 9), 0.0);
    }

    #[test]
    fn global_beats_local_with_equal_spares() {
        // Appendix D: one spare per 4-lane cluster cannot cover two faults
        // in one cluster; a global pool of the same 32 spares can.
        let local = SparePlacement::Local {
            cluster_size: 4,
            spares_per_cluster: 1,
        };
        let global = SparePlacement::Global { spares: 32 };
        for p in [0.01, 0.05, 0.1, 0.2] {
            let pl = repair_probability(local, 128, p);
            let pg = repair_probability(global, 128, p);
            assert!(pg > pl, "p={p}: global {pg} vs local {pl}");
        }
    }

    #[test]
    fn analytic_matches_monte_carlo() {
        let mut rng = CounterRng::new(8, "analytic_matches_monte_carlo").at(0);
        for placement in [
            SparePlacement::Global { spares: 8 },
            SparePlacement::Local {
                cluster_size: 8,
                spares_per_cluster: 1,
            },
        ] {
            let analytic = repair_probability(placement, 64, 0.05);
            let mc = mc_repair_probability(placement, 64, 0.05, 40_000, &mut rng);
            assert!(
                (analytic - mc).abs() < 0.01,
                "{placement:?}: {analytic} vs {mc}"
            );
        }
    }

    #[test]
    fn repair_probability_extremes() {
        let g = SparePlacement::Global { spares: 4 };
        assert_eq!(repair_probability(g, 16, 0.0), 1.0);
        assert!(repair_probability(g, 16, 1.0) < 1e-9);
    }

    #[test]
    fn more_spares_help() {
        let mut prev = 0.0;
        for spares in [0u32, 2, 4, 8, 16] {
            let p = repair_probability(SparePlacement::Global { spares }, 128, 0.03);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn bad_cluster_size_rejected() {
        let local = SparePlacement::Local {
            cluster_size: 5,
            spares_per_cluster: 1,
        };
        let _ = repair_probability(local, 128, 0.1);
    }
}
