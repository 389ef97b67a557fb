//! Order-statistics helpers.
//!
//! The chip delay of an N-wide SIMD datapath is the **maximum** over N lane
//! delays, each of which is the maximum over ~100 critical-path delays
//! (paper §3.2). Structural duplication (§4.1) drops the α slowest of
//! `128 + α` lanes, i.e. takes the 128-th *smallest* order statistic. This
//! module provides:
//!
//! * O(1) sampling of `max(X₁..Xₙ)` for i.i.d. normal `Xᵢ` via the inverse
//!   CDF (`F_max = Φⁿ` ⇒ `max = Φ⁻¹(U^{1/n})`),
//! * k-th order statistic selection from a sample.

use crate::normal;
use crate::rng::CounterDraws;
#[cfg(test)]
use crate::rng::CounterRng;

/// Sample the maximum of `n` i.i.d. `N(mean, std_dev²)` variables in O(1).
///
/// Exact in distribution: if `U ~ Uniform(0,1)` then `Φ⁻¹(U^{1/n})` has the
/// distribution of the maximum of `n` standard normals.
///
/// # Panics
///
/// Panics if `n == 0` or `std_dev < 0`.
///
/// # Example
///
/// ```
/// use ntv_mc::{order, rng::CounterRng};
/// let mut rng = CounterRng::new(1, "example").at(0);
/// let m = order::sample_max_normal(&mut rng, 100, 0.0, 1.0);
/// assert!(m.is_finite());
/// ```
pub fn sample_max_normal(rng: &mut CounterDraws, n: usize, mean: f64, std_dev: f64) -> f64 {
    assert!(n > 0, "maximum of zero variables is undefined");
    assert!(std_dev >= 0.0, "standard deviation must be non-negative");
    if std_dev == 0.0 {
        return mean;
    }
    let u = rng.uniform_open();
    mean + std_dev * normal::quantile(max_cdf_target(u, n))
}

/// CDF target `u^{1/n}` of the maximum of `n` i.i.d. draws, computed in log
/// space and clamped into the open interval quantile functions accept.
///
/// If `U ~ Uniform(0,1)` then `F⁻¹(U^{1/n})` is distributed as the maximum
/// of `n` i.i.d. variables with CDF `F`; the same expression with a fixed
/// probability `p` in place of `U` gives the exact `p`-quantile of the
/// maximum. The log-space form stays accurate for `n` up to 10⁹ and for
/// subnormal `u`, where a naive `u.powf(1.0 / n)` loses all precision.
///
/// The dual survival-side target is [`max_survival_target`]; the two are
/// deliberately *not* derived from one another (`1 − x` would destroy the
/// sub-epsilon resolution each side carries near its own end).
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn max_cdf_target(u: f64, n: usize) -> f64 {
    assert!(n > 0, "maximum of zero variables is undefined");
    debug_assert!(u > 0.0 && u < 1.0, "probability must lie in (0,1)");
    // u^(1/n) computed in log space to stay accurate for large n.
    let p = (u.ln() / n as f64).exp();
    // Guard against p rounding to exactly 1.0 for tiny n and u ≈ 1.
    let p = p.min(1.0 - f64::EPSILON);
    p.max(f64::MIN_POSITIVE)
}

/// Survival target `1 − u^{1/n}` of the maximum of `n` i.i.d. draws,
/// computed stably via `−expm1(ln(u)/n)` and floored at the smallest
/// positive normal so inverse-survival lookups never receive exact zero.
///
/// For large `n`, `1 − u^{1/n} ≈ −ln(u)/n` shrinks far below `f64::EPSILON`;
/// the `expm1` form keeps full relative precision there where computing
/// `1.0 − max_cdf_target(u, n)` would cancel to zero. This is the shared
/// implementation of the survival-side max trick used by grid-based
/// inverse-survival samplers.
///
/// # Panics
///
/// Panics if `n == 0`.
#[must_use]
pub fn max_survival_target(u: f64, n: usize) -> f64 {
    assert!(n > 0, "maximum of zero variables is undefined");
    debug_assert!(u > 0.0 && u < 1.0, "probability must lie in (0,1)");
    (-(u.ln() / n as f64).exp_m1()).max(f64::MIN_POSITIVE)
}

/// k-th smallest element (0-based) of a sample, by partial selection.
///
/// # Panics
///
/// Panics if `k >= samples.len()`.
#[must_use]
// ntv:allow(test-only-api): the selection oracle of duplication's spares-ladder pins, tests/props.rs::kth_smallest_matches_sorting and analytic_equivalence's bootstrap quantiles
pub fn kth_smallest(samples: &[f64], k: usize) -> f64 {
    assert!(k < samples.len(), "order statistic index out of range");
    let mut v = samples.to_vec();
    let (_, kth, _) = v.select_nth_unstable_by(k, |a, b| a.total_cmp(b));
    *kth
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn sample_max_matches_brute_force_distribution() {
        let mut fast = CounterRng::new(10, "sample_max_matches_brute_force_distribution").at(0);
        let mut slow = CounterRng::new(11, "sample_max_matches_brute_force_distribution").at(0);
        let n = 50;
        let fast_stats: Summary = (0..20_000)
            .map(|_| sample_max_normal(&mut fast, n, 0.0, 1.0))
            .collect();
        let slow_stats: Summary = (0..20_000)
            .map(|_| {
                (0..n)
                    .map(|_| slow.standard_normal())
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        assert!(
            (fast_stats.mean() - slow_stats.mean()).abs() < 0.02,
            "fast {} slow {}",
            fast_stats.mean(),
            slow_stats.mean()
        );
        assert!((fast_stats.std_dev() - slow_stats.std_dev()).abs() < 0.02);
    }

    #[test]
    fn sample_max_of_one_is_plain_normal() {
        let mut rng = CounterRng::new(3, "sample_max_of_one_is_plain_normal").at(0);
        let s: Summary = (0..50_000)
            .map(|_| sample_max_normal(&mut rng, 1, 2.0, 3.0))
            .collect();
        assert!((s.mean() - 2.0).abs() < 0.05);
        assert!((s.std_dev() - 3.0).abs() < 0.05);
    }

    #[test]
    fn sample_max_zero_sigma() {
        let mut rng = CounterRng::new(4, "sample_max_zero_sigma").at(0);
        assert_eq!(sample_max_normal(&mut rng, 10, 5.0, 0.0), 5.0);
    }

    #[test]
    fn kth_smallest_selects_correctly() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(kth_smallest(&v, 0), 1.0);
        assert_eq!(kth_smallest(&v, 2), 3.0);
        assert_eq!(kth_smallest(&v, 4), 5.0);
    }

    #[test]
    #[should_panic(expected = "maximum of zero")]
    fn max_of_zero_vars_rejected() {
        let mut rng = CounterRng::new(0, "max_of_zero_vars_rejected").at(0);
        let _ = sample_max_normal(&mut rng, 0, 0.0, 1.0);
    }

    #[test]
    fn max_targets_are_complementary_for_moderate_inputs() {
        for &n in &[1usize, 2, 7, 100, 12_800] {
            for &u in &[0.01, 0.1, 0.5, 0.9, 0.99] {
                let p = max_cdf_target(u, n);
                let g = max_survival_target(u, n);
                assert!(p > 0.0 && p < 1.0);
                assert!(g > 0.0 && g < 1.0);
                assert!((p + g - 1.0).abs() < 1e-14, "n={n} u={u}: {p} + {g}");
            }
        }
    }

    #[test]
    fn max_survival_target_keeps_precision_at_extreme_n() {
        // 1 − u^{1/n} ≈ −ln(u)/n for huge n; the expm1 form keeps full
        // relative precision where the naive 1.0 − powf subtraction is
        // quantised to half-ulps of 1.0 (~7 significant digits at n = 10⁹).
        for &n in &[1_000_000usize, 1_000_000_000] {
            let g = max_survival_target(0.5, n);
            let expect = std::f64::consts::LN_2 / n as f64;
            assert!((g / expect - 1.0).abs() < 1e-6, "n={n}: {g} vs {expect}");
        }
    }

    #[test]
    fn max_cdf_target_handles_subnormal_u() {
        // Smallest positive subnormal: ln is finite, so the log-space root
        // is exact where powf underflows its intermediate.
        let u = f64::from_bits(1);
        let p = max_cdf_target(u, 10);
        assert!(p > 0.0 && p.is_finite());
        assert!((p.ln() - u.ln() / 10.0).abs() < 1e-12 * u.ln().abs());
        let g = max_survival_target(u, 10);
        assert!(g > 1.0 - 1e-12 && g <= 1.0);
    }

    #[test]
    fn max_targets_are_clamped_into_the_open_interval() {
        // u → 1⁻ with n = 1 would round the CDF target to exactly 1.0
        // without the clamp, and the survival floor keeps grid lookups off
        // exact zero.
        let u = 1.0 - f64::EPSILON / 2.0;
        assert!(max_cdf_target(u, 1) <= 1.0 - f64::EPSILON);
        assert!(max_survival_target(u, 1) >= f64::MIN_POSITIVE);
        assert!(max_cdf_target(f64::MIN_POSITIVE, 1) >= f64::MIN_POSITIVE);
    }

    #[test]
    fn max_targets_are_monotone_in_u() {
        for &n in &[1usize, 100, 12_800] {
            let mut prev_p = 0.0;
            let mut prev_g = 1.0;
            for i in 1..200 {
                let u = f64::from(i) / 200.0;
                let p = max_cdf_target(u, n);
                let g = max_survival_target(u, n);
                assert!(p >= prev_p, "cdf target not monotone at n={n} u={u}");
                assert!(g <= prev_g, "survival target not monotone at n={n} u={u}");
                prev_p = p;
                prev_g = g;
            }
        }
    }

    #[test]
    #[should_panic(expected = "maximum of zero")]
    fn max_survival_target_rejects_zero_n() {
        let _ = max_survival_target(0.5, 0);
    }
}
