//! Gauss–Hermite quadrature for expectations under a normal distribution.
//!
//! The fast architecture-level delay engine needs, per Monte-Carlo chip
//! sample, the conditional mean and variance of a single gate's delay given
//! the chip's systematic variation — an expectation of a nonlinear delay
//! model over the *random* per-device threshold deviation. An 16-point
//! Gauss–Hermite rule evaluates that to near machine precision at a cost of
//! 16 delay-model calls, which is what makes 10 000-chip sweeps interactive.

use std::sync::OnceLock;

/// Highest order [`GaussHermite::shared`] keeps a process-wide table for.
const MAX_SHARED_ORDER: usize = 64;

/// A physicists' Gauss–Hermite rule of order `n`: nodes `xᵢ` and weights
/// `wᵢ` such that `∫ f(x)·exp(−x²) dx ≈ Σ wᵢ f(xᵢ)`.
///
/// Use [`GaussHermite::expect_normal`] for expectations under `N(μ, σ²)`.
///
/// # Example
///
/// ```
/// use ntv_mc::quadrature::GaussHermite;
/// let gh = GaussHermite::new(16);
/// // E[X²] for X ~ N(0, 1) is 1.
/// let m2 = gh.expect_normal(0.0, 1.0, |x| x * x);
/// assert!((m2 - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GaussHermite {
    nodes: Vec<f64>,
    weights: Vec<f64>,
}

impl GaussHermite {
    /// Construct the rule of order `n` by Newton iteration on the Hermite
    /// recurrence (the classical `gauher` algorithm).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the Newton iteration fails to converge
    /// (does not happen for any practical `n ≤ 128`).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "quadrature order must be positive");
        const EPS: f64 = 3.0e-14;
        const PIM4: f64 = 0.751_125_544_464_943; // π^(-1/4)
        const MAX_IT: usize = 64;

        let mut nodes = vec![0.0_f64; n];
        let mut weights = vec![0.0_f64; n];
        let m = n.div_ceil(2);
        let nf = n as f64;
        let mut z = 0.0_f64;
        for i in 0..m {
            // Initial guesses from Numerical Recipes.
            z = match i {
                0 => (2.0 * nf + 1.0).sqrt() - 1.85575 * (2.0 * nf + 1.0).powf(-1.0 / 6.0),
                1 => z - 1.14 * nf.powf(0.426) / z,
                2 => 1.86 * z - 0.86 * nodes[0],
                3 => 1.91 * z - 0.91 * nodes[1],
                _ => 2.0 * z - nodes[i - 2],
            };
            let mut pp = 0.0;
            let mut converged = false;
            for _ in 0..MAX_IT {
                let mut p1 = PIM4;
                let mut p2 = 0.0;
                for j in 0..n {
                    let p3 = p2;
                    p2 = p1;
                    let jf = j as f64;
                    p1 = z * (2.0 / (jf + 1.0)).sqrt() * p2 - (jf / (jf + 1.0)).sqrt() * p3;
                }
                pp = (2.0 * nf).sqrt() * p2;
                let z1 = z;
                z = z1 - p1 / pp;
                if (z - z1).abs() <= EPS {
                    converged = true;
                    break;
                }
            }
            assert!(converged, "Gauss-Hermite Newton iteration did not converge");
            nodes[i] = z;
            // ntv:allow(panic-path): n-1-i < n because i < ceil(n/2), and both vecs hold n slots
            nodes[n - 1 - i] = -z;
            weights[i] = 2.0 / (pp * pp);
            // ntv:allow(panic-path): same mirror-index bound as the nodes store above
            weights[n - 1 - i] = weights[i];
        }
        Self { nodes, weights }
    }

    /// The process-wide rule of order `n`: built by [`GaussHermite::new`]
    /// on the first call for that order, then shared, so a constant table
    /// costs one build per process instead of one per use. The nodes and
    /// weights equal a fresh `GaussHermite::new(n)` bit for bit (pinned by
    /// test).
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or above 64.
    ///
    /// # Example
    ///
    /// ```
    /// use ntv_mc::quadrature::GaussHermite;
    /// assert!(std::ptr::eq(GaussHermite::shared(16), GaussHermite::shared(16)));
    /// assert_eq!(GaussHermite::shared(16).nodes().len(), 16);
    /// ```
    #[must_use]
    pub fn shared(n: usize) -> &'static Self {
        static RULES: [OnceLock<GaussHermite>; MAX_SHARED_ORDER] =
            [const { OnceLock::new() }; MAX_SHARED_ORDER];
        RULES[Self::shared_slot(n)].get_or_init(|| Self::new(n))
    }

    /// Index of order `n` in [`shared`](Self::shared)'s table.
    fn shared_slot(n: usize) -> usize {
        assert!(
            (1..=MAX_SHARED_ORDER).contains(&n),
            "shared quadrature order must be in 1..={MAX_SHARED_ORDER}, got {n}"
        );
        n - 1
    }

    /// Quadrature nodes (descending).
    #[must_use]
    pub fn nodes(&self) -> &[f64] {
        &self.nodes
    }

    /// Quadrature weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Expectation `E[f(X)]` for `X ~ N(mean, std_dev²)`.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn expect_normal(&self, mean: f64, std_dev: f64, mut f: impl FnMut(f64) -> f64) -> f64 {
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        const INV_SQRT_PI: f64 = 0.564_189_583_547_756_3;
        let scale = std::f64::consts::SQRT_2 * std_dev;
        // Fixed-order accumulation over the node list, bit-identical to the
        // sequential loop this replaced (pinned by test below).
        let acc = crate::reduce::sum_ordered(
            self.nodes
                .iter()
                .zip(&self.weights)
                .map(|(&x, &w)| w * f(mean + scale * x)),
        );
        acc * INV_SQRT_PI
    }

    /// Mean and variance of `f(X)` for `X ~ N(mean, std_dev²)` in one pass.
    pub fn moments_normal(
        &self,
        mean: f64,
        std_dev: f64,
        mut f: impl FnMut(f64) -> f64,
    ) -> (f64, f64) {
        const INV_SQRT_PI: f64 = 0.564_189_583_547_756_3;
        let scale = std::f64::consts::SQRT_2 * std_dev;
        // One pass (f may be expensive or side-effecting), both accumulators
        // folded in fixed order — bit-identical to the paired `+=` loop.
        let (mut m1, mut m2) =
            crate::reduce::sum2_ordered(self.nodes.iter().zip(&self.weights).map(|(&x, &w)| {
                let v = f(mean + scale * x);
                (w * v, w * v * v)
            }));
        m1 *= INV_SQRT_PI;
        m2 *= INV_SQRT_PI;
        (m1, (m2 - m1 * m1).max(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_sqrt_pi() {
        for n in [1, 2, 5, 16, 32] {
            let gh = GaussHermite::new(n);
            let total: f64 = gh.weights().iter().sum();
            assert!(
                (total - std::f64::consts::PI.sqrt()).abs() < 1e-10,
                "order {n}: weight sum {total}"
            );
        }
    }

    #[test]
    fn nodes_are_symmetric() {
        let gh = GaussHermite::new(16);
        for i in 0..8 {
            assert!((gh.nodes()[i] + gh.nodes()[15 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn polynomial_moments_exact() {
        let gh = GaussHermite::new(8);
        // For X ~ N(0,1): E[X^k] = 0, 1, 0, 3, 0, 15 for k = 1..6.
        let expected = [0.0, 1.0, 0.0, 3.0, 0.0, 15.0];
        for (k, want) in expected.iter().enumerate() {
            let got = gh.expect_normal(0.0, 1.0, |x| x.powi(k as i32 + 1));
            assert!((got - want).abs() < 1e-9, "moment {}: {got}", k + 1);
        }
    }

    #[test]
    fn lognormal_mean_matches_closed_form() {
        let gh = GaussHermite::new(32);
        // E[exp(X)] for X ~ N(mu, sigma^2) = exp(mu + sigma^2/2).
        let (mu, sigma) = (0.2, 0.5);
        let got = gh.expect_normal(mu, sigma, f64::exp);
        let want = (mu + sigma * sigma / 2.0).exp();
        assert!((got - want).abs() < 1e-10);
    }

    #[test]
    fn moments_normal_consistent() {
        let gh = GaussHermite::new(24);
        let (m, v) = gh.moments_normal(1.0, 0.3, |x| 2.0 * x + 1.0);
        assert!((m - 3.0).abs() < 1e-10);
        assert!((v - (2.0_f64 * 0.3).powi(2)).abs() < 1e-10);
    }

    #[test]
    fn zero_sigma_degenerates_to_point_evaluation() {
        let gh = GaussHermite::new(8);
        let got = gh.expect_normal(2.5, 0.0, |x| x * x);
        assert!((got - 6.25).abs() < 1e-12);
    }

    /// Every order the library reads through [`GaussHermite::shared`]
    /// (12 and 24 for the systematic mixture, 16 for the per-device and
    /// regional rules): the shared table carries a fresh build's bits, and
    /// repeated calls return the one table built for the process.
    #[test]
    fn shared_tables_equal_fresh_builds_and_are_built_once() {
        for n in [12, 16, 24] {
            let shared = GaussHermite::shared(n);
            let fresh = GaussHermite::new(n);
            assert_eq!(shared.nodes().len(), n);
            for (a, b) in shared.nodes().iter().zip(fresh.nodes()) {
                assert_eq!(a.to_bits(), b.to_bits(), "order {n} node");
            }
            for (a, b) in shared.weights().iter().zip(fresh.weights()) {
                assert_eq!(a.to_bits(), b.to_bits(), "order {n} weight");
            }
            assert!(std::ptr::eq(shared, GaussHermite::shared(n)), "order {n}");
        }
        assert!(!std::ptr::eq(
            GaussHermite::shared(12),
            GaussHermite::shared(24)
        ));
    }

    #[test]
    #[should_panic(expected = "shared quadrature order must be in 1..=64, got 0")]
    fn shared_rejects_zero_order() {
        let _ = GaussHermite::shared(0);
    }

    #[test]
    #[should_panic(expected = "shared quadrature order must be in 1..=64, got 65")]
    fn shared_rejects_orders_past_the_table() {
        let _ = GaussHermite::shared(MAX_SHARED_ORDER + 1);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_rejected() {
        let _ = GaussHermite::new(0);
    }

    /// The `reduce::sum_ordered` migration must not move a single bit: the
    /// accumulation order over the node list is part of the published
    /// numbers.
    #[test]
    fn ordered_reduction_is_bit_identical_to_the_legacy_loops() {
        const INV_SQRT_PI: f64 = 0.564_189_583_547_756_3;
        let gh = GaussHermite::new(32);
        let (mean, std_dev) = (0.37, 1.9);
        let scale = std::f64::consts::SQRT_2 * std_dev;
        let f = |x: f64| (0.25 * x).exp() * (x * x + 0.5);

        let mut acc = 0.0;
        for (&x, &w) in gh.nodes().iter().zip(gh.weights()) {
            acc += w * f(mean + scale * x);
        }
        let legacy_expect = acc * INV_SQRT_PI;
        let got = gh.expect_normal(mean, std_dev, f);
        assert_eq!(got.to_bits(), legacy_expect.to_bits());

        let mut m1 = 0.0;
        let mut m2 = 0.0;
        for (&x, &w) in gh.nodes().iter().zip(gh.weights()) {
            let v = f(mean + scale * x);
            m1 += w * v;
            m2 += w * v * v;
        }
        m1 *= INV_SQRT_PI;
        m2 *= INV_SQRT_PI;
        let legacy_moments = (m1, (m2 - m1 * m1).max(0.0));
        let got = gh.moments_normal(mean, std_dev, f);
        assert_eq!(got.0.to_bits(), legacy_moments.0.to_bits());
        assert_eq!(got.1.to_bits(), legacy_moments.1.to_bits());
    }
}
