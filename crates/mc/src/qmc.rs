//! Quasi-Monte-Carlo support: the Halton low-discrepancy sequence.
//!
//! Extreme-quantile estimates (the paper's q99 chip delay) converge slowly
//! under plain Monte Carlo. A low-discrepancy stream fills the unit
//! interval far more evenly, cutting the quantile estimator's variance for
//! the one-dimensional maxima this workspace samples. The convergence
//! ablation in `ntv-bench` quantifies the win; the experiments default to
//! plain MC for like-for-like comparison with the paper.

use crate::normal;

/// A Halton low-discrepancy sequence in one dimension.
///
/// # Example
///
/// ```
/// use ntv_mc::qmc::Halton;
/// let mut h = Halton::new(2);
/// assert_eq!(h.next_point(), 0.5);
/// assert_eq!(h.next_point(), 0.25);
/// assert_eq!(h.next_point(), 0.75);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Halton {
    base: u64,
    index: u64,
}

impl Halton {
    /// Sequence with the given prime base, starting at index 1.
    ///
    /// # Panics
    ///
    /// Panics if `base < 2`.
    #[must_use]
    pub fn new(base: u64) -> Self {
        assert!(base >= 2, "Halton base must be at least 2");
        Self { base, index: 0 }
    }

    /// The radical-inverse value at a given index (1-based).
    #[must_use]
    pub fn at(&self, index: u64) -> f64 {
        let mut f = 1.0;
        let mut r = 0.0;
        let mut i = index;
        while i > 0 {
            f /= self.base as f64;
            // ntv:allow(reduction-order): radical-inverse digit recurrence — each term depends on the running scale f, not a reorderable sum
            r += f * (i % self.base) as f64;
            i /= self.base;
        }
        r
    }

    /// Next point in `(0, 1)`.
    pub fn next_point(&mut self) -> f64 {
        self.index += 1;
        self.at(self.index)
    }

    /// Next maximum-of-`n` standard normals (inverse-CDF of `Φⁿ`).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn next_max_normal(&mut self, n: usize) -> f64 {
        assert!(n > 0, "maximum of zero variables is undefined");
        let u = self
            .next_point()
            .clamp(f64::MIN_POSITIVE, 1.0 - f64::EPSILON);
        let p = (u.ln() / n as f64).exp().min(1.0 - f64::EPSILON);
        normal::quantile(p.max(f64::MIN_POSITIVE))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::Quantiles;
    use crate::rng::CounterRng;

    #[test]
    fn base2_prefix_is_the_van_der_corput_sequence() {
        let mut h = Halton::new(2);
        let got: Vec<f64> = (0..7).map(|_| h.next_point()).collect();
        let want = [0.5, 0.25, 0.75, 0.125, 0.625, 0.375, 0.875];
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-12);
        }
    }

    #[test]
    fn points_fill_the_interval_evenly() {
        let mut h = Halton::new(3);
        let n = 1000;
        let mut bins = [0usize; 10];
        for _ in 0..n {
            bins[((h.next_point() * 10.0) as usize).min(9)] += 1;
        }
        for &b in &bins {
            assert!((90..=110).contains(&b), "{bins:?}");
        }
    }

    #[test]
    fn qmc_quantile_beats_mc_at_equal_budget() {
        // Estimate the q99 of max-of-100 normals (true value ~3.72) with
        // 2000 points each way; QMC should land much closer.
        let true_q99 = normal::quantile(0.99_f64.powf(1.0 / 100.0));
        let n = 2000;

        let mut h = Halton::new(2);
        let qmc: Vec<f64> = (0..n).map(|_| h.next_max_normal(100)).collect();
        let qmc_err = (Quantiles::from_samples(qmc).q99() - true_q99).abs();

        let mut worst_mc_err = 0.0_f64;
        let mut mean_mc_err = 0.0;
        for seed in 0..5 {
            let mut rng = CounterRng::new(seed, "qmc_quantile_beats_mc_at_equal_budget").at(0);
            let mc: Vec<f64> = (0..n)
                .map(|_| crate::order::sample_max_normal(&mut rng, 100, 0.0, 1.0))
                .collect();
            let err = (Quantiles::from_samples(mc).q99() - true_q99).abs();
            worst_mc_err = worst_mc_err.max(err);
            mean_mc_err += err / 5.0;
        }
        assert!(
            qmc_err < mean_mc_err,
            "QMC err {qmc_err} vs mean MC err {mean_mc_err} (worst {worst_mc_err})"
        );
        assert!(qmc_err < 0.03, "QMC err {qmc_err}");
    }

    #[test]
    #[should_panic(expected = "base must be at least 2")]
    fn base_one_rejected() {
        let _ = Halton::new(1);
    }
}
