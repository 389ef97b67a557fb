//! Streaming summary statistics.
//!
//! [`Summary`] accumulates count, mean, variance, skewness, min and max in a
//! single pass using Welford-style updates (numerically stable for the long
//! near-constant delay streams this workspace produces). The paper's headline
//! circuit-level metric, the relative spread **3σ/μ**, is provided directly.

/// Single-pass summary statistics over a stream of `f64` samples.
///
/// # Example
///
/// ```
/// use ntv_mc::stats::Summary;
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.std_dev() - 2.138089935299395).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    /// Create an empty summary.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite — a NaN delay always indicates a modelling
    /// bug upstream and must not be silently averaged away.
    pub fn add(&mut self, x: f64) {
        assert!(
            x.is_finite(),
            "summary statistics require finite samples, got {x}"
        );
        let n0 = self.count as f64;
        self.count += 1;
        let n = self.count as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let term1 = delta * delta_n * n0;
        self.mean += delta_n;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another summary into this one (parallel-reduction friendly).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let n = n1 + n2;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let m2 = self.m2 + other.m2 + delta2 * n1 * n2 / n;
        let m3 = self.m3
            + other.m3
            + delta2 * delta * n1 * n2 * (n1 - n2) / (n * n)
            + 3.0 * delta * (n1 * other.m2 - n2 * self.m2) / n;
        self.mean += delta * n2 / n;
        self.m2 = m2;
        self.m3 = m3;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples seen.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean.
    ///
    /// Returns 0 for an empty summary.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (n−1 denominator).
    #[must_use]
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count as f64 - 1.0)
        }
    }

    /// Sample standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation σ/μ.
    ///
    /// Returns 0 when the mean is zero.
    #[must_use]
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev() / self.mean
        }
    }

    /// The paper's delay-variation metric **3σ/μ**, as a fraction (not %).
    ///
    /// Fig 1 reports, e.g., `3σ/μ = 35.49 %` for a single 90 nm inverter at
    /// 0.5 V; that corresponds to `three_sigma_over_mu() == 0.3549`.
    #[must_use]
    pub fn three_sigma_over_mu(&self) -> f64 {
        3.0 * self.cv()
    }

    /// Sample skewness (g1, biased).
    #[must_use]
    // ntv:allow(test-only-api): tests/engines_agree.rs's moment and tail-shape tests, tests/counter_quality.rs and the chain and rng unit tests check distribution shapes with it
    pub fn skewness(&self) -> f64 {
        if self.count < 3 || self.m2 == 0.0 {
            return 0.0;
        }
        let n = self.count as f64;
        (n.sqrt() * self.m3) / self.m2.powf(1.5)
    }

    /// Smallest sample seen.
    ///
    /// Returns `+∞` for an empty summary.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen.
    ///
    /// Returns `−∞` for an empty summary.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Pearson correlation of paired samples.
///
/// Used to validate common-random-number solvers: with shared seeds, chip
/// delays at nearby voltages are near-perfectly correlated, which is what
/// makes the margin bisection monotone sample-by-sample.
///
/// # Panics
///
/// Panics if the slices differ in length or have fewer than 2 samples.
///
/// # Example
///
/// ```
/// let x = [1.0, 2.0, 3.0, 4.0];
/// let y = [2.1, 3.9, 6.2, 7.8];
/// assert!(ntv_mc::stats::pearson(&x, &y) > 0.99);
/// ```
#[must_use]
// ntv:allow(test-only-api): tests/engines_agree.rs::common_random_numbers_correlate_across_voltages checks common-random-number correlation with it
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "paired samples must have equal length");
    assert!(x.len() >= 2, "correlation needs at least two samples");
    let n = x.len() as f64;
    let mx = crate::reduce::sum_ordered(x.iter().copied()) / n;
    let my = crate::reduce::sum_ordered(y.iter().copied()) / n;
    // Each accumulator folds left-to-right over the same pairing as the
    // legacy three-accumulator loop, so every sum is bit-identical to it.
    let sxy = crate::reduce::sum_ordered(x.iter().zip(y).map(|(&a, &b)| (a - mx) * (b - my)));
    let (sxx, syy) = crate::reduce::sum2_ordered(
        x.iter()
            .zip(y)
            .map(|(&a, &b)| ((a - mx) * (a - mx), (b - my) * (b - my))),
    );
    if sxx == 0.0 || syy == 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_sane() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.three_sigma_over_mu(), 0.0);
    }

    #[test]
    fn matches_two_pass_reference() {
        let data: Vec<f64> = (0..1000)
            .map(|i| f64::from((i * 37) % 101) * 0.13 + 5.0)
            .collect();
        let s: Summary = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() as f64 - 1.0);
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.variance() - var).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..500).map(|i| f64::from(i).sin() * 2.0 + 3.0).collect();
        let whole: Summary = data.iter().copied().collect();
        let mut left: Summary = data[..200].iter().copied().collect();
        let right: Summary = data[200..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-10);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        assert!((left.skewness() - whole.skewness()).abs() < 1e-8);
        assert_eq!(left.min(), whole.min());
        assert_eq!(left.max(), whole.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0, 3.0].into_iter().collect();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);
        let mut empty = Summary::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn skewness_sign() {
        // Right-skewed: lognormal-ish samples.
        let s: Summary = (0..10_000)
            .map(|i| (f64::from(i % 97) / 97.0 * 3.0 - 1.5_f64).exp())
            .collect();
        assert!(s.skewness() > 0.5);
    }

    #[test]
    fn three_sigma_over_mu_example() {
        let s: Summary = [9.0, 10.0, 11.0].into_iter().collect();
        assert!((s.three_sigma_over_mu() - 3.0 * 1.0 / 10.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_known_cases() {
        let x = [1.0, 2.0, 3.0];
        assert!((pearson(&x, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(pearson(&x, &[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn pearson_rejects_ragged_pairs() {
        let _ = pearson(&[1.0, 2.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        let mut s = Summary::new();
        s.add(f64::NAN);
    }
}
