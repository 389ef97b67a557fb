//! Empirical quantiles and CDFs.
//!
//! The architecture study compares distributions at their **99 % point**
//! ("fo4chipd" in the paper): the number of spares (Table 1) and the voltage
//! margin (Table 2) are both defined by matching q99 of a mitigated system to
//! q99 of the nominal-voltage baseline. [`Quantiles`] owns a sorted copy of a
//! sample and answers interpolated quantile queries. The same sorted sample
//! is the empirical CDF the validation tests compare against a closed-form
//! distribution with the Kolmogorov–Smirnov distance.

use crate::error::SampleError;

/// A sorted sample supporting interpolated quantile queries and its
/// empirical CDF.
///
/// Uses the common linear-interpolation definition (type 7 in the
/// Hyndman–Fan taxonomy, the default of R and NumPy).
///
/// # Example
///
/// ```
/// use ntv_mc::quantile::Quantiles;
/// let q = Quantiles::from_samples(vec![4.0, 1.0, 3.0, 2.0]);
/// assert_eq!(q.quantile(0.0), 1.0);
/// assert_eq!(q.quantile(1.0), 4.0);
/// assert_eq!(q.quantile(0.5), 2.5);
/// assert_eq!(q.median(), 2.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    /// Build from an unsorted sample, rejecting empty or non-finite input.
    ///
    /// # Errors
    ///
    /// Returns [`SampleError::Empty`] for an empty sample and
    /// [`SampleError::NonFinite`] (with the offending index) if any value
    /// is NaN or infinite.
    pub fn try_from_samples(mut samples: Vec<f64>) -> Result<Self, SampleError> {
        crate::error::validate(&samples)?;
        samples.sort_by(f64::total_cmp);
        Ok(Self { sorted: samples })
    }

    /// Build from an unsorted sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or contains non-finite values; use
    /// [`Quantiles::try_from_samples`] to handle those as errors.
    #[must_use]
    pub fn from_samples(samples: Vec<f64>) -> Self {
        // ntv:allow(panic-path): documented panicking convenience; `try_from_samples` is the total API
        Self::try_from_samples(samples).expect("quantiles require a non-empty finite sample")
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the sample is empty (never true for a constructed value).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Interpolated quantile for probability `p ∈ [0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&p),
            "quantile requires p in [0,1], got {p}"
        );
        let n = self.sorted.len();
        if n == 1 {
            return self.sorted[0];
        }
        let h = p * (n - 1) as f64;
        // `h ≤ n-1` already, but the clamp makes the cast's range explicit
        // (and keeps the truncation lint happy without a waiver).
        let lo = (h.floor() as usize).min(n - 1);
        let hi = (h.ceil() as usize).min(n - 1);
        if lo == hi {
            self.sorted[lo]
        } else {
            let frac = h - lo as f64;
            self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
        }
    }

    /// The 99 % point — the paper's chip-delay comparison statistic.
    #[must_use]
    pub fn q99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Median (50 % point).
    #[must_use]
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Smallest sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.sorted[self.sorted.len() - 1]
    }

    /// Borrow the sorted sample.
    #[must_use]
    pub fn as_sorted_slice(&self) -> &[f64] {
        &self.sorted
    }

    /// One-sample KS statistic of the empirical CDF against a reference
    /// CDF.
    // ntv:allow(test-only-api): tests/engines_agree.rs::skewed_sampler_reproduces_the_mixture_cdf and this file's normal-sample test measure a sampler against its closed form with it
    pub fn ks_distance_to(&self, mut cdf: impl FnMut(f64) -> f64) -> f64 {
        let n = self.sorted.len() as f64;
        let mut d: f64 = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = cdf(x);
            d = d.max((f - i as f64 / n).abs());
            d = d.max(((i + 1) as f64 / n - f).abs());
        }
        d
    }
}

impl FromIterator<f64> for Quantiles {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::from_samples(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal;
    use crate::rng::CounterRng;

    #[test]
    fn single_sample() {
        let q = Quantiles::from_samples(vec![7.0]);
        assert_eq!(q.quantile(0.0), 7.0);
        assert_eq!(q.quantile(0.37), 7.0);
        assert_eq!(q.quantile(1.0), 7.0);
    }

    #[test]
    fn interpolation_matches_numpy_default() {
        // numpy.quantile([1,2,3,4,5], 0.99) == 4.96
        let q = Quantiles::from_samples(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((q.q99() - 4.96).abs() < 1e-12);
        // numpy.quantile([1,2,3,4], 0.25) == 1.75
        let q = Quantiles::from_samples(vec![4.0, 3.0, 2.0, 1.0]);
        assert!((q.quantile(0.25) - 1.75).abs() < 1e-12);
    }

    #[test]
    fn quantile_is_monotone_in_p() {
        let q: Quantiles = (0..100).map(|i| f64::from((i * 61) % 100)).collect();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=50 {
            let v = q.quantile(f64::from(i) / 50.0);
            assert!(v >= prev);
            prev = v;
        }
    }

    #[test]
    fn min_max_and_bounds() {
        let q = Quantiles::from_samples(vec![3.0, -1.0, 10.0]);
        assert_eq!(q.min(), -1.0);
        assert_eq!(q.max(), 10.0);
        assert_eq!(q.quantile(0.0), q.min());
        assert_eq!(q.quantile(1.0), q.max());
    }

    #[test]
    #[should_panic(expected = "non-empty finite sample")]
    fn empty_rejected() {
        let _ = Quantiles::from_samples(vec![]);
    }

    #[test]
    fn nan_input_is_an_error_not_a_panic() {
        use crate::error::SampleError;
        let r = Quantiles::try_from_samples(vec![1.0, f64::NAN, 3.0]);
        assert_eq!(r, Err(SampleError::NonFinite { index: 1 }));
        let r = Quantiles::try_from_samples(vec![f64::INFINITY]);
        assert_eq!(r, Err(SampleError::NonFinite { index: 0 }));
        assert_eq!(Quantiles::try_from_samples(vec![]), Err(SampleError::Empty));
    }

    #[test]
    fn try_from_samples_accepts_finite_input() {
        let q = Quantiles::try_from_samples(vec![2.0, 1.0]).expect("finite");
        assert_eq!(q.as_sorted_slice(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "p in [0,1]")]
    fn out_of_range_p_rejected() {
        let q = Quantiles::from_samples(vec![1.0]);
        let _ = q.quantile(1.5);
    }

    #[test]
    fn normal_sample_matches_normal_cdf() {
        let mut rng = CounterRng::new(31, "normal_sample_matches_normal_cdf").at(0);
        let q: Quantiles = (0..20_000).map(|_| rng.standard_normal()).collect();
        let d = q.ks_distance_to(normal::cdf);
        // KS critical value at alpha=0.001 for n=20000 is ~1.95/sqrt(n)=0.0138.
        assert!(d < 0.0138, "ks distance {d}");
    }
}
