//! Empirical cumulative distribution functions.
//!
//! Used by validation tests to compare the exact gate-level Monte-Carlo
//! engine against the closed-form (CLT + quadrature) engine: the two must
//! produce statistically indistinguishable delay distributions, which we
//! check with the Kolmogorov–Smirnov distance.

use serde::{Deserialize, Serialize};

use crate::error::SampleError;

/// An empirical CDF over a sorted sample.
///
/// # Example
///
/// ```
/// use ntv_mc::ecdf::Ecdf;
/// let e = Ecdf::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(e.eval(0.0), 0.0);
/// assert_eq!(e.eval(2.0), 0.5);
/// assert_eq!(e.eval(10.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
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
    /// [`Ecdf::try_from_samples`] to handle those as errors.
    #[must_use]
    pub fn from_samples(samples: Vec<f64>) -> Self {
        // ntv:allow(panic-path): documented panicking convenience; `try_from_samples` is the total API
        Self::try_from_samples(samples).expect("ecdf requires a non-empty finite sample")
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

    /// `F(x)` — fraction of samples `<= x`.
    #[must_use]
    pub fn eval(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The underlying sorted sample.
    #[must_use]
    pub fn as_sorted_slice(&self) -> &[f64] {
        &self.sorted
    }

    /// One-sample KS statistic against a reference CDF.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normal;
    use crate::rng::CounterRng;

    #[test]
    fn eval_steps() {
        let e = Ecdf::from_samples(vec![2.0, 1.0, 3.0]);
        assert_eq!(e.eval(0.5), 0.0);
        assert!((e.eval(1.0) - 1.0 / 3.0).abs() < 1e-12);
        assert!((e.eval(2.5) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(e.eval(3.0), 1.0);
    }

    #[test]
    fn normal_sample_matches_normal_cdf() {
        let mut rng = CounterRng::new(31, "normal_sample_matches_normal_cdf").at(0);
        let e = Ecdf::from_samples((0..20_000).map(|_| rng.standard_normal()).collect());
        let d = e.ks_distance_to(normal::cdf);
        // KS critical value at alpha=0.001 for n=20000 is ~1.95/sqrt(n)=0.0138.
        assert!(d < 0.0138, "ks distance {d}");
    }

    #[test]
    fn nan_input_is_an_error_not_a_panic() {
        use crate::error::SampleError;
        let r = Ecdf::try_from_samples(vec![0.5, f64::NAN]);
        assert_eq!(r, Err(SampleError::NonFinite { index: 1 }));
        assert_eq!(Ecdf::try_from_samples(vec![]), Err(SampleError::Empty));
        assert!(Ecdf::try_from_samples(vec![0.5, 1.5]).is_ok());
    }
}
