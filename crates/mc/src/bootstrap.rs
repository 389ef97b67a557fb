//! Percentile-bootstrap confidence intervals.
//!
//! Monte-Carlo estimates of extreme quantiles (the 99 % chip-delay point)
//! carry sampling noise; the experiment harness reports bootstrap intervals
//! so paper-vs-measured comparisons in EXPERIMENTS.md are honest about it.

use crate::rng::CounterDraws;

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate on the original sample.
    pub estimate: f64,
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Whether `value` lies inside the interval (inclusive).
    #[must_use]
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lo && value <= self.hi
    }

    /// Interval width.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// Percentile bootstrap for an arbitrary statistic.
///
/// Resamples `samples` with replacement `resamples` times, evaluates
/// `statistic` on each, and returns the `[(1−level)/2, (1+level)/2]`
/// percentile interval.
///
/// # Panics
///
/// Panics if `samples` is empty, `resamples == 0`, or `level` is outside
/// `(0, 1)`.
///
/// # Example
///
/// ```
/// use ntv_mc::bootstrap::bootstrap_ci;
/// use ntv_mc::rng::CounterRng;
/// let data: Vec<f64> = (0..200).map(|i| f64::from(i % 10)).collect();
/// let mut rng = CounterRng::new(9, "example").at(0);
/// let ci = bootstrap_ci(&data, 500, 0.95, &mut rng, |s| {
///     s.iter().sum::<f64>() / s.len() as f64
/// });
/// assert!(ci.contains(4.5));
/// ```
pub fn bootstrap_ci(
    samples: &[f64],
    resamples: usize,
    level: f64,
    rng: &mut CounterDraws,
    mut statistic: impl FnMut(&[f64]) -> f64,
) -> ConfidenceInterval {
    assert!(!samples.is_empty(), "bootstrap requires samples");
    assert!(resamples > 0, "bootstrap requires at least one resample");
    assert!(
        level > 0.0 && level < 1.0,
        "level must be in (0,1), got {level}"
    );

    let estimate = statistic(samples);
    let mut stats = Vec::with_capacity(resamples);
    let mut scratch = vec![0.0; samples.len()];
    for _ in 0..resamples {
        for slot in &mut scratch {
            *slot = samples[rng.index(samples.len())];
        }
        stats.push(statistic(&scratch));
    }
    stats.sort_by(f64::total_cmp);
    let alpha = (1.0 - level) / 2.0;
    let lo_idx = ((stats.len() as f64 - 1.0) * alpha).round() as usize;
    let hi_idx = ((stats.len() as f64 - 1.0) * (1.0 - alpha)).round() as usize;
    ConfidenceInterval {
        estimate,
        lo: stats[lo_idx],
        hi: stats[hi_idx],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::CounterRng;

    fn mean(s: &[f64]) -> f64 {
        s.iter().sum::<f64>() / s.len() as f64
    }

    #[test]
    fn interval_brackets_true_mean() {
        let mut rng = CounterRng::new(42, "interval_brackets_true_mean").at(0);
        let data: Vec<f64> = (0..1000).map(|_| 5.0 + rng.standard_normal()).collect();
        let ci = bootstrap_ci(&data, 400, 0.99, &mut rng, mean);
        assert!(ci.contains(5.0), "{ci:?}");
        assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
    }

    #[test]
    fn width_shrinks_with_sample_size() {
        let mut rng = CounterRng::new(7, "width_shrinks_with_sample_size").at(0);
        let small: Vec<f64> = (0..50).map(|_| rng.standard_normal()).collect();
        let large: Vec<f64> = (0..5000).map(|_| rng.standard_normal()).collect();
        let ci_small = bootstrap_ci(&small, 300, 0.95, &mut rng, mean);
        let ci_large = bootstrap_ci(&large, 300, 0.95, &mut rng, mean);
        assert!(ci_large.width() < ci_small.width());
    }

    #[test]
    fn degenerate_sample_gives_point_interval() {
        let mut rng = CounterRng::new(1, "degenerate_sample_gives_point_interval").at(0);
        let ci = bootstrap_ci(&[3.0; 20], 100, 0.9, &mut rng, mean);
        assert_eq!(ci.lo, 3.0);
        assert_eq!(ci.hi, 3.0);
        assert_eq!(ci.estimate, 3.0);
    }

    #[test]
    #[should_panic(expected = "requires samples")]
    fn empty_sample_rejected() {
        let mut rng = CounterRng::new(0, "empty_sample_rejected").at(0);
        let _ = bootstrap_ci(&[], 10, 0.9, &mut rng, mean);
    }
}
