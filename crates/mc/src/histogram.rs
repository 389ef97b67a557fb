//! Fixed-bin histograms for distribution figures.
//!
//! Figures 1, 3, 5 and 6 of the paper are delay histograms ("Occurrences" vs
//! delay). [`Histogram`] reproduces those series: fixed uniform bins over a
//! range, counts per bin, and a text rendering used by the `ntv-bench`
//! figure binaries.

/// A uniform-bin histogram over `[lo, hi)`.
///
/// Samples outside the range are counted in saturating under/overflow
/// buckets so no data is silently lost.
///
/// # Example
///
/// ```
/// use ntv_mc::histogram::Histogram;
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for x in [0.5, 1.0, 2.5, 2.6, 9.9, 11.0] {
///     h.add(x);
/// }
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Create a histogram with `bins` uniform bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`, the bounds are not finite, or `lo >= hi`.
    #[must_use]
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram requires at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "invalid histogram range [{lo}, {hi})"
        );
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Create a histogram spanning the observed range of `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or `bins == 0`.
    #[must_use]
    pub fn from_samples(samples: &[f64], bins: usize) -> Self {
        assert!(!samples.is_empty(), "cannot infer a range from no samples");
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        // Widen degenerate/exact ranges so the max lands inside the last bin.
        let span = (hi - lo).max(f64::EPSILON * lo.abs().max(1.0));
        let mut h = Self::new(lo, lo + span * (1.0 + 1e-9), bins);
        for &x in samples {
            h.add(x);
        }
        h
    }

    /// Add one sample.
    pub fn add(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.counts.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            let idx = idx.min(self.counts.len() - 1);
            self.counts[idx] += 1;
        }
    }

    /// Samples below the range.
    #[must_use]
    // ntv:allow(test-only-api): tests/props.rs::histogram_conserves_every_sample and this file's tests check that no sample is lost through it
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the upper bound.
    #[must_use]
    // ntv:allow(test-only-api): tests/props.rs::histogram_conserves_every_sample and this file's tests check that no sample is lost through it
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total samples added, including under/overflow.
    #[must_use]
    // ntv:allow(test-only-api): tests/props.rs::histogram_conserves_every_sample, fig1's unit tests and this file's tests count the samples a histogram holds with it
    pub fn total(&self) -> u64 {
        self.counts.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Centre of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index {i} out of range");
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    /// Render an ASCII bar chart, `width` characters for the largest bin.
    #[must_use]
    pub fn render_ascii(&self, width: usize) -> String {
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = (c as usize * width) / peak as usize;
            out.push_str(&format!(
                "{:>12.4e} |{}{} {}\n",
                self.bin_center(i),
                "#".repeat(bar),
                " ".repeat(width - bar),
                c
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_the_range() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        for i in 0..1000 {
            h.add(f64::from(i) / 1000.0);
        }
        assert_eq!(h.total(), 1000);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        // Bin edges are subject to floating-point rounding; allow +-1.
        assert!(
            h.counts.iter().all(|&c| (99..=101).contains(&c)),
            "{:?}",
            h.counts
        );
    }

    #[test]
    fn under_overflow_counted() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.add(-0.1);
        h.add(1.0);
        h.add(2.0);
        h.add(0.5);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn from_samples_covers_all() {
        let samples: Vec<f64> = (0..100).map(|i| f64::from(i) * 0.3 - 5.0).collect();
        let h = Histogram::from_samples(&samples, 8);
        assert_eq!(h.total(), 100);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn from_samples_constant_input() {
        let h = Histogram::from_samples(&[5.0; 10], 3);
        assert_eq!(h.total(), 10);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn bin_centers_increase() {
        let h = Histogram::new(0.0, 10.0, 5);
        for i in 1..5 {
            assert!(h.bin_center(i) > h.bin_center(i - 1));
        }
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ascii_render_has_one_line_per_bin() {
        let mut h = Histogram::new(0.0, 1.0, 6);
        h.add(0.5);
        let text = h.render_ascii(20);
        assert_eq!(text.lines().count(), 6);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
