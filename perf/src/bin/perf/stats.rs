//! Order statistics and digests shared by every workload.

/// Fewest samples a reported percentile must leave above it; a tail
/// percentile with fewer is an extreme value, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least a fraction `p` of the data at or below it.
///
/// # Panics
///
/// Panics on an empty slice or a `p` outside `(0, 1]`.
#[must_use]
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 1.0, "percentile level {p} outside (0, 1]");
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Whether `n` samples support percentile `p`: at least [`MIN_BEYOND`] of
/// them lie strictly above its nearest rank.
#[must_use]
pub fn supports(n: usize, p: f64) -> bool {
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let rank = (p * n as f64).ceil() as usize;
    n >= rank + MIN_BEYOND
}

/// Sort a sample ascending (total order; no NaN is ever recorded).
#[must_use]
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample (nearest rank).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values.to_vec()), 0.5)
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so spreads printed here
/// match the ones computed from the printed per-run values.
///
/// # Panics
///
/// Panics with fewer than two values.
#[must_use]
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values.to_vec());
    let n = data.len();
    assert!(n >= 2, "quartiles need at least two values");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * m) as f64 / 4.0 - j as f64;
        *q = data[j - 1] + (data[j] - data[j - 1]) * delta;
    }
    out
}

/// Incremental FNV-1a 64-bit digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn value(self) -> u64 {
        self.0
    }
}

/// FNV-1a 64-bit digest of `bytes`.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv::default();
    h.update(bytes);
    h.value()
}

/// splitmix64 over `(seed, stream, index)`: the one source of every seeded
/// choice the workload generators make.
#[must_use]
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let data: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&data, 0.5).to_bits(), 50.0_f64.to_bits());
        assert_eq!(nearest_rank(&data, 0.99).to_bits(), 99.0_f64.to_bits());
        assert_eq!(nearest_rank(&data, 0.995).to_bits(), 100.0_f64.to_bits());
        assert_eq!(nearest_rank(&data, 1.0).to_bits(), 100.0_f64.to_bits());
        assert_eq!(nearest_rank(&[7.0], 0.99).to_bits(), 7.0_f64.to_bits());
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // p99 of n samples sits at rank ceil(0.99 n); n = 1000 leaves
        // exactly ten above it, n = 999 only nine.
        assert!(supports(1000, 0.99));
        assert!(!supports(999, 0.99));
        assert!(supports(20, 0.5));
        assert!(!supports(19, 0.5));
        assert!(!supports(12, 0.99));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        let [q1, q2, q3] = quartiles(&data);
        assert!((q1 - 2.75).abs() < 1e-12, "{q1}");
        assert!((q2 - 5.5).abs() < 1e-12, "{q2}");
        assert!((q3 - 8.25).abs() < 1e-12, "{q3}");
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let [a, b, c] = quartiles(&[3.0, 1.0, 2.0]);
        assert!((a - 1.0).abs() < 1e-12 && (b - 2.0).abs() < 1e-12 && (c - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        let mut h = Fnv::default();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.value(), fnv1a64(b"foobar"), "incremental == one-shot");
    }

    #[test]
    fn mix_is_a_pure_function_of_its_inputs() {
        assert_eq!(mix(2012, 1, 7), mix(2012, 1, 7));
        assert_ne!(mix(2012, 1, 7), mix(2013, 1, 7));
        assert_ne!(mix(2012, 1, 7), mix(2012, 2, 7));
        assert_ne!(mix(2012, 1, 7), mix(2012, 1, 8));
    }
}
