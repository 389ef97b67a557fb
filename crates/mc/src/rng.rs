//! Deterministic random-number streams.
//!
//! Every experiment in this workspace takes an explicit `u64` seed, and
//! derives independent sub-streams from string labels, so that
//!
//! * results are bit-reproducible across runs,
//! * common-random-number (CRN) comparisons are possible: two configurations
//!   evaluated with the same seed see the same process-variation draws, which
//!   removes Monte-Carlo noise from *differences* (used heavily by the
//!   voltage-margin bisection in `ntv-core`),
//! * adding a new consumer of randomness does not perturb existing streams
//!   (each consumer derives its own labelled stream).
//!
//! There is one generator family, and it is counter-based: a [`CounterRng`]
//! maps `(seed, stream label, sample index)` to a [`CounterDraws`] cursor
//! whose draw sequence is a pure function of the seed and the index, so
//! samplers can be evaluated in any order, split across threads, and paired
//! across configurations (CRN) *by construction*. Every sampler in the
//! workspace takes `&mut CounterDraws`; a loop that needs one long sequential
//! stream draws from a single cursor (`CounterRng::new(seed, label).at(0)`).

/// Derive a child seed from a parent seed and a label using the FNV-1a hash.
///
/// This is not cryptographic; it only needs to decorrelate streams, which is
/// sufficient for Monte-Carlo use with a counter-based generator underneath.
///
/// # Example
///
/// ```
/// let a = ntv_mc::rng::derive_seed(1, "lanes");
/// let b = ntv_mc::rng::derive_seed(1, "paths");
/// assert_ne!(a, b);
/// assert_eq!(a, ntv_mc::rng::derive_seed(1, "lanes"));
/// ```
#[must_use]
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for byte in label.as_bytes() {
        h ^= u64::from(*byte);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // Final avalanche (splitmix64 finalizer) so nearby seeds diverge.
    splitmix_finalize(h)
}

/// The additive constant of splitmix64 (2⁶⁴ / φ, forced odd).
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer: a full-avalanche bijection on `u64`.
#[inline]
#[must_use]
fn splitmix_finalize(mut z: u64) -> u64 {
    z ^= z >> 30;
    z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A counter-based random generator: `(key, sample index) → draw sequence`.
///
/// `CounterRng` itself is an immutable *stream descriptor* (a 64-bit key
/// derived from `(seed, label)` via [`derive_seed`]). Calling [`at`] with a
/// sample index yields a [`CounterDraws`] cursor whose entire sequence is a
/// pure function of `(key, index)` — splitmix64 seeded through a
/// Philox-style key/counter mix. Consequences:
///
/// * **Order independence** — samples can be generated in any order or in
///   parallel and are bit-identical to the sequential evaluation.
/// * **CRN by construction** — two configurations evaluated at the same
///   `(seed, label, index)` see the same underlying draws.
/// * **Stability under growth** — adding draws to sample *i* never perturbs
///   sample *j*.
///
/// [`at`]: CounterRng::at
///
/// # Example
///
/// ```
/// use ntv_mc::rng::CounterRng;
/// let stream = CounterRng::new(2012, "chip-delay");
/// let a = stream.at(17).standard_normal();
/// let b = stream.at(17).standard_normal();
/// assert_eq!(a.to_bits(), b.to_bits()); // pure function of (seed, label, 17)
/// assert_ne!(a.to_bits(), stream.at(18).standard_normal().to_bits());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    key: u64,
}

impl CounterRng {
    /// Stream for `(seed, label)`: its key is [`derive_seed`]`(seed, label)`.
    #[must_use]
    pub fn new(seed: u64, label: &str) -> Self {
        Self {
            key: derive_seed(seed, label),
        }
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// Deterministic in `(key, label)` alone — no hidden state advances —
    /// so repeated calls commute.
    #[must_use]
    pub fn stream(&self, label: &str) -> Self {
        Self {
            key: derive_seed(self.key, label),
        }
    }

    /// The draw sequence of sample `index`: a pure function of
    /// `(key, index)`.
    #[must_use]
    pub fn at(&self, index: u64) -> CounterDraws {
        // Philox-style key/counter mix: avalanche the counter, fold in the
        // key, avalanche again. Both rounds are bijections, so distinct
        // (key, index) pairs cannot collide systematically.
        let state = splitmix_finalize(
            self.key ^ splitmix_finalize(index.wrapping_mul(GOLDEN_GAMMA) ^ 0x1405_7b7e_f767_814f),
        );
        CounterDraws {
            state,
            spare_normal: None,
        }
    }

    /// Batch draw: `out[i] = self.at(first + i).uniform_open()`.
    ///
    /// Each element is the first open-interval uniform of its own
    /// `(key, index)` cell, bit-identical to the scalar
    /// [`at`](CounterRng::at) path by construction. This is the draw the
    /// engine's batched maximum-sampling kernels consume (quantile
    /// transforms require `u > 0`).
    pub fn uniform_open_batch(&self, first: u64, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.at(first.wrapping_add(i as u64)).uniform_open();
        }
    }

    /// Batch draw: `out[i] = self.at(first + i).standard_normal()`.
    ///
    /// Each element is the first polar-method normal of its own cell —
    /// bit-identical to the scalar path; the spare second output is
    /// discarded exactly as a fresh [`at`](CounterRng::at) cursor would.
    pub fn standard_normal_batch(&self, first: u64, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.at(first.wrapping_add(i as u64)).standard_normal();
        }
    }
}

/// The draw cursor of one `(key, index)` cell of a [`CounterRng`].
///
/// Successive draws step a splitmix64 generator whose seed is the mixed
/// `(key, index)` state, so the *j*-th draw is a pure function of
/// `(key, index, j)`.
#[derive(Debug, Clone)]
pub struct CounterDraws {
    state: u64,
    /// Cached second output of the polar method.
    spare_normal: Option<f64>,
}

impl CounterDraws {
    /// Next raw uniform 64-bit word.
    pub fn next_word(&mut self) -> u64 {
        // splitmix64: Weyl sequence through the finalizer.
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        splitmix_finalize(self.state)
    }

    /// Uniform sample in `[0, 1)` with 53-bit resolution.
    pub fn uniform(&mut self) -> f64 {
        // 53 high bits — the standard IEEE-double uniform construction.
        (self.next_word() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in the open interval `(0, 1)`.
    ///
    /// Useful when the value feeds an inverse CDF that is singular at 0 or 1.
    pub fn uniform_open(&mut self) -> f64 {
        loop {
            let u = self.uniform();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Standard normal sample (Marsaglia polar method).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        loop {
            let u: f64 = 2.0 * self.uniform() - 1.0;
            let v: f64 = 2.0 * self.uniform() - 1.0;
            let s: f64 = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = Some(v * f);
                return u * f;
            }
        }
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(
            std_dev.is_finite() && std_dev >= 0.0,
            "standard deviation must be finite and non-negative, got {std_dev}"
        );
        mean + std_dev * self.standard_normal()
    }

    /// Uniform integer in `[0, n)` (Lemire's unbiased multiply-shift).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        let n = n as u64;
        // Rejection threshold: 2^64 mod n, computed as (-n) mod n.
        let threshold = n.wrapping_neg() % n;
        loop {
            let m = u128::from(self.next_word()) * u128::from(n);
            if (m as u64) >= threshold {
                #[allow(clippy::cast_possible_truncation)]
                return (m >> 64) as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn derive_seed_is_deterministic_and_label_sensitive() {
        assert_eq!(derive_seed(3, "a"), derive_seed(3, "a"));
        assert_ne!(derive_seed(3, "a"), derive_seed(3, "b"));
        assert_ne!(derive_seed(3, "a"), derive_seed(4, "a"));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = CounterRng::new(1234, "standard_normal_moments").at(0);
        let s: Summary = (0..200_000).map(|_| rng.standard_normal()).collect();
        assert!(s.mean().abs() < 0.01, "mean {}", s.mean());
        assert!((s.std_dev() - 1.0).abs() < 0.01, "std {}", s.std_dev());
        assert!(s.skewness().abs() < 0.05, "skew {}", s.skewness());
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = CounterRng::new(77, "normal_scales_and_shifts").at(0);
        let s: Summary = (0..100_000).map(|_| rng.normal(10.0, 2.0)).collect();
        assert!((s.mean() - 10.0).abs() < 0.05);
        assert!((s.std_dev() - 2.0).abs() < 0.05);
    }

    #[test]
    fn uniform_open_never_zero() {
        let mut rng = CounterRng::new(2, "uniform_open_never_zero").at(0);
        for _ in 0..10_000 {
            let u = rng.uniform_open();
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "standard deviation")]
    fn normal_rejects_negative_sigma() {
        let mut rng = CounterRng::new(0, "normal_rejects_negative_sigma").at(0);
        let _ = rng.normal(0.0, -1.0);
    }

    #[test]
    fn index_covers_range() {
        let mut rng = CounterRng::new(11, "index_covers_range").at(0);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.index(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn counter_draws_are_pure_in_seed_label_index() {
        let a = CounterRng::new(7, "x");
        let b = CounterRng::new(7, "x");
        for i in [0u64, 1, 2, 1_000_000, u64::MAX] {
            let xs: Vec<u64> = {
                let mut d = a.at(i);
                (0..16).map(|_| d.next_word()).collect()
            };
            let ys: Vec<u64> = {
                let mut d = b.at(i);
                (0..16).map(|_| d.next_word()).collect()
            };
            assert_eq!(xs, ys, "index {i}");
        }
    }

    #[test]
    fn counter_indexes_and_streams_decorrelate() {
        let s = CounterRng::new(7, "x");
        assert_ne!(s.at(0).next_word(), s.at(1).next_word());
        assert_ne!(
            CounterRng::new(7, "x").at(3).next_word(),
            CounterRng::new(7, "y").at(3).next_word()
        );
        assert_ne!(
            CounterRng::new(7, "x").at(3).next_word(),
            CounterRng::new(8, "x").at(3).next_word()
        );
        assert_eq!(s.stream("child"), s.stream("child"));
        assert_ne!(s.stream("child"), s.stream("other"));
    }

    #[test]
    fn counter_uniform_is_in_unit_interval() {
        let s = CounterRng::new(42, "u");
        for i in 0..10_000u64 {
            let mut d = s.at(i);
            let u = d.uniform();
            assert!((0.0..1.0).contains(&u), "index {i}: {u}");
            let o = d.uniform_open();
            assert!(o > 0.0 && o < 1.0);
        }
    }

    #[test]
    fn counter_index_is_unbiased_across_cells() {
        let s = CounterRng::new(9, "idx");
        let mut counts = [0usize; 7];
        for i in 0..70_000u64 {
            counts[s.at(i).index(7)] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            // Expected 10_000 per bucket; 5σ ≈ 460.
            assert!((c as i64 - 10_000).abs() < 500, "bucket {k}: {c}");
        }
    }

    #[test]
    fn counter_batch_draws_are_bit_identical_to_scalar_at() {
        let s = CounterRng::new(2012, "batch");
        // Sizes straddle lane widths; offsets exercise non-zero bases and
        // the wrapping edge near u64::MAX.
        for first in [0u64, 17, u64::MAX - 3] {
            for n in [0usize, 1, 5, 8, 13, 64] {
                let mut uo = vec![0.0; n];
                let mut z = vec![0.0; n];
                s.uniform_open_batch(first, &mut uo);
                s.standard_normal_batch(first, &mut z);
                for i in 0..n {
                    let idx = first.wrapping_add(i as u64);
                    assert_eq!(uo[i].to_bits(), s.at(idx).uniform_open().to_bits());
                    assert_eq!(z[i].to_bits(), s.at(idx).standard_normal().to_bits());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn counter_index_rejects_zero() {
        let _ = CounterRng::new(0, "z").at(0).index(0);
    }

    #[test]
    #[should_panic(expected = "standard deviation")]
    fn counter_normal_rejects_negative_sigma() {
        let _ = CounterRng::new(0, "z").at(0).normal(0.0, -1.0);
    }
}
