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
//! Two generator families implement the shared [`SampleStream`] sampler
//! interface:
//!
//! * [`CounterRng`] — the **counter-based** generator every library-level
//!   Monte-Carlo loop must use. It maps `(seed, stream label, sample index)`
//!   to an independent draw sequence, so sample *i* is a pure function of the
//!   seed and *i*: samplers can be evaluated in any order, split across
//!   threads, and paired across configurations (CRN) *by construction*.
//! * [`StreamRng`] — the legacy sequential stream (a seeded [`SmallRng`]).
//!   Kept for gate-level circuit Monte Carlo and exploratory harness code;
//!   new index-addressed sampling paths should take a [`CounterRng`].

// ntv:allow(stateful-rng): `StreamRng` is the one sanctioned stateful-generator wrapper
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

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

/// The common sampler interface over a uniform `u64` source.
///
/// Implemented by both [`StreamRng`] (sequential) and [`CounterDraws`]
/// (counter-based), so Monte-Carlo code can be written once and driven
/// either by a legacy stream or by index-addressed draws.
pub trait SampleStream {
    /// Next raw uniform 64-bit word.
    fn next_word(&mut self) -> u64;

    /// Access the cached second output of the polar normal method.
    fn spare_normal_slot(&mut self) -> &mut Option<f64>;

    /// Uniform sample in `[0, 1)` with 53-bit resolution.
    fn uniform(&mut self) -> f64 {
        // 53 high bits — the standard IEEE-double uniform construction.
        (self.next_word() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in the open interval `(0, 1)`.
    ///
    /// Useful when the value feeds an inverse CDF that is singular at 0 or 1.
    fn uniform_open(&mut self) -> f64 {
        loop {
            let u = self.uniform();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Standard normal sample (Marsaglia polar method).
    fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal_slot().take() {
            return z;
        }
        loop {
            let u: f64 = 2.0 * self.uniform() - 1.0;
            let v: f64 = 2.0 * self.uniform() - 1.0;
            let s: f64 = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let f = (-2.0 * s.ln() / s).sqrt();
                *self.spare_normal_slot() = Some(v * f);
                return u * f;
            }
        }
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or not finite.
    fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
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
    fn index(&mut self, n: usize) -> usize {
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
/// use ntv_mc::rng::{CounterRng, SampleStream};
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
    /// Stream for `(seed, label)` — the labelled-stream scheme shared with
    /// [`StreamRng::from_seed_and_label`].
    #[must_use]
    pub fn new(seed: u64, label: &str) -> Self {
        Self {
            key: derive_seed(seed, label),
        }
    }

    /// Stream from a raw 64-bit key (e.g. a previously derived seed).
    #[must_use]
    pub fn from_key(key: u64) -> Self {
        Self { key }
    }

    /// The stream's key.
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Derive an independent child stream identified by `label`.
    ///
    /// Unlike [`StreamRng::split`], this is deterministic in `(key, label)`
    /// alone — no hidden state advances — so repeated calls commute.
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

    /// Batch draw: `out[i] = self.at(first + i).uniform()`.
    ///
    /// The `SampleStream`-compatible bulk path — each element is the first
    /// half-open-uniform draw of its own `(key, index)` cell, bit-identical
    /// to the scalar [`at`](CounterRng::at) path by construction. The
    /// counter mix is pure integer arithmetic with no cross-element
    /// dependence, written as a fixed-stride loop.
    pub fn uniform_batch(&self, first: u64, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = self.at(first.wrapping_add(i as u64)).uniform();
        }
    }

    /// Batch draw: `out[i] = self.at(first + i).uniform_open()`.
    ///
    /// Open-interval variant of [`uniform_batch`](CounterRng::uniform_batch);
    /// this is the draw the engine's batched maximum-sampling kernels
    /// consume (quantile transforms require `u > 0`).
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

impl SampleStream for CounterDraws {
    fn next_word(&mut self) -> u64 {
        // splitmix64: Weyl sequence through the finalizer.
        self.state = self.state.wrapping_add(GOLDEN_GAMMA);
        splitmix_finalize(self.state)
    }

    fn spare_normal_slot(&mut self) -> &mut Option<f64> {
        &mut self.spare_normal
    }
}

/// A seeded sequential random stream with convenience samplers.
///
/// Wraps [`SmallRng`] (fast, non-cryptographic — appropriate for Monte-Carlo)
/// and adds Gaussian sampling via the Marsaglia polar method. This is the
/// *stateful* generator: draws depend on every draw before them, so a
/// `StreamRng` loop cannot be split across threads without changing results.
/// Library-level experiment loops use [`CounterRng`] instead; `StreamRng`
/// remains for gate-level circuit Monte Carlo and harness code.
///
/// # Example
///
/// ```
/// use ntv_mc::rng::StreamRng;
/// let mut rng = StreamRng::from_seed(7);
/// let x = rng.standard_normal();
/// assert!(x.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct StreamRng {
    // ntv:allow(stateful-rng): the sequential stream this type exists to wrap
    inner: SmallRng,
    /// Cached second output of the polar method.
    spare_normal: Option<f64>,
}

impl StreamRng {
    /// Create a stream from a raw seed.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        Self {
            // ntv:allow(stateful-rng): seeding the wrapped sequential stream
            inner: SmallRng::seed_from_u64(seed),
            spare_normal: None,
        }
    }

    /// Create a stream from a seed and a purpose label (see [`derive_seed`]).
    #[must_use]
    pub fn from_seed_and_label(seed: u64, label: &str) -> Self {
        Self::from_seed(derive_seed(seed, label))
    }

    /// Split off an independent child stream identified by `label`.
    ///
    /// The child is derived from fresh entropy drawn from `self`, mixed with
    /// the label, so repeated splits with distinct labels are decorrelated
    /// from each other and from the parent's future output.
    #[must_use]
    pub fn split(&mut self, label: &str) -> Self {
        let fresh = self.inner.next_u64();
        Self::from_seed(derive_seed(fresh, label))
    }

    /// Uniform sample in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform sample in the open interval `(0, 1)`.
    ///
    /// Useful when the value feeds an inverse CDF that is singular at 0 or 1.
    pub fn uniform_open(&mut self) -> f64 {
        loop {
            let u = self.inner.gen::<f64>();
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
            let u: f64 = 2.0 * self.inner.gen::<f64>() - 1.0;
            let v: f64 = 2.0 * self.inner.gen::<f64>() - 1.0;
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

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        self.inner.gen_range(0..n)
    }
}

/// `StreamRng` exposes the same sampler interface; the inherent methods are
/// kept (and delegated to) so existing sequential call sites are untouched.
impl SampleStream for StreamRng {
    fn next_word(&mut self) -> u64 {
        self.inner.next_u64()
    }

    fn spare_normal_slot(&mut self) -> &mut Option<f64> {
        &mut self.spare_normal
    }

    // Keep the trait view bit-identical to the inherent methods: `uniform`
    // must go through SmallRng's own f64 path, not the default 53-bit
    // construction over `next_word` (same distribution, different draws).
    fn uniform(&mut self) -> f64 {
        StreamRng::uniform(self)
    }

    fn uniform_open(&mut self) -> f64 {
        StreamRng::uniform_open(self)
    }

    fn standard_normal(&mut self) -> f64 {
        StreamRng::standard_normal(self)
    }

    fn index(&mut self, n: usize) -> usize {
        StreamRng::index(self, n)
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
    fn streams_are_reproducible() {
        let mut a = StreamRng::from_seed(99);
        let mut b = StreamRng::from_seed(99);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn split_streams_diverge() {
        let mut parent = StreamRng::from_seed(5);
        let mut c1 = parent.split("one");
        let mut c2 = parent.split("two");
        let x: Vec<f64> = (0..8).map(|_| c1.uniform()).collect();
        let y: Vec<f64> = (0..8).map(|_| c2.uniform()).collect();
        assert_ne!(x, y);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StreamRng::from_seed(1234);
        let s: Summary = (0..200_000).map(|_| rng.standard_normal()).collect();
        assert!(s.mean().abs() < 0.01, "mean {}", s.mean());
        assert!((s.std_dev() - 1.0).abs() < 0.01, "std {}", s.std_dev());
        assert!(s.skewness().abs() < 0.05, "skew {}", s.skewness());
    }

    #[test]
    fn normal_scales_and_shifts() {
        let mut rng = StreamRng::from_seed(77);
        let s: Summary = (0..100_000).map(|_| rng.normal(10.0, 2.0)).collect();
        assert!((s.mean() - 10.0).abs() < 0.05);
        assert!((s.std_dev() - 2.0).abs() < 0.05);
    }

    #[test]
    fn uniform_open_never_zero() {
        let mut rng = StreamRng::from_seed(2);
        for _ in 0..10_000 {
            let u = rng.uniform_open();
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "standard deviation")]
    fn normal_rejects_negative_sigma() {
        let mut rng = StreamRng::from_seed(0);
        let _ = rng.normal(0.0, -1.0);
    }

    #[test]
    fn index_covers_range() {
        let mut rng = StreamRng::from_seed(11);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            seen[rng.index(7)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    // ---- CounterRng ----

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
        assert_eq!(s.stream("child").key(), s.stream("child").key());
        assert_ne!(s.stream("child").key(), s.stream("other").key());
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
                let mut u = vec![0.0; n];
                let mut uo = vec![0.0; n];
                let mut z = vec![0.0; n];
                s.uniform_batch(first, &mut u);
                s.uniform_open_batch(first, &mut uo);
                s.standard_normal_batch(first, &mut z);
                for i in 0..n {
                    let idx = first.wrapping_add(i as u64);
                    assert_eq!(u[i].to_bits(), s.at(idx).uniform().to_bits());
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
