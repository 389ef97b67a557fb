//! The standard normal distribution: CDF and quantile function.
//!
//! The quantile function (`Φ⁻¹`) is the workhorse of the fast
//! architecture-level engine in `ntv-core`: the maximum of *n* i.i.d. normal
//! path delays is sampled in O(1) as `μ + σ·Φ⁻¹(U^(1/n))`, which turns a
//! 10 000-chip × 128-lane × 100-path simulation into ~10⁶ quantile
//! evaluations instead of ~10⁹ gate evaluations.
//!
//! Implementations are classical rational approximations (no external
//! dependencies): an Abramowitz–Stegun/Numerical-Recipes style `erfc` for the
//! CDF and Acklam's algorithm with one Halley refinement step for the
//! quantile, giving ~1e-15 relative accuracy over the full open interval.
//! `erfc_slice` and `quantile_slice` are their 8-lane batch forms, each
//! bit-identical to the scalar function.

use std::f64::consts::{PI, SQRT_2};

// Chebyshev coefficients for erfc, from W. J. Cody's rational fit as
// tabulated in Numerical Recipes (3rd ed., §6.2.2). Shared by the scalar
// and batch evaluators so both run the identical recurrence.
const COF: [f64; 28] = [
    -1.3026537197817094,
    6.419_697_923_564_902e-1,
    1.9476473204185836e-2,
    -9.561_514_786_808_63e-3,
    -9.46595344482036e-4,
    3.66839497852761e-4,
    4.2523324806907e-5,
    -2.0278578112534e-5,
    -1.624290004647e-6,
    1.303655835580e-6,
    1.5626441722e-8,
    -8.5238095915e-8,
    6.529054439e-9,
    5.059343495e-9,
    -9.91364156e-10,
    -2.27365122e-10,
    9.6467911e-11,
    2.394038e-12,
    -6.886027e-12,
    8.94487e-13,
    3.13092e-13,
    -1.12708e-13,
    3.81e-16,
    7.106e-15,
    -1.523e-15,
    -9.4e-17,
    1.21e-16,
    -2.8e-17,
];

/// Complementary error function, `erfc(x) = 1 - erf(x)`.
///
/// Uses the Chebyshev-fitted expansion from Numerical Recipes (accuracy
/// better than 1.2e-7 everywhere), refined to full double precision where it
/// matters via symmetric evaluation.
#[must_use]
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    let mut d = 0.0;
    let mut dd = 0.0;
    for &c in COF.iter().rev().take(COF.len() - 1) {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// [`erfc`] returns exactly `2.0` for every `x` at or below this cut,
/// down to and including `−∞`.
///
/// Measured: the last argument whose result is below `2.0` is
/// `x ≈ −5.863585`; beyond it `erfc(|x|)` is under half an ulp of 2, so
/// `2 − erfc(|x|)` rounds to 2. `−6` leaves a margin. Pinned by test from
/// `−6` down to `−f64::MAX` and at `−∞`.
pub const ERFC_TWO_AT_OR_BELOW: f64 = -6.0;

/// [`erfc`] returns exactly `0.0` for every `x` at or above this cut, up
/// to and including `+∞`.
///
/// Measured: the last argument with a nonzero (subnormal) result is
/// `x ≈ 27.225537`; beyond it the `exp` underflows (`erfc(27.0)` is still
/// `5.2e-319`). `27.5` leaves a margin. Pinned by test from `27.5` up to
/// `f64::MAX` and at `+∞`.
pub const ERFC_ZERO_AT_OR_ABOVE: f64 = 27.5;

/// Elements per chunk of [`erfc_slice`] and [`quantile_slice`].
const LANES: usize = 8;

/// One chunk of [`erfc_slice`]: every lane runs exactly the scalar
/// [`erfc`] operation sequence, only interleaved across lanes, so each
/// output carries `erfc(x[l])`'s bits. The per-coefficient inner loop has
/// no cross-lane dependence, so the lanes' Chebyshev recurrences overlap
/// instead of each waiting on its own serial chain. Forced inline: with
/// two callers the inliner outlines it, and the call made serve_cold's
/// survival-grid-bound p99 about 1.4 % slower.
#[inline(always)]
fn erfc_lanes(x: &[f64; LANES]) -> [f64; LANES] {
    let mut z = [0.0; LANES];
    let mut t = [0.0; LANES];
    let mut ty = [0.0; LANES];
    for l in 0..LANES {
        z[l] = x[l].abs();
        t[l] = 2.0 / (2.0 + z[l]);
        ty[l] = 4.0 * t[l] - 2.0;
    }
    let mut d = [0.0; LANES];
    let mut dd = [0.0; LANES];
    for &c in COF.iter().rev().take(COF.len() - 1) {
        for l in 0..LANES {
            let tmp = d[l];
            d[l] = ty[l] * d[l] - dd[l] + c;
            dd[l] = tmp;
        }
    }
    let mut out = [0.0; LANES];
    for l in 0..LANES {
        let ans = t[l] * (-z[l] * z[l] + 0.5 * (COF[0] + ty[l] * d[l]) - dd[l]).exp();
        out[l] = if x[l] >= 0.0 { ans } else { 2.0 - ans };
    }
    out
}

/// Batch complementary error function: `out[i] = erfc(xs[i])`.
///
/// Runs the slice in chunks of 8 through one interleaved pass of the
/// Chebyshev recurrence, and the remainder after the last full chunk
/// through the scalar [`erfc`]. Every lane performs the scalar operation
/// sequence, so every output carries [`erfc`]'s bits (pinned by test).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn erfc_slice(xs: &[f64], out: &mut [f64]) {
    assert_eq!(xs.len(), out.len(), "erfc batch length mismatch");
    let mut x_chunks = xs.chunks_exact(LANES);
    let mut out_chunks = out.chunks_exact_mut(LANES);
    let mut lane = [0.0; LANES];
    for (o, x) in out_chunks.by_ref().zip(x_chunks.by_ref()) {
        lane.copy_from_slice(x);
        o.copy_from_slice(&erfc_lanes(&lane));
    }
    for (o, &x) in out_chunks
        .into_remainder()
        .iter_mut()
        .zip(x_chunks.remainder())
    {
        *o = erfc(x);
    }
}

/// Cumulative distribution function `Φ(x)` of the standard normal.
///
/// # Example
///
/// ```
/// assert!((ntv_mc::normal::cdf(0.0) - 0.5).abs() < 1e-12);
/// assert!((ntv_mc::normal::cdf(1.6448536269514722) - 0.95).abs() < 1e-7);
/// ```
#[must_use]
pub fn cdf(x: f64) -> f64 {
    0.5 * erfc(-x / SQRT_2)
}

/// Quantile function `Φ⁻¹(p)` of the standard normal.
///
/// Acklam's rational approximation followed by one Halley refinement step,
/// accurate to machine precision for `p` in the open interval `(0, 1)`.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)` (the quantile is infinite at the
/// endpoints; callers sampling maxima use
/// [`crate::rng::CounterDraws::uniform_open`]).
///
/// # Example
///
/// ```
/// let z = ntv_mc::normal::quantile(0.99);
/// assert!((z - 2.3263478740408408).abs() < 1e-10);
/// ```
#[must_use]
pub fn quantile(p: f64) -> f64 {
    let x = acklam(p);
    halley(x, p, erfc(-x / SQRT_2))
}

/// Batch quantile, in place: each `p` in `ps` becomes [`quantile`]`(p)`.
///
/// Runs the slice in chunks of 8: Acklam's guess per element, the Halley
/// residual's `erfc` through the 8-lane Chebyshev pass of [`erfc_slice`],
/// then the Halley step per element. The remainder after the last full
/// chunk runs the scalar [`quantile`]. Every element goes through the same
/// two halves and the scalar `erfc` operation sequence, so it carries
/// [`quantile`]'s bits (pinned by test).
///
/// # Panics
///
/// Panics if any element is outside `(0, 1)`.
pub fn quantile_slice(ps: &mut [f64]) {
    let mut chunks = ps.chunks_exact_mut(LANES);
    let mut x = [0.0; LANES];
    let mut arg = [0.0; LANES];
    for chunk in chunks.by_ref() {
        for ((x, a), &p) in x.iter_mut().zip(&mut arg).zip(&*chunk) {
            *x = acklam(p);
            *a = -*x / SQRT_2;
        }
        let c = erfc_lanes(&arg);
        for ((p, &x), &c) in chunk.iter_mut().zip(&x).zip(&c) {
            *p = halley(x, *p, c);
        }
    }
    for p in chunks.into_remainder() {
        *p = quantile(*p);
    }
}

/// Acklam's rational guess at `Φ⁻¹(p)`, good to about 1.15e-9 relative:
/// the first half of [`quantile`] and [`quantile_slice`]. Forced inline,
/// like [`halley`]: with two callers the inliner outlines it, and every
/// scalar [`quantile`] would pay the call.
///
/// # Panics
///
/// Panics if `p` is outside `(0, 1)`.
#[inline(always)]
fn acklam(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "normal quantile requires p in (0, 1), got {p}"
    );

    // Acklam's coefficients.
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Lower cut of Acklam's central region; the upper cut is `1 − P_LOW`.
const P_LOW: f64 = 0.02425;

/// One Halley step from the guess `x` towards `Φ⁻¹(p)`, given
/// `c = erfc(−x/√2)`, so that `Φ(x) = c/2`: the second half of
/// [`quantile`] and [`quantile_slice`].
#[inline(always)]
fn halley(x: f64, p: f64, c: f64) -> f64 {
    // e = Φ(x) − p; x ← x − u/(1 + x·u/2) with u = e·√(2π)·exp(x²/2).
    let e = 0.5 * c - p;
    let u = e * (2.0 * PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_known_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.5),
            (1.0, 0.841344746068543),
            (-1.0, 0.158655253931457),
            (2.0, 0.977249868051821),
            (3.0, 0.998650101968370),
            (-3.0, 0.001349898031630),
        ];
        for (x, want) in cases {
            assert!(
                (cdf(x) - want).abs() < 1e-9,
                "cdf({x}) = {}, want {want}",
                cdf(x)
            );
        }
    }

    #[test]
    fn quantile_round_trips_cdf() {
        for i in 1..200 {
            let p = f64::from(i) / 200.0;
            let x = quantile(p);
            assert!((cdf(x) - p).abs() < 1e-12, "p={p} x={x} cdf={}", cdf(x));
        }
    }

    #[test]
    fn quantile_extreme_tails() {
        for &p in &[1e-12, 1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9] {
            let x = quantile(p);
            assert!((cdf(x) - p).abs() / p.min(1.0 - p) < 1e-6);
        }
    }

    #[test]
    fn quantile_is_monotone() {
        let mut prev = f64::NEG_INFINITY;
        for i in 1..1000 {
            let x = quantile(f64::from(i) / 1000.0);
            assert!(x > prev);
            prev = x;
        }
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.0, 3.5] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn erfc_slice_is_bit_identical_to_scalar_erfc() {
        // Lengths straddle the chunk width: empty, single, sub-chunk,
        // exact multiples, ragged tails, and a survival-grid row (1024)
        // plus a ragged one (1031). Values cover both signs, both zeros,
        // deep tails, both saturation cuts and the infinities.
        let special = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            ERFC_TWO_AT_OR_BELOW,
            ERFC_ZERO_AT_OR_ABOVE,
            -5.86,
            27.2,
            -40.0,
            300.0,
            -f64::MAX,
            f64::MAX,
        ];
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 37, 1024, 1031] {
            let xs: Vec<f64> = (0..n)
                .map(|i| {
                    if i % 7 == 3 {
                        return special[(i / 7) % special.len()];
                    }
                    let v = f64::from(i as i32) * 0.37 - 3.1;
                    if i % 5 == 0 {
                        -v
                    } else {
                        v
                    }
                })
                .collect();
            let mut out = vec![0.0; n];
            erfc_slice(&xs, &mut out);
            for (i, &x) in xs.iter().enumerate() {
                assert_eq!(
                    out[i].to_bits(),
                    erfc(x).to_bits(),
                    "erfc_slice diverged at n={n} i={i} x={x}"
                );
            }
        }
        // Every special value in every lane position of a full chunk.
        for &x in &special {
            for lead in 0..LANES {
                let mut xs = vec![0.5; LANES + 1];
                xs[lead] = x;
                let mut out = vec![0.0; xs.len()];
                erfc_slice(&xs, &mut out);
                assert_eq!(out[lead].to_bits(), erfc(x).to_bits(), "x={x} lane={lead}");
            }
        }
    }

    /// Sweep from `from` away from zero: 100 000 steps of `step`, then
    /// geometric growth by 1.01 out to `±f64::MAX`, then the infinity.
    fn saturation_sweep(from: f64, step: f64) -> Vec<f64> {
        let mut xs: Vec<f64> = (0..100_000).map(|i| from + step * f64::from(i)).collect();
        let mut x = xs[xs.len() - 1];
        while x.is_finite() {
            x *= 1.01;
            xs.push(if x.is_finite() {
                x
            } else {
                f64::MAX.copysign(from)
            });
        }
        xs.push(f64::INFINITY.copysign(from));
        xs
    }

    /// The survival grid replaces `erfc` by its saturated value past the
    /// two cuts (`PathDistribution::grid`), so the cuts must hold for
    /// every f64 beyond them, not only approximately.
    #[test]
    fn erfc_is_exactly_saturated_past_the_cuts() {
        let below = saturation_sweep(ERFC_TWO_AT_OR_BELOW, -1e-4);
        assert_eq!(below[0], ERFC_TWO_AT_OR_BELOW);
        assert_eq!(below[below.len() - 2], -f64::MAX);
        for &x in &below {
            assert_eq!(erfc(x).to_bits(), 2.0f64.to_bits(), "erfc({x}) is not 2.0");
        }
        let above = saturation_sweep(ERFC_ZERO_AT_OR_ABOVE, 1e-4);
        assert_eq!(above[0], ERFC_ZERO_AT_OR_ABOVE);
        assert_eq!(above[above.len() - 2], f64::MAX);
        for &x in &above {
            assert_eq!(erfc(x).to_bits(), 0.0f64.to_bits(), "erfc({x}) is not 0.0");
        }
        // The cuts sit past the measured onsets, not at them.
        assert!(erfc(-5.86) < 2.0);
        assert!(erfc(27.2) > 0.0);
    }

    #[test]
    #[should_panic(expected = "erfc batch length mismatch")]
    fn erfc_slice_rejects_length_mismatch() {
        let mut out = [0.0; 2];
        erfc_slice(&[1.0, 2.0, 3.0], &mut out);
    }

    #[test]
    #[should_panic(expected = "quantile requires")]
    fn quantile_rejects_zero() {
        let _ = quantile(0.0);
    }

    /// `quantile_slice` must carry `quantile`'s bits for every element:
    /// all three Acklam branches, both cuts and their neighbours, the
    /// smallest normal and subnormal inputs and the top of the interval,
    /// at lengths around the chunk width. Across the shifts every special
    /// value sits at every position of every length, so it meets every
    /// lane of a full chunk and every slot of the scalar remainder.
    #[test]
    fn quantile_slice_is_bit_identical_to_scalar_quantile() {
        let upper = 1.0 - P_LOW;
        let special = [
            1e-3,
            0.3,
            0.5,
            0.999,
            P_LOW,
            P_LOW.next_down(),
            P_LOW.next_up(),
            upper,
            upper.next_down(),
            upper.next_up(),
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            1e-310,
            1.0 - f64::EPSILON,
            1.0f64.next_down(),
        ];
        let check = |ps: &[f64], what: &str| {
            let mut out = ps.to_vec();
            quantile_slice(&mut out);
            for (i, (&p, &q)) in ps.iter().zip(&out).enumerate() {
                assert_eq!(q.to_bits(), quantile(p).to_bits(), "{what}: i={i} p={p:e}");
            }
        };
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 1031] {
            for shift in 0..special.len() {
                let ps: Vec<f64> = (0..n)
                    .map(|i| special[(i + shift) % special.len()])
                    .collect();
                check(&ps, &format!("n={n} shift={shift}"));
            }
            // An ordinary sweep across the whole interval, tails included.
            let ps: Vec<f64> = (0..n)
                .map(|i| (f64::from(i as i32) + 0.5) / n as f64)
                .map(|p| if p < 0.1 { p.powi(8) } else { p })
                .collect();
            check(&ps, &format!("n={n} sweep"));
        }
    }

    #[test]
    #[should_panic(expected = "quantile requires")]
    fn quantile_slice_rejects_one_in_a_full_chunk() {
        let mut ps = [0.5; LANES + 1];
        ps[3] = 1.0;
        quantile_slice(&mut ps);
    }

    #[test]
    #[should_panic(expected = "quantile requires")]
    fn quantile_slice_rejects_zero_in_the_remainder() {
        let mut ps = [0.5; LANES + 1];
        ps[LANES] = 0.0;
        quantile_slice(&mut ps);
    }
}
