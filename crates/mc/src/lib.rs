#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Tests assert exact golden values; strict float equality is the point there.
#![cfg_attr(test, allow(clippy::float_cmp))]

//! Monte-Carlo and statistics toolkit used throughout the `ntv-simd` workspace.
//!
//! The variation study in Seo et al. (DAC 2012) is, at its core, a Monte-Carlo
//! order-statistics exercise: sample per-device threshold-voltage and
//! current-factor deviations, propagate them through a gate-delay model, and
//! look at extreme quantiles of maxima over many critical paths and SIMD
//! lanes. This crate provides the numerical machinery for that, implemented
//! from scratch:
//!
//! * [`rng`] — the one generator family: deterministic seeding, labelled
//!   stream splitting and the counter-based [`CounterRng`], whose
//!   [`CounterDraws`] cursors every sampler draws from, so every experiment
//!   is reproducible and parallelizable without changing results,
//! * [`normal`] — the standard normal CDF and quantile function,
//! * [`quadrature`] — Gauss–Hermite rules for expectations under a normal,
//! * [`stats`] — streaming summary statistics (mean, σ, 3σ/μ, skewness),
//! * [`quantile`] — empirical quantiles and CDF of a sample, and the
//!   Kolmogorov–Smirnov distance to a reference CDF,
//! * [`histogram`] — fixed-bin histograms for distribution plots,
//! * [`error`] — the [`SampleError`] type returned by the fallible
//!   sample-based constructors,
//! * [`order`] — order-statistics helpers (sampling the maximum of *n*
//!   i.i.d. normals in O(1), k-th smallest selection),
//! * [`qmc`] — a Halton low-discrepancy stream for variance-reduced
//!   quantile estimation,
//! * [`reduce`] — fixed-order f64 summation, the sanctioned shapes for the
//!   `ntv::reduction-order` lint.
//!
//! # Example
//!
//! ```
//! use ntv_mc::rng::CounterRng;
//! use ntv_mc::stats::Summary;
//!
//! let mut rng = CounterRng::new(42, "example").at(0);
//! let summary: Summary = (0..10_000).map(|_| 3.0 + rng.standard_normal()).collect();
//! assert!((summary.mean() - 3.0).abs() < 0.05);
//! assert!((summary.std_dev() - 1.0).abs() < 0.05);
//! ```

pub mod error;
pub mod histogram;
pub mod normal;
pub mod order;
pub mod qmc;
pub mod quadrature;
pub mod quantile;
pub mod reduce;
pub mod rng;
pub mod stats;

pub use error::SampleError;
pub use histogram::Histogram;
pub use quadrature::GaussHermite;
pub use quantile::Quantiles;
pub use reduce::{sum2_ordered, sum_ordered};
pub use rng::{CounterDraws, CounterRng};
pub use stats::Summary;
