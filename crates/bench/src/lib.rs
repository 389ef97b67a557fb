#![warn(missing_docs)]
// Tests assert exact golden values; strict float equality is the point there.
#![cfg_attr(test, allow(clippy::float_cmp))]

//! Experiment harness for the DAC 2012 reproduction.
//!
//! Every table and figure of the paper's evaluation has a module under
//! [`experiments`] that regenerates it and returns structured results.
//! [`repro`] prints them all in the paper's layout, one section each, and
//! digests that output; the `repro` binary is its command-line wrapper
//! (`cargo run --release -p ntv-bench --bin repro`). The `extensions`
//! binary prints the studies beyond the paper and the modelling ablations
//! through [`repro::write_extensions`].
//! Timing lives in the separate `perf/` benchmark package.
//!
//! | Paper artifact | Module | repro section |
//! |---|---|---|
//! | Fig 1 (inverter/chain histograms) | [`experiments::fig1`] | Fig 1 |
//! | Fig 2 (chain 3σ/μ vs Vdd, 4 nodes) | [`experiments::fig2`] | Fig 2 |
//! | Fig 3 (128-wide delay distributions) | [`experiments::fig3`] | Fig 3 |
//! | Fig 4 (performance drop) | [`experiments::fig4`] | Fig 4 |
//! | Fig 5 (duplicated-system distributions) | [`experiments::fig5`] | Fig 5 |
//! | Fig 6 (margining distributions) | [`experiments::fig6`] | Fig 6 |
//! | Fig 7 (duplication vs margining power) | [`experiments::fig7`] | Fig 7 |
//! | Fig 8 (chip delay vs voltage/spares) | [`experiments::fig8`] | Fig 8 |
//! | Fig 9 (energy/delay regions) | [`experiments::fig9`] | Fig 9 |
//! | Fig 11 (3σ/μ vs chain length) | [`experiments::fig11`] | Fig 11 |
//! | Fig 12 / App D (sparing placement) | [`experiments::placement`] | Appendix D |
//! | Table 1 (required spares) | [`experiments::table1`] | Table 1 |
//! | Table 2 (voltage margins) | [`experiments::table2`] | Table 2 |
//! | Table 3 (combined design choices) | [`experiments::table3`] | Table 3 |
//! | Table 4 (frequency margining) | [`experiments::table4`] | Table 4 |

pub mod experiments;
pub mod repro;
pub mod table;

/// Default Monte-Carlo sample count for architecture-level experiments
/// (the paper uses 10 000).
pub const ARCH_SAMPLES: usize = 10_000;

/// Default sample count for gate-level circuit experiments (the paper
/// uses 1 000).
pub const CIRCUIT_SAMPLES: usize = 1_000;

/// Default seed for all experiment binaries.
pub const DEFAULT_SEED: u64 = 2012;
