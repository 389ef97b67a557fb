#![warn(missing_docs)]
// Tests assert exact golden values; strict float equality is the point there.
#![cfg_attr(test, allow(clippy::float_cmp))]

//! # ntv-simd
//!
//! A reproduction of **"Process Variation in Near-Threshold Wide SIMD
//! Architectures"** (Seo, Dreslinski, Woh, Park, Chakrabarti, Mahlke,
//! Blaauw, Mudge — DAC 2012) as a Rust workspace.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`mc`] — Monte-Carlo and statistics toolkit (normal quantiles,
//!   Gauss–Hermite quadrature, order statistics, histograms),
//! * [`device`] — transregional MOSFET delay/energy models and per-node
//!   process-variation parameters (90/45 nm GP, 32/22 nm PTM HP),
//! * [`circuit`] — gates, FO4 chains, a netlist/STA engine, the 64-bit
//!   Kogge–Stone adder of the paper's §3.1 cross-check, and the
//!   circuit-level Monte-Carlo engines,
//! * [`core`] — the paper's contribution: architecture-level variation
//!   analysis for wide SIMD datapaths and the three mitigation techniques
//!   (structural duplication, voltage margining, frequency margining) plus
//!   their combination,
//! * [`soda`] — a functional simulator of the Diet SODA processing element
//!   (128-lane 16-bit SIMD pipeline, banked memory, AGUs, XRAM crossbar)
//!   with timing-fault injection and error-handling policies,
//! * [`serve`] — the batch HTTP query service over the analytic solvers,
//!   and the wire queries the `ntv` CLI shares with it,
//! * [`units`] — the `Volts` / `Seconds` newtypes of the public APIs.
//!
//! ## Quickstart
//!
//! ```
//! use ntv_simd::device::{TechModel, TechNode};
//! use ntv_simd::core::{DatapathConfig, DatapathEngine, Executor};
//! use ntv_simd::mc::CounterRng;
//! use ntv_simd::units::Volts;
//!
//! // 128-wide SIMD datapath in 90nm GP, evaluated at 0.55 V.
//! let tech = TechModel::new(TechNode::Gp90);
//! let config = DatapathConfig::paper_default();
//! let engine = DatapathEngine::new(&tech, config);
//! let stream = CounterRng::new(1, "quickstart");
//! let dist = engine.chip_delay_distribution(Volts(0.55), 2_000, &stream, Executor::default());
//! // The 99% chip-delay point in FO4 units is a little above the ideal
//! // 50-FO4 critical path because variation makes the slowest of
//! // 128 lanes x 100 paths slower.
//! assert!(dist.fo4_quantiles.q99() > 50.0);
//! ```

pub use ntv_circuit as circuit;
pub use ntv_core as core;
pub use ntv_device as device;
pub use ntv_mc as mc;
pub use ntv_serve as serve;
pub use ntv_soda as soda;
pub use ntv_units as units;
