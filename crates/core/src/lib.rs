#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Tests assert exact golden values; strict float equality is the point there.
#![cfg_attr(test, allow(clippy::float_cmp))]

//! Architecture-level variation analysis for near-threshold wide SIMD
//! datapaths — the primary contribution of Seo et al. (DAC 2012).
//!
//! The model (paper §3.2): a SIMD datapath has `N` lanes; each lane contains
//! ~100 critical paths, each emulated by a chain of 50 FO4 inverters; the
//! lane delay is the slowest of its paths and the chip delay the slowest of
//! its lanes. Operated near threshold, the per-path spread widens and the
//! max-of-12 800 statistics push the 99 % chip-delay point ("fo4chipd")
//! right — that shift *is* the performance drop of Fig 4.
//!
//! Three simple mitigation techniques are then evaluated:
//!
//! * [`duplication`] — add α spare lanes, disable the α slowest at test
//!   time (Table 1, Fig 5),
//! * [`margining`] — raise the supply a few millivolts (Table 2, Fig 6),
//! * [`frequency`] — slow the clock to cover the variation (Table 4),
//!
//! plus their combination ([`dse`], Table 3), the power comparison
//! ([`compare`], Fig 7/8) and spare-placement analysis ([`placement`],
//! Appendix D). Overheads use the Diet SODA area/power budget
//! ([`overhead`]). Two extensions round out the menu: adaptive body bias
//! ([`body_bias`], the EVAL-style knob from the paper's related work) and
//! full timing-yield curves ([`ChipQuantileSolver::timing_yield`]).
//!
//! # Example
//!
//! ```
//! use ntv_core::{DatapathConfig, DatapathEngine, Executor};
//! use ntv_device::{TechModel, TechNode};
//! use ntv_mc::CounterRng;
//! use ntv_units::Volts;
//!
//! let tech = TechModel::new(TechNode::Gp90);
//! let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
//! let stream = CounterRng::new(7, "example");
//! let q99 = |vdd| {
//!     engine
//!         .chip_delay_distribution(vdd, 2_000, &stream, Executor::default())
//!         .q99_fo4()
//! };
//!
//! // 99% chip-delay point at nominal and at 0.5 V, in FO4 units.
//! let base = q99(Volts(1.0));
//! let ntv = q99(Volts(0.5));
//! let drop = ntv / base - 1.0;
//! // Fig 4: ~5% performance drop at 0.5 V in 90 nm.
//! assert!(drop > 0.02 && drop < 0.09);
//! ```

pub mod body_bias;
pub mod compare;
pub mod config;
pub mod dse;
pub mod duplication;
pub mod engine;
pub mod exec;
pub mod frequency;
pub mod margining;
pub mod op_cache;
pub mod overhead;
pub mod perf;
pub mod placement;
pub mod quantile;
pub mod sensitivity;

pub use config::DatapathConfig;
pub use engine::{ChipDelayDistribution, DatapathEngine};
pub use exec::Executor;
pub use op_cache::OpPointCache;
pub use overhead::DietSodaBudget;
pub use quantile::{ChipQuantileSolver, Evaluation};
