#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Tests assert exact golden values; strict float equality is the point there.
#![cfg_attr(test, allow(clippy::float_cmp))]

//! Transistor-level delay, variation and energy models for near-threshold
//! operation.
//!
//! This crate is the workspace's substitute for the HSPICE Monte-Carlo decks
//! used by Seo et al. (DAC 2012). It provides, for each of the paper's four
//! technology nodes (90 nm GP, 45 nm GP, 32 nm PTM HP, 22 nm PTM HP):
//!
//! * a **transregional on-current model** (generalized EKV interpolation
//!   that is exponential in sub-threshold, power-law with a
//!   velocity-saturation exponent in strong inversion, and smooth in
//!   between) — [`TechModel::on_current`],
//! * an **FO4 gate-delay model** driven by that current —
//!   [`TechModel::fo4_delay_ps`] and [`TechModel::gate_delay_ps`],
//! * a **process-variation model** with per-chip systematic and per-device
//!   random components for both threshold voltage (RDF + LER) and current
//!   factor — [`variation`],
//! * a **switching + leakage energy model** exhibiting the three operating
//!   regions and the sub-threshold energy minimum of the paper's Fig 9 —
//!   [`energy`].
//!
//! Model constants are calibrated against the numbers the paper publishes
//! (Fig 1/2 delay-variation percentages, the 22.05 ns / 8.99 ns chain-of-50
//! delays at 0.5/0.6 V); see [`params`] for the provenance of every value
//! and [`calib`] for the calibration targets used in tests.
//!
//! # Example
//!
//! ```
//! use ntv_device::{TechModel, TechNode};
//! use ntv_mc::CounterRng;
//! use ntv_units::Volts;
//!
//! let tech = TechModel::new(TechNode::Gp90);
//! // Variation-free FO4 delay grows steeply in the near-threshold region.
//! assert!(tech.fo4_delay_ps(Volts(0.5)) > 3.0 * tech.fo4_delay_ps(Volts(0.7)));
//!
//! // Sample one chip and one device, and evaluate a varied gate delay.
//! let mut rng = CounterRng::new(1, "example").at(0);
//! let chip = tech.sample_chip(&mut rng);
//! let gate = tech.sample_gate(&mut rng);
//! let d = tech.gate_delay_ps(Volts(0.5), &chip, &gate);
//! assert!(d > 0.0);
//! ```

pub mod calib;
pub mod corners;
pub mod energy;
pub mod node;
pub mod params;
pub mod variation;

mod model;

pub use corners::Corner;
pub use model::{OperatingRegion, TechModel};
pub use node::TechNode;
pub use params::DeviceParams;
pub use variation::{ChipSample, GateSample, RegionSample};
