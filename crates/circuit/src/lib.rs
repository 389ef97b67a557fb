#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Tests assert exact golden values; strict float equality is the point there.
#![cfg_attr(test, allow(clippy::float_cmp))]

//! Gate- and circuit-level delay modelling under process variation.
//!
//! This crate sits between the device models of [`ntv_device`] and the
//! architecture-level analysis of `ntv-core`. It provides:
//!
//! * [`gate`] — a small standard-cell library with logical-effort delay
//!   factors relative to an FO4 inverter,
//! * [`chain`] — the paper's canonical circuit: a chain of `N` FO4
//!   inverters, with an exact gate-level Monte-Carlo engine (Fig 1, Fig 2,
//!   Fig 11),
//! * [`netlist`] — a combinational DAG netlist builder,
//! * [`sta`] — static timing analysis (arrival times, critical path) over a
//!   netlist with per-instance sampled delays,
//! * [`adder`] — the Kogge–Stone adder netlist, the validation circuit the
//!   paper cites (≈8.4 % delay variation at 0.5 V for 64 bits); the
//!   `extensions` binary prints our value beside it (§3.1),
//! * [`path_model`] — the fast closed-form critical-path model
//!   (Gauss–Hermite conditional gate moments + CLT over the chain) that the
//!   architecture engine uses, cross-validated against the gate-level
//!   engine.
//!
//! # Example
//!
//! ```
//! use ntv_circuit::chain::ChainMc;
//! use ntv_device::{TechModel, TechNode};
//! use ntv_mc::CounterRng;
//! use ntv_units::Volts;
//!
//! let tech = TechModel::new(TechNode::Gp90);
//! let chain = ChainMc::new(&tech, 50);
//! let stream = CounterRng::new(7, "example");
//! let summary = chain.summary(Volts(0.5), 500, &stream);
//! // Chain-of-50 delay variation at 0.5 V is ≈9.4% in the paper (Fig 1b).
//! assert!(summary.three_sigma_over_mu() > 0.05);
//! assert!(summary.three_sigma_over_mu() < 0.16);
//! ```

pub mod adder;
pub mod chain;
pub mod gate;
pub mod netlist;
pub mod path_model;
pub mod sta;

pub use chain::ChainMc;
pub use gate::GateKind;
pub use netlist::{GateId, Netlist};
pub use path_model::PathMoments;
