#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Tests assert exact golden values; strict float equality is the point there.
#![cfg_attr(test, allow(clippy::float_cmp))]

//! Functional simulator of the **Diet SODA** processing element — the
//! near-threshold wide-SIMD architecture the paper's variation study
//! targets (Appendix B, Fig 10).
//!
//! The PE contains:
//!
//! * a 128-lane, 16-bit SIMD pipeline: 32-entry SIMD register file, 128
//!   functional units (ALU + multiplier with 32-bit MAC accumulators) and a
//!   multi-output adder tree ([`pe`]),
//! * a 64 KB multi-banked SIMD memory (4 banks × 32 lanes × 256 rows) with
//!   4 address-generation-unit pipelines ([`memory`], [`agu`]),
//! * the 128×128 **XRAM crossbar** shuffle network holding stored shuffle
//!   configurations, which doubles as the spare-lane bypass mechanism of
//!   the paper's global structural-duplication scheme ([`xram`]),
//! * a small scalar pipeline for sequential bookkeeping ([`isa`]),
//! * dual voltage domains: the SIMD datapath runs near-threshold while the
//!   memory system stays at full voltage; energy is accounted per domain
//!   ([`pe::PeStats`]),
//! * **timing-fault injection** driven by the architecture-level variation
//!   model of `ntv-core`, with three error-handling policies — silent
//!   corruption, SIMD-wide stall-and-retry, and test-time spare remapping
//!   through the crossbar ([`fault`]),
//! * DLP kernels from the digital-camera domain Diet SODA targets: vector
//!   ops, FIR filter, 2-D convolution and a 128-point fixed-point FFT,
//!   each validated against a golden model ([`kernels`]).
//!
//! # Example
//!
//! ```
//! use ntv_soda::pe::ProcessingElement;
//! use ntv_soda::kernels;
//!
//! let mut pe = ProcessingElement::new();
//! let a: Vec<i16> = (0..128).collect();
//! let b: Vec<i16> = (0..128).map(|i| 2 * i).collect();
//! let sum = kernels::vector_add(&mut pe, &a, &b).expect("runs");
//! assert_eq!(sum[5], 15);
//! assert!(pe.stats().cycles > 0);
//! ```

pub mod agu;
pub mod fault;
pub mod isa;
pub mod kernels;
pub mod memory;
pub mod pe;
pub mod xram;

pub use fault::{ErrorPolicy, FaultModel};
pub use pe::{PeError, PeStats, ProcessingElement};
pub use xram::{LaneMap, XramCrossbar};

/// SIMD datapath width of the Diet SODA PE.
pub const SIMD_WIDTH: usize = 128;

/// Number of SIMD memory banks.
pub const BANKS: usize = 4;

/// Lanes served by each memory bank.
pub const BANK_WIDTH: usize = SIMD_WIDTH / BANKS;

/// Rows per memory bank (16 KB per bank at 16-bit × 32 lanes).
pub const BANK_ROWS: usize = 256;

/// SIMD register-file entries.
pub const SIMD_REGS: usize = 32;

/// Scalar register count.
pub const SCALAR_REGS: usize = 16;

/// Scalar memory size in 16-bit words (4 KB).
pub const SCALAR_WORDS: usize = 2048;
