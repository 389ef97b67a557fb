#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `ntv-serve` — a high-throughput query service over the analytic
//! variation-analysis fast path.
//!
//! The offline experiment suite answers each question (a Table 2 margin,
//! a Fig 4 quantile, a Table 3 exploration) by rebuilding its world from
//! scratch. This crate keeps that world *resident*: a long-running HTTP
//! server whose queries ride the closed-form solvers of
//! [`ntv_core::quantile`] in microseconds, with three mechanisms making
//! the service safe to leave up under concurrent load:
//!
//! 1. **Request coalescing** — concurrent queries that need the same
//!    operating point attach to a single in-flight
//!    [`ntv_core::OpPointCache`] build (single-flight);
//! 2. **A bounded cache** — the process-wide operating-point cache takes
//!    an LRU bound, and because distributions are pure functions of their
//!    key, eviction never changes a single response byte;
//! 3. **Load shedding** — Monte-Carlo fallback work passes a fixed-size
//!    admission gate and is rejected with HTTP 429 when full, so analytic
//!    traffic stays fast no matter what clients ask for.
//!
//! Responses are byte-stable: the same query set yields byte-identical
//! bodies across runs, servers, and cache histories — the property the
//! double-run identity test and CI smoke `cmp` pin.
//!
//! The wire schema lives in [`wire`]; the `ntv` CLI's `spares`, `margin`,
//! `plan` and `quantile` commands build, validate and run the same
//! [`Query`] values, so `ntv margin --json` prints the result object
//! `/v1/query` returns for that query.
//!
//! # Quickstart
//!
//! ```no_run
//! use ntv_serve::{serve, ServeConfig};
//!
//! let handle = serve(&ServeConfig::default()).expect("bind");
//! println!("listening on {}", handle.addr());
//! // ... curl -d '{"kind":"quantile","node":"45nm","vdd":0.6}' <addr>/v1/query
//! handle.shutdown();
//! ```

pub mod client;
pub mod http;
pub mod json;
pub mod server;
pub mod shed;
pub mod wire;

pub use client::{Connection, Response};
pub use server::{serve, ServeConfig, ServerHandle};
pub use shed::{McGate, McPermit};
pub use wire::Query;
