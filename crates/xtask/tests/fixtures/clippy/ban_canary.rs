//! Firing canary for the clippy bans in `crates/clippy.toml`.
//!
//! `cargo xtask lint` skips fixtures and no crate declares this file as a
//! module, so it is never built in place. CI's `clippy ban canary` step
//! copies it into `crates/bench/src/`, declares the module and runs clippy
//! on ntv-bench's library: the step fails unless every list entry draws a
//! `disallowed` error. Each banned item is reached through an alias, so the
//! bans are shown to follow resolved paths, not spellings.

use std::collections::HashMap as Map;
use std::collections::HashSet as Set;
use std::env as e;
use std::thread::available_parallelism as cores;
use std::time::Instant as Clock;
use std::time::SystemTime as Wall;

use ntv_core::engine::PathDistribution as P;
use ntv_device::TechModel;
use ntv_units::Volts;

pub fn clocks() {
    let _ = Clock::now();
    let _ = Wall::now();
    let _ = Wall::UNIX_EPOCH.elapsed();
}

pub fn host() {
    let _ = e::var("X");
    let _ = e::var_os("X");
    let _ = e::vars();
    let _ = e::vars_os();
    let _ = e::args();
    let _ = e::args_os();
    let _ = e::current_dir();
    let _ = e::current_exe();
    let _ = e::home_dir();
    let _ = e::temp_dir();
    let _ = cores();
}

pub fn containers() -> (Map<u32, u32>, Set<u32>) {
    (Map::new(), Set::new())
}

pub fn uncached(tech: &TechModel) -> P {
    P::build(tech, Volts(0.5), 50)
}
