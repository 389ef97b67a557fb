//! Fixture: environment and host reads in library code → `ntv::env-read`.
//!
//! Three shapes: an `env::var` read, an `env::args` read, and the
//! `available_parallelism` host probe.

pub fn seed_from_env() -> u64 {
    std::env::var("NTV_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

pub fn first_arg() -> Option<String> {
    std::env::args().nth(1)
}

pub fn worker_count() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}
