//! Fixture: panicking operations reachable from public API →
//! `ntv::panic-path`.
//!
//! Both shapes: a `.expect(..)` in a private helper called from a
//! `pub fn`, and slice indexing by a caller-supplied parameter.

pub fn head(values: &[f64]) -> f64 {
    pick(values)
}

fn pick(values: &[f64]) -> f64 {
    values.first().copied().expect("non-empty input")
}

pub fn lane_value(table: &[f64], lane: usize) -> f64 {
    table[lane]
}
