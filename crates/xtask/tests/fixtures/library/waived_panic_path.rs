//! Fixture: `ntv:allow(panic-path)` waivers stating the invariant silence
//! every shape of the rule.

pub fn head(values: &[f64]) -> f64 {
    pick(values)
}

fn pick(values: &[f64]) -> f64 {
    // ntv:allow(panic-path): public callers validate non-emptiness first
    values.first().copied().expect("non-empty input")
}

pub fn lane_value(table: &[f64], lane: usize) -> f64 {
    // ntv:allow(panic-path): documented panic; lane count is machine-fixed
    table[lane]
}
