//! Fixture: `ntv:allow(dead-waiver)` shields an intentionally idle waiver
//! (kept for a feature-gated code path) from `--check-waivers`.

pub fn scaled(x: f64) -> f64 {
    // ntv:allow(dead-waiver): the panic-path waiver covers a cfg-gated path
    // ntv:allow(panic-path): the gated code path panics on a failed conversion
    x * 2.0
}
