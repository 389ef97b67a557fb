//! Fixture: a well-formed waiver that suppresses no finding →
//! `ntv::dead-waiver` under `--check-waivers` (clean otherwise).

pub fn scaled(x: f64) -> f64 {
    // ntv:allow(panic-path): nothing on this path can fail
    x * 2.0
}
