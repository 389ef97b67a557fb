//! Fixture: malformed waiver comments → `ntv::bad-waiver`.

// ntv:allow(panic-path)
pub fn missing_reason(xs: &[u32]) -> u32 {
    *xs.first().expect("caller passes a non-empty slice")
}

// ntv:allow(not-a-rule): the rule name does not exist
pub fn unknown_rule() -> u32 {
    7
}
