//! Fixture: malformed waiver comments → `ntv::bad-waiver`.

// ntv:allow(panic)
pub fn missing_reason() -> u32 {
    todo!()
}

// ntv:allow(not-a-rule): the rule name does not exist
pub fn unknown_rule() -> u32 {
    7
}
