//! Fixture: idiomatic library code — every rule passes.
//!
//! Exercises the machinery that must NOT fire: total float orderings,
//! documented expects under valid waivers, and a `#[cfg(test)]` module
//! whose casts are exempt.

/// Sorted copy, NaN-total.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Documented invariant via `expect` is allowed, but on a public path the
/// invariant must also be waived for `ntv::panic-path`.
pub fn head(xs: &[u32]) -> u32 {
    // ntv:allow(panic-path): caller guarantees a non-empty slice
    *xs.first().expect("caller guarantees a non-empty slice")
}

/// A well-formed waiver suppresses the diagnostic on the next line.
pub fn waived(x: Option<u32>) -> u32 {
    // ntv:allow(panic-path): fixture demonstrating a justified waiver
    x.expect("caller passes Some")
}

#[cfg(test)]
mod tests {
    #[test]
    fn casts_in_tests_are_fine() {
        let n = 2.5_f64 as usize;
        assert_eq!(n, 2);
    }
}
