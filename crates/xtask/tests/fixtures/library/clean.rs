//! Fixture: idiomatic library code — every rule passes.
//!
//! Exercises the machinery that must NOT fire: total float orderings,
//! documented expects, a valid waiver, `BTreeMap`, and a `#[cfg(test)]`
//! module whose panics are exempt.

use std::collections::BTreeMap;

/// Sorted copy, NaN-total.
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Deterministic tally.
pub fn tally(xs: &[u32]) -> BTreeMap<u32, usize> {
    let mut m = BTreeMap::new();
    for &x in xs {
        *m.entry(x).or_insert(0) += 1;
    }
    m
}

/// Documented invariant via `expect` is allowed, but on a public path the
/// invariant must also be waived for `ntv::panic-path`.
pub fn head(xs: &[u32]) -> u32 {
    // ntv:allow(panic-path): caller guarantees a non-empty slice
    *xs.first().expect("caller guarantees a non-empty slice")
}

/// A well-formed waiver suppresses the diagnostic on the next line.
pub fn waived(x: Option<u32>) -> u32 {
    match x {
        Some(v) => v,
        // ntv:allow(panic): fixture demonstrating a justified waiver
        None => panic!("caller passes Some"),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn panic_in_tests_is_fine() {
        let v: Option<u32> = Some(3);
        if v != Some(3) {
            panic!("expected Some(3)");
        }
    }
}
