//! Fixture: a public fn that only this file's tests call →
//! `ntv::test-only-api`.
//!
//! `settle` has a program caller (`report`), so it passes although the
//! tests call it too; `oracle` is reached from the `#[cfg(test)]` module
//! alone. `report` has no caller at all, which is not this rule's finding.

pub fn report(samples: &[u32]) -> u32 {
    settle(samples)
}

pub fn settle(samples: &[u32]) -> u32 {
    samples.iter().copied().max().unwrap_or(0)
}

pub fn oracle(samples: &[u32]) -> u32 {
    samples.iter().copied().fold(0, u32::max)
}

#[cfg(test)]
mod tests {
    #[test]
    fn settle_matches_the_oracle() {
        let xs = [3, 9, 4];
        assert_eq!(super::settle(&xs), super::oracle(&xs));
    }
}
