//! Fixture: deliberate test support with a waiver naming the tests it
//! serves, and a test-only helper narrowed to `#[cfg(test)]` — both pass.

pub fn report(samples: &[u32]) -> u32 {
    settle(samples)
}

pub fn settle(samples: &[u32]) -> u32 {
    samples.iter().copied().max().unwrap_or(0)
}

// ntv:allow(test-only-api): the oracle of this file's settle test and of tests/props.rs
pub fn oracle(samples: &[u32]) -> u32 {
    samples.iter().copied().fold(0, u32::max)
}

#[cfg(test)]
fn scratch(samples: &[u32]) -> Vec<u32> {
    samples.to_vec()
}

#[cfg(test)]
mod tests {
    #[test]
    fn settle_matches_the_oracle() {
        let xs = super::scratch(&[3, 9, 4]);
        assert_eq!(super::settle(&xs), super::oracle(&xs));
    }
}
