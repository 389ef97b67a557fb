// Fixture: direct stateful-generator use in library code must trigger
// ntv::stateful-rng — the counter-based API (`CounterRng` streams and
// their `CounterDraws` cursors) is the only sanctioned entry point.
use rand::rngs::SmallRng;
use rand::SeedableRng;

pub fn sample(seed: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    rng.next_u64()
}
