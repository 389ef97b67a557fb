//! The XRAM 128×128 crossbar (SIMD shuffle network).
//!
//! Satpathy et al.'s XRAM stores shuffle configurations *inside* the
//! crossbar's cross points (SRAM-cell topology), so switching between
//! pre-loaded permutations is a single-cycle operation. Diet SODA uses it
//! for data alignment (2-D access patterns, FFT butterflies) and the paper
//! reuses it for **global spare-lane bypass** (Appendix D, Fig 12): faulty
//! functional units identified at test time are simply never selected as
//! crossbar outputs.

/// One stored shuffle configuration: `output[i] = input[select[i]]`.
///
/// Multicast is allowed (several outputs may select the same input), as in
/// the real XRAM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShuffleConfig {
    select: Vec<usize>,
}

impl ShuffleConfig {
    /// Configuration from an explicit per-output source-lane table.
    ///
    /// # Panics
    ///
    /// Panics if any source index is out of range for the config's width.
    #[must_use]
    pub fn new(select: Vec<usize>) -> Self {
        let width = select.len();
        assert!(width > 0, "a shuffle needs at least one lane");
        for (out, &src) in select.iter().enumerate() {
            assert!(src < width, "output {out} selects nonexistent input {src}");
        }
        Self { select }
    }

    /// Butterfly exchange used by FFT stage `stage`: lane `i` reads from
    /// lane `i XOR 2^stage`.
    ///
    /// # Panics
    ///
    /// Panics if `2^stage >= width` or `width` is not a power of two.
    #[must_use]
    pub fn butterfly(width: usize, stage: u32) -> Self {
        assert!(
            width.is_power_of_two(),
            "butterfly needs a power-of-two width"
        );
        let span = 1usize << stage;
        assert!(span < width, "butterfly span {span} exceeds width {width}");
        Self::new((0..width).map(|i| i ^ span).collect())
    }

    /// Cyclic rotation by `shift` lanes (lane `i` reads from
    /// `(i + shift) mod width`) — the alignment shuffle for strided loads.
    #[must_use]
    pub fn rotate(width: usize, shift: usize) -> Self {
        Self::new((0..width).map(|i| (i + shift) % width).collect())
    }

    /// Lane count.
    #[must_use]
    pub fn width(&self) -> usize {
        self.select.len()
    }

    /// Apply the shuffle to a data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the configuration width.
    pub fn apply<T: Copy>(&self, data: &[T]) -> Vec<T> {
        assert_eq!(data.len(), self.width(), "data width mismatch");
        self.select.iter().map(|&s| data[s]).collect()
    }
}

/// Constructors and checks that only the tests below use.
#[cfg(test)]
impl ShuffleConfig {
    /// The identity shuffle of the given width.
    fn identity(width: usize) -> Self {
        Self::new((0..width).collect())
    }

    /// Broadcast lane `src` to every output.
    fn broadcast(width: usize, src: usize) -> Self {
        Self::new(vec![src; width])
    }

    /// Whether the configuration is a permutation (no multicast).
    fn is_permutation(&self) -> bool {
        let mut seen = vec![false; self.select.len()];
        for &s in &self.select {
            if seen[s] {
                return false;
            }
            seen[s] = true;
        }
        true
    }
}

/// Logical-to-physical lane mapping for global spare bypass (Appendix D).
///
/// A datapath fabricated with `physical` lanes of which some are marked
/// faulty at test time exposes `physical − faulty` usable lanes; the map
/// routes logical lane `l` to the `l`-th healthy physical lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneMap {
    to_physical: Vec<usize>,
    physical: usize,
}

impl LaneMap {
    /// Identity map over `lanes` healthy physical lanes.
    #[must_use]
    pub fn identity(lanes: usize) -> Self {
        Self {
            to_physical: (0..lanes).collect(),
            physical: lanes,
        }
    }

    /// Map `logical` lanes onto `physical` lanes, skipping `faulty` ones.
    ///
    /// # Errors
    ///
    /// Returns [`NotEnoughLanes`] when fewer than `logical` healthy lanes
    /// remain — the condition in which local sparing schemes give up and
    /// the chip must be slowed down or margined instead.
    pub fn with_faulty(
        logical: usize,
        physical: usize,
        faulty: &[usize],
    ) -> Result<Self, NotEnoughLanes> {
        let mut is_faulty = vec![false; physical];
        for &f in faulty {
            assert!(f < physical, "faulty lane {f} out of range");
            is_faulty[f] = true;
        }
        let healthy: Vec<usize> = (0..physical).filter(|&l| !is_faulty[l]).collect();
        if healthy.len() < logical {
            return Err(NotEnoughLanes {
                needed: logical,
                healthy: healthy.len(),
            });
        }
        Ok(Self {
            // ntv:allow(panic-path): healthy.len() >= logical checked just above
            to_physical: healthy[..logical].to_vec(),
            physical,
        })
    }

    /// Number of logical lanes.
    #[must_use]
    pub fn logical_lanes(&self) -> usize {
        self.to_physical.len()
    }

    /// Number of physical lanes behind the map.
    #[must_use]
    pub fn physical_lanes(&self) -> usize {
        self.physical
    }

    /// Physical lane backing logical lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[must_use]
    pub fn physical(&self, l: usize) -> usize {
        // ntv:allow(panic-path): documented panic (see `# Panics`); map width equals logical_lanes()
        self.to_physical[l]
    }
}

/// Error: not enough healthy lanes to satisfy the logical width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotEnoughLanes {
    /// Logical lanes requested.
    pub needed: usize,
    /// Healthy physical lanes available.
    pub healthy: usize,
}

impl std::fmt::Display for NotEnoughLanes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "need {} healthy lanes but only {} remain",
            self.needed, self.healthy
        )
    }
}

impl std::error::Error for NotEnoughLanes {}

/// The crossbar: a bank of stored [`ShuffleConfig`]s plus the active lane
/// map.
#[derive(Debug, Clone, PartialEq)]
pub struct XramCrossbar {
    width: usize,
    configs: Vec<ShuffleConfig>,
    lane_map: LaneMap,
}

impl XramCrossbar {
    /// A crossbar of the given width with an identity lane map and no
    /// stored configurations.
    #[must_use]
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "crossbar width must be positive");
        Self {
            width,
            configs: Vec::new(),
            lane_map: LaneMap::identity(width),
        }
    }

    /// Crossbar width.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Store a configuration, returning its slot index.
    ///
    /// # Panics
    ///
    /// Panics if the configuration width mismatches the crossbar.
    pub fn store(&mut self, config: ShuffleConfig) -> usize {
        assert_eq!(config.width(), self.width, "configuration width mismatch");
        self.configs.push(config);
        self.configs.len() - 1
    }

    /// Stored configuration by slot.
    #[must_use]
    pub fn config(&self, slot: usize) -> Option<&ShuffleConfig> {
        self.configs.get(slot)
    }

    /// Replace the active lane map (test-time spare bypass).
    ///
    /// # Panics
    ///
    /// Panics if the map's logical width mismatches the crossbar.
    pub fn set_lane_map(&mut self, map: LaneMap) {
        assert_eq!(map.logical_lanes(), self.width, "lane map width mismatch");
        self.lane_map = map;
    }

    /// The active lane map.
    #[must_use]
    pub fn lane_map(&self) -> &LaneMap {
        &self.lane_map
    }

    /// Apply stored configuration `slot` to `data`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not exist or `data` width mismatches; check
    /// the slot with [`Self::config`] to handle a missing one without
    /// panicking.
    pub fn shuffle<T: Copy>(&self, slot: usize, data: &[T]) -> Vec<T> {
        assert!(
            slot < self.configs.len(),
            "no stored shuffle configuration in slot {slot}"
        );
        // ntv:allow(panic-path): slot bound asserted just above; `config` is the total lookup
        self.configs[slot].apply(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_round_trip() {
        let c = ShuffleConfig::identity(8);
        let data: Vec<i16> = (0..8).collect();
        assert_eq!(c.apply(&data), data);
        assert!(c.is_permutation());
    }

    #[test]
    fn butterfly_is_an_involution() {
        let c = ShuffleConfig::butterfly(16, 2);
        let data: Vec<i16> = (0..16).collect();
        let once = c.apply(&data);
        assert_ne!(once, data);
        assert_eq!(c.apply(&once), data);
        assert!(c.is_permutation());
    }

    #[test]
    fn rotation_shifts() {
        let c = ShuffleConfig::rotate(4, 1);
        assert_eq!(c.apply(&[10, 20, 30, 40]), vec![20, 30, 40, 10]);
    }

    #[test]
    fn broadcast_is_multicast() {
        let c = ShuffleConfig::broadcast(4, 2);
        assert_eq!(c.apply(&[1, 2, 3, 4]), vec![3, 3, 3, 3]);
        assert!(!c.is_permutation());
    }

    #[test]
    fn lane_map_skips_faulty() {
        // Appendix D example: 10 physical lanes (8 + 2 spares), lanes 2 and
        // 3 faulty; all 8 logical lanes remain usable.
        let map = LaneMap::with_faulty(8, 10, &[2, 3]).expect("repairable");
        assert_eq!(map.logical_lanes(), 8);
        let backing: Vec<usize> = (0..8).map(|l| map.physical(l)).collect();
        assert_eq!(backing, vec![0, 1, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn lane_map_reports_unrepairable() {
        let err = LaneMap::with_faulty(8, 9, &[0, 1]).expect_err("too many faults");
        assert_eq!(err.needed, 8);
        assert_eq!(err.healthy, 7);
        assert!(err.to_string().contains("only 7 remain"));
    }

    #[test]
    fn crossbar_stores_and_applies() {
        let mut x = XramCrossbar::new(4);
        let rot = x.store(ShuffleConfig::rotate(4, 2));
        let bcast = x.store(ShuffleConfig::broadcast(4, 0));
        assert_eq!(x.shuffle(rot, &[1, 2, 3, 4]), vec![3, 4, 1, 2]);
        assert_eq!(x.shuffle(bcast, &[7, 2, 3, 4]), vec![7, 7, 7, 7]);
    }

    #[test]
    #[should_panic(expected = "no stored shuffle configuration")]
    fn missing_slot_panics() {
        let x = XramCrossbar::new(4);
        let _ = x.shuffle(0, &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "nonexistent input")]
    fn invalid_select_rejected() {
        let _ = ShuffleConfig::new(vec![0, 5, 1, 2]);
    }
}
