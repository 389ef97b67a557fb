//! SIMD datapath configuration.

/// Shape of the modelled SIMD datapath.
///
/// The paper's configuration (§3.2) is 128 lanes × 100 critical paths per
/// lane × 50 FO4 stages per path: a synthesis report for Diet SODA showed
/// ~50 true critical paths per lane, doubled to account for near-critical
/// paths that become critical under near-threshold variation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DatapathConfig {
    /// Number of SIMD lanes (datapath width).
    pub lanes: usize,
    /// Critical (and near-critical) paths per lane.
    pub paths_per_lane: usize,
    /// FO4 stages per critical path.
    pub path_length: usize,
}

impl DatapathConfig {
    /// The paper's 128 × 100 × 50 configuration.
    ///
    /// # Example
    ///
    /// ```
    /// let c = ntv_core::DatapathConfig::paper_default();
    /// assert_eq!(c.lanes, 128);
    /// assert_eq!(c.critical_path_count(), 12_800);
    /// ```
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            lanes: 128,
            paths_per_lane: 100,
            path_length: 50,
        }
    }

    /// A custom configuration.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(lanes: usize, paths_per_lane: usize, path_length: usize) -> Self {
        assert!(lanes > 0, "a datapath needs at least one lane");
        assert!(
            paths_per_lane > 0,
            "a lane needs at least one critical path"
        );
        assert!(path_length > 0, "a path needs at least one stage");
        Self {
            lanes,
            paths_per_lane,
            path_length,
        }
    }

    /// Same shape with a different lane count (the error-policy study sets
    /// its clocks from a one-lane datapath's chip quantiles).
    #[must_use]
    pub fn with_lanes(self, lanes: usize) -> Self {
        Self::new(lanes, self.paths_per_lane, self.path_length)
    }

    /// Total critical paths across the datapath.
    #[must_use]
    pub fn critical_path_count(&self) -> usize {
        self.lanes * self.paths_per_lane
    }
}

impl Default for DatapathConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section_3_2() {
        let c = DatapathConfig::paper_default();
        assert_eq!((c.lanes, c.paths_per_lane, c.path_length), (128, 100, 50));
    }

    #[test]
    fn with_lanes_preserves_shape() {
        let c = DatapathConfig::paper_default().with_lanes(134);
        assert_eq!(c.lanes, 134);
        assert_eq!(c.paths_per_lane, 100);
        assert_eq!(c.path_length, 50);
    }

    #[test]
    #[should_panic(expected = "at least one lane")]
    fn zero_lanes_rejected() {
        let _ = DatapathConfig::new(0, 100, 50);
    }

    #[test]
    #[should_panic(expected = "at least one critical path")]
    fn zero_paths_rejected() {
        let _ = DatapathConfig::new(128, 0, 50);
    }
}
