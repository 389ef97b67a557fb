//! Variation-induced timing-fault injection.
//!
//! A lane whose critical path is slower than the clock period latches a
//! stale or metastable value. [`FaultModel`] assigns each *physical* lane a
//! per-operation error probability derived from the architecture-level
//! delay model: lanes whose sampled delay exceeds the clock period fail
//! every cycle (hard faults); lanes inside a small guard band below it
//! fail intermittently.
//!
//! Three handling policies (paper §4):
//!
//! * [`ErrorPolicy::Corrupt`] — no protection; erroneous lanes silently
//!   produce wrong data (the baseline that motivates mitigation),
//! * [`ErrorPolicy::StallRetry`] — errors are detected and the whole SIMD
//!   array stalls and re-executes; correct results, but *"an error
//!   encountered in one SIMD lane causes the other lanes to stall, flush
//!   and execute the same operations again"* — the penalty the paper
//!   argues makes scalar-style recovery unattractive for wide SIMD,
//! * [`ErrorPolicy::SpareRemap`] — faulty lanes are identified at test
//!   time and bypassed through the XRAM crossbar (structural duplication);
//!   residual intermittent errors on healthy lanes remain.

use ntv_core::DatapathEngine;
use ntv_mc::CounterDraws;
use ntv_units::Volts;

/// How the PE responds to variation-induced timing errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ErrorPolicy {
    /// Errors propagate into results.
    Corrupt,
    /// Detect-and-replay across the whole SIMD array.
    StallRetry,
    /// Test-time spare remapping through the crossbar.
    #[default]
    SpareRemap,
}

impl std::fmt::Display for ErrorPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorPolicy::Corrupt => "corrupt",
            ErrorPolicy::StallRetry => "stall-retry",
            ErrorPolicy::SpareRemap => "spare-remap",
        };
        f.write_str(s)
    }
}

/// Per-physical-lane timing-error probabilities for one fabricated chip at
/// one operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    error_prob: Vec<f64>,
}

impl FaultModel {
    /// A fault-free model over `lanes` physical lanes.
    #[must_use]
    pub fn none(lanes: usize) -> Self {
        Self {
            error_prob: vec![0.0; lanes],
        }
    }

    /// Model from explicit per-lane error probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any probability is outside `[0, 1]`.
    #[must_use]
    pub fn from_probabilities(error_prob: Vec<f64>) -> Self {
        assert!(
            error_prob.iter().all(|p| (0.0..=1.0).contains(p)),
            "error probabilities must lie in [0, 1]"
        );
        Self { error_prob }
    }

    /// Model from sampled lane delays (FO4 units) against a clock period.
    ///
    /// Lanes slower than `t_clk_fo4` fail deterministically; lanes within
    /// `guard_band` (fractional, e.g. 0.02 = 2 %) below it fail with a
    /// probability ramping linearly from 0 to 1 across the band.
    ///
    /// # Panics
    ///
    /// Panics if `t_clk_fo4 <= 0` or `guard_band < 0`.
    #[must_use]
    pub fn from_lane_delays(delays_fo4: &[f64], t_clk_fo4: f64, guard_band: f64) -> Self {
        assert!(t_clk_fo4 > 0.0, "clock period must be positive");
        assert!(guard_band >= 0.0, "guard band cannot be negative");
        let band_start = t_clk_fo4 * (1.0 - guard_band);
        let probs = delays_fo4
            .iter()
            .map(|&d| {
                if d > t_clk_fo4 {
                    1.0
                } else if guard_band > 0.0 && d > band_start {
                    (d - band_start) / (t_clk_fo4 - band_start)
                } else {
                    0.0
                }
            })
            .collect();
        Self { error_prob: probs }
    }

    /// Sample one fabricated chip from the architecture-level variation
    /// model: `lanes + spares` physical lanes at `vdd`, clocked at
    /// `t_clk_ns`.
    #[must_use]
    pub fn from_engine(
        engine: &DatapathEngine<'_>,
        vdd: Volts,
        t_clk_ns: f64,
        spares: usize,
        guard_band: f64,
        rng: &mut CounterDraws,
    ) -> Self {
        let physical = engine.config().lanes + spares;
        let delays = engine.sample_lane_delays_fo4(vdd, physical, rng);
        let t_clk_fo4 = t_clk_ns * 1000.0 / engine.fo4_unit_ps(vdd);
        Self::from_lane_delays(&delays, t_clk_fo4, guard_band)
    }

    /// Number of physical lanes.
    #[must_use]
    pub fn physical_lanes(&self) -> usize {
        self.error_prob.len()
    }

    /// Per-operation error probability of physical lane `lane`.
    #[cfg(test)]
    fn error_probability(&self, lane: usize) -> f64 {
        self.error_prob[lane]
    }

    /// Physical lanes whose error probability exceeds `threshold` — the
    /// set a test-time screen would mark faulty.
    #[must_use]
    pub fn faulty_lanes(&self, threshold: f64) -> Vec<usize> {
        self.error_prob
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > threshold)
            .map(|(l, _)| l)
            .collect()
    }

    /// Draw the set of physical lanes that err on one operation.
    pub fn sample_errors(&self, rng: &mut CounterDraws) -> Vec<usize> {
        self.error_prob
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0 && (p >= 1.0 || rng.uniform() < p))
            .map(|(l, _)| l)
            .collect()
    }

    /// Whether any lane can ever err.
    #[must_use]
    pub fn is_fault_free(&self) -> bool {
        self.error_prob.iter().all(|&p| p == 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntv_core::DatapathConfig;
    use ntv_device::{TechModel, TechNode};
    use ntv_mc::CounterRng;

    #[test]
    fn delays_map_to_probabilities() {
        let fm = FaultModel::from_lane_delays(&[50.0, 54.9, 55.5, 60.0], 55.0, 0.02);
        assert_eq!(fm.error_probability(0), 0.0);
        assert!(fm.error_probability(1) > 0.8 && fm.error_probability(1) < 1.0);
        assert_eq!(fm.error_probability(2), 1.0);
        assert_eq!(fm.error_probability(3), 1.0);
        assert_eq!(fm.faulty_lanes(0.5), vec![1, 2, 3]);
    }

    #[test]
    fn zero_guard_band_is_a_step() {
        let fm = FaultModel::from_lane_delays(&[54.999, 55.001], 55.0, 0.0);
        assert_eq!(fm.error_probability(0), 0.0);
        assert_eq!(fm.error_probability(1), 1.0);
    }

    #[test]
    fn sample_errors_respects_probabilities() {
        let fm = FaultModel::from_probabilities(vec![0.0, 1.0, 0.5]);
        let mut rng = CounterRng::new(5, "sample_errors_respects_probabilities").at(0);
        let mut hits = [0u32; 3];
        for _ in 0..2000 {
            for l in fm.sample_errors(&mut rng) {
                hits[l] += 1;
            }
        }
        assert_eq!(hits[0], 0);
        assert_eq!(hits[1], 2000);
        assert!((900..1100).contains(&hits[2]), "{}", hits[2]);
    }

    #[test]
    fn fault_free_detection() {
        assert!(FaultModel::none(8).is_fault_free());
        assert!(!FaultModel::from_probabilities(vec![0.0, 0.1]).is_fault_free());
    }

    #[test]
    fn from_engine_produces_faults_at_tight_clocks() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let mut rng = CounterRng::new(3, "from_engine_produces_faults_at_tight_clocks").at(0);
        // A clock barely above the ideal 50-FO4 path at 0.5 V: many lanes miss it.
        let tight_ns = 51.0 * engine.fo4_unit_ps(Volts(0.5)) / 1000.0;
        let fm = FaultModel::from_engine(&engine, Volts(0.5), tight_ns, 6, 0.0, &mut rng);
        assert_eq!(fm.physical_lanes(), 134);
        assert!(!fm.faulty_lanes(0.5).is_empty());
        // A generous clock: fault-free.
        let loose_ns = 80.0 * engine.fo4_unit_ps(Volts(0.5)) / 1000.0;
        let fm = FaultModel::from_engine(&engine, Volts(0.5), loose_ns, 6, 0.0, &mut rng);
        assert!(fm.is_fault_free());
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn invalid_probability_rejected() {
        let _ = FaultModel::from_probabilities(vec![1.5]);
    }
}
