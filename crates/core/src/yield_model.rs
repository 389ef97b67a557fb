//! Timing yield: the fraction of fabricated chips that meet a clock
//! period at a given operating point.
//!
//! The paper's fixed statistic is the 99 % chip-delay point (a 99 % yield
//! target); this module generalizes it into the timing yield at any clock
//! period — the points of the yield-vs-frequency curve a design team
//! sweeps when choosing the shipping bin. Also provides the inverse query
//! (the clock achieving a yield target) and yield under structural
//! duplication.

use ntv_mc::CounterRng;
use ntv_units::Volts;

use crate::duplication::LaneDelayMatrix;
use crate::engine::DatapathEngine;
use crate::exec::Executor;

/// Timing-yield queries for one engine.
#[derive(Debug, Clone)]
pub struct YieldStudy<'a> {
    engine: &'a DatapathEngine<'a>,
    exec: Executor,
}

impl<'a> YieldStudy<'a> {
    /// Study wrapping an engine.
    #[must_use]
    pub fn new(engine: &'a DatapathEngine<'a>) -> Self {
        Self {
            engine,
            exec: Executor::default(),
        }
    }

    /// Use an explicit executor (thread count) for the Monte-Carlo batches.
    /// Results are bit-identical for any choice.
    #[must_use]
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// Chip-delay samples (ns), `(seed, "yield", i)`-addressed.
    fn chip_delays_ns(&self, vdd: Volts, samples: usize, seed: u64) -> Vec<f64> {
        let stream = CounterRng::new(seed, "yield");
        let fo4 = self.engine.fo4_unit_ps(vdd);
        self.engine
            .sample_batch(vdd, &stream, 0..samples as u64, self.exec)
            .into_iter()
            .map(|d| d * fo4 / 1000.0)
            .collect()
    }

    /// Timing yield at `vdd` for a clock period, from `samples` chips.
    #[must_use]
    pub fn timing_yield(&self, vdd: Volts, t_clk_ns: f64, samples: usize, seed: u64) -> f64 {
        let ok = self
            .chip_delays_ns(vdd, samples, seed)
            .iter()
            .filter(|&&d| d <= t_clk_ns)
            .count();
        ok as f64 / samples as f64
    }

    /// The smallest clock period (ns) achieving `target` yield.
    ///
    /// # Panics
    ///
    /// Panics if `target` is outside `(0, 1]`.
    #[must_use]
    pub fn period_for_yield(&self, vdd: Volts, target: f64, samples: usize, seed: u64) -> f64 {
        assert!(
            target > 0.0 && target <= 1.0,
            "yield target must be in (0,1]"
        );
        let delays_ns = self.chip_delays_ns(vdd, samples, seed);
        ntv_mc::Quantiles::from_samples(delays_ns).quantile(target.min(1.0))
    }

    /// Yield of a duplicated system from a pre-sampled lane matrix.
    #[must_use]
    pub fn yield_with_spares(&self, matrix: &LaneDelayMatrix, spares: u32, t_clk_ns: f64) -> f64 {
        let dist = matrix.chip_delay_with_spares(spares);
        let t_clk_fo4 = t_clk_ns * 1000.0 / dist.fo4_unit_ps;
        let ok = dist
            .fo4_quantiles
            .as_sorted_slice()
            .iter()
            .filter(|&&d| d <= t_clk_fo4)
            .count();
        ok as f64 / dist.sample_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatapathConfig;
    use crate::duplication::DuplicationStudy;
    use ntv_device::{TechModel, TechNode};

    const SAMPLES: usize = 2000;

    #[test]
    fn q99_point_has_99_percent_yield() {
        let tech = TechModel::new(TechNode::Gp45);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = YieldStudy::new(&engine);
        let period = study.period_for_yield(Volts(0.6), 0.99, SAMPLES, 2);
        let y = study.timing_yield(Volts(0.6), period, SAMPLES, 2);
        assert!((y - 0.99).abs() < 0.005, "yield at q99 period: {y}");
    }

    #[test]
    fn spares_raise_yield_at_a_fixed_clock() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = YieldStudy::new(&engine);
        let dup = DuplicationStudy::new(&engine);
        let matrix = dup.sample_matrix(Volts(0.55), 16, SAMPLES, 3);
        // Clock at the unspared 90% point: ~90% yield without spares.
        let t_clk = study.period_for_yield(Volts(0.55), 0.90, SAMPLES, 3);
        let y0 = study.yield_with_spares(&matrix, 0, t_clk);
        let y8 = study.yield_with_spares(&matrix, 8, t_clk);
        let y16 = study.yield_with_spares(&matrix, 16, t_clk);
        assert!(y8 > y0, "{y8} vs {y0}");
        assert!(y16 >= y8);
    }

    #[test]
    #[should_panic(expected = "yield target")]
    fn invalid_target_rejected() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let _ = YieldStudy::new(&engine).period_for_yield(Volts(0.6), 0.0, 10, 1);
    }
}
