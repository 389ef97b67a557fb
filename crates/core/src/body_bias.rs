//! Adaptive body bias (ABB) as a fourth mitigation technique.
//!
//! The paper's related work (§5) points at EVAL [Sarangi et al., MICRO'08],
//! which trades variation-induced errors against power with techniques
//! like ABB/ASV. This module extends the paper's §4 menu with the ABB
//! option: a forward body bias lowers the effective threshold voltage of
//! the near-threshold domain, which — like a supply margin — speeds every
//! path up exponentially, but pays in sub-threshold **leakage**
//! (`I_off ∝ exp(ΔVth_bias/(n·φt))`) instead of switching power.
//!
//! The solver mirrors [`crate::margining`]: find the smallest threshold
//! reduction that brings the q99 chip delay back to the nominal-variation
//! target, then price it.

use ntv_device::{DeviceParams, TechModel};
use ntv_mc::{order, CounterRng, Quantiles};
use ntv_units::Volts;

use crate::engine::DatapathEngine;
use crate::exec::Executor;
use crate::margining::min_offset;
use crate::overhead::DietSodaBudget;
use crate::perf;

/// A solved body-bias design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BodyBiasSolution {
    /// NTV operating voltage.
    pub vdd: Volts,
    /// Required forward body bias expressed as a threshold reduction.
    pub vth_shift: Volts,
    /// Target chip delay (ns).
    pub target_ns: f64,
    /// Achieved q99 chip delay (ns).
    pub achieved_ns: f64,
    /// Leakage-driven power overhead (fraction of PE power).
    pub power_overhead: f64,
}

/// The adaptive-body-bias study for one engine.
///
/// # Example
///
/// ```
/// use ntv_core::body_bias::BodyBiasStudy;
/// use ntv_core::{DatapathConfig, DatapathEngine};
/// use ntv_device::{TechModel, TechNode};
/// use ntv_units::Volts;
///
/// let tech = TechModel::new(TechNode::Gp90);
/// let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
/// let sol = BodyBiasStudy::new(&engine).solve(Volts(0.6), 1_000, 1);
/// // A few millivolts of threshold reduction suffice at 90 nm.
/// assert!(sol.vth_shift > Volts::ZERO && sol.vth_shift < Volts(0.05));
/// ```
#[derive(Debug, Clone)]
pub struct BodyBiasStudy<'a> {
    engine: &'a DatapathEngine<'a>,
    budget: DietSodaBudget,
    exec: Executor,
}

impl<'a> BodyBiasStudy<'a> {
    /// Largest threshold shift considered.
    pub const MAX_SHIFT: Volts = Volts(0.1);

    /// Fraction of NTV-domain power that is leakage at zero bias (sets the
    /// cost of exp-growing it). Diet SODA-class near-threshold logic runs
    /// around 15 % leakage share.
    pub const LEAKAGE_SHARE: f64 = 0.15;

    /// Study with the paper budget and [`Self::LEAKAGE_SHARE`].
    #[must_use]
    pub fn new(engine: &'a DatapathEngine<'a>) -> Self {
        Self {
            engine,
            budget: DietSodaBudget::paper(),
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

    /// q99 chip delay (ns) at `vdd` with the threshold lowered by `shift`.
    ///
    /// Evaluated on a biased copy of the device model with common random
    /// numbers, exactly like the margining solver.
    #[must_use]
    pub fn q99_ns_with_bias(&self, vdd: Volts, shift: Volts, samples: usize, seed: u64) -> f64 {
        let biased = biased_tech(self.engine.tech(), shift);
        let config = *self.engine.config();
        // Unconditional normal fit of the biased path distribution, as in
        // VariationMode::PaperNormal (quadrature over systematic draws). A
        // shifted parameter set gets a private cache; a zero shift is the
        // calibrated set, so the global cache serves it.
        let dist = DatapathEngine::new(&biased, config).path_distribution(vdd);
        let stream = CounterRng::new(seed, "abb-eval");
        let n = config.critical_path_count();
        let samples_ns: Vec<f64> = self.exec.map_indexed(samples as u64, |i| {
            let mut draws = stream.at(i);
            order::sample_max_normal(&mut draws, n, dist.mean_ps(), dist.std_ps()) / 1000.0
        });
        Quantiles::from_samples(samples_ns).q99()
    }

    /// Leakage-driven power overhead of a threshold reduction.
    ///
    /// NTV-domain leakage grows `exp(shift/(n·φt))`; weighted by the
    /// leakage share and the NTV-domain power fraction.
    #[must_use]
    pub fn power_overhead(&self, shift: Volts) -> f64 {
        let p = self.engine.tech().params();
        let growth = (shift / (p.slope_n * ntv_device::params::THERMAL_VOLTAGE)).exp();
        self.budget.ntv_power_fraction * Self::LEAKAGE_SHARE * (growth - 1.0)
    }

    /// Solve for the minimum threshold shift (to 0.1 mV) meeting the
    /// §4.2-style target delay at `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if [`Self::MAX_SHIFT`] cannot reach the target.
    #[must_use]
    pub fn solve(&self, vdd: Volts, samples: usize, seed: u64) -> BodyBiasSolution {
        // Scaled by the engine's FO4 unit, not the variation-free one of
        // `perf::target_delay_ns`: ROADMAP's "One FO4 unit, one target,
        // one evaluator" item merges the two.
        let target_ns = perf::baseline_q99_fo4(self.engine, samples, seed, self.exec)
            * self.engine.fo4_unit_ps(vdd)
            / 1000.0;
        let (vth_shift, achieved_ns) = min_offset(Self::MAX_SHIFT, target_ns, |shift| {
            self.q99_ns_with_bias(vdd, shift, samples, seed)
        });
        BodyBiasSolution {
            vdd,
            vth_shift,
            target_ns,
            achieved_ns,
            power_overhead: self.power_overhead(vth_shift),
        }
    }
}

/// A copy of the technology model with the threshold lowered by `shift`
/// (forward body bias).
fn biased_tech(tech: &TechModel, shift: Volts) -> TechModel {
    let params = DeviceParams {
        vth0: tech.params().vth0 - shift,
        ..*tech.params()
    };
    TechModel::from_params(params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatapathConfig;
    use ntv_device::TechNode;

    const SAMPLES: usize = 1500;

    #[test]
    fn bias_speeds_the_chip_up() {
        let tech = TechModel::new(TechNode::Gp45);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = BodyBiasStudy::new(&engine);
        let d0 = study.q99_ns_with_bias(Volts(0.6), Volts::ZERO, SAMPLES, 1);
        let d20 = study.q99_ns_with_bias(Volts(0.6), Volts(0.020), SAMPLES, 1);
        assert!(d20 < d0, "{d20} vs {d0}");
    }

    #[test]
    fn solution_meets_target_at_minimal_shift() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = BodyBiasStudy::new(&engine);
        let sol = study.solve(Volts(0.55), SAMPLES, 2);
        assert!(sol.achieved_ns <= sol.target_ns);
        assert!(
            sol.vth_shift > Volts::ZERO && sol.vth_shift < Volts(0.03),
            "{}",
            sol.vth_shift
        );
        // Backing off misses the target.
        let back = study.q99_ns_with_bias(Volts(0.55), sol.vth_shift - Volts(0.3e-3), SAMPLES, 2);
        assert!(back > sol.target_ns);
    }

    #[test]
    fn shift_tracks_the_margin_solution_scale() {
        // A body-bias shift is worth roughly S(V)/ (dlnD/dV) supply
        // millivolts; both solvers should land in the same few-mV regime.
        let tech = TechModel::new(TechNode::PtmHp32);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let bias = BodyBiasStudy::new(&engine).solve(Volts(0.6), SAMPLES, 3);
        let margin = crate::margining::MarginStudy::new(&engine).solve(Volts(0.6), SAMPLES, 3);
        assert!(bias.vth_shift < 3.0 * margin.margin + Volts(5e-3));
        assert!(bias.vth_shift > 0.2 * margin.margin);
    }

    #[test]
    fn leakage_overhead_grows_exponentially() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = BodyBiasStudy::new(&engine);
        let p10 = study.power_overhead(Volts(0.010));
        let p40 = study.power_overhead(Volts(0.040));
        assert!(p40 > 3.0 * p10, "{p40} vs {p10}");
        assert_eq!(study.power_overhead(Volts::ZERO), 0.0);
    }
}
