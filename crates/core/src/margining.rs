//! Voltage margining (paper §4.2, Table 2, Fig 6).
//!
//! Near threshold, delay falls exponentially with supply voltage, so a few
//! extra millivolts can absorb the variation-induced tail. The paper's
//! procedure:
//!
//! 1. compute `fo4chipd` (q99, FO4 units) at the NTV operating point and at
//!    nominal voltage,
//! 2. scale the NTV chip delay by their ratio — i.e. set the **target
//!    delay** to what the chip *would* achieve at NTV if its relative
//!    variation were no worse than at nominal:
//!    `target_ns = fo4chipd@FV × FO4(VNTV)`,
//! 3. raise the supply in fine steps until the q99 chip delay (ns) at
//!    `V + Vm` meets the target.
//!
//! Step 3 uses common random numbers (the chip draws do not depend on
//! voltage), which makes q99(V + Vm) strictly decreasing in `Vm`
//! sample-by-sample and lets us bisect to 0.1 mV — the paper quotes margins
//! like "5.78 mV" at exactly this granularity.

use ntv_mc::CounterRng;
use ntv_units::Volts;
use serde::{Deserialize, Serialize};

use crate::engine::DatapathEngine;
use crate::exec::Executor;
use crate::overhead::DietSodaBudget;
use crate::perf;
use crate::quantile::{ChipQuantileSolver, Evaluation};

/// A solved voltage-margin design point (one Table 2 cell).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MarginSolution {
    /// NTV operating voltage.
    pub vdd: Volts,
    /// Required margin; final supply is `vdd + margin`.
    pub margin: Volts,
    /// Target chip delay (ns) — nominal-level variation at NTV speed.
    pub target_ns: f64,
    /// Achieved q99 chip delay (ns) at `vdd + margin`.
    pub achieved_ns: f64,
    /// Power overhead of the margin (fraction of PE power).
    pub power_overhead: f64,
}

/// The voltage-margining study for one engine.
#[derive(Debug, Clone)]
pub struct MarginStudy<'a> {
    engine: &'a DatapathEngine<'a>,
    budget: DietSodaBudget,
    exec: Executor,
    evaluation: Evaluation,
}

impl<'a> MarginStudy<'a> {
    /// Largest margin the solver will consider.
    pub const MAX_MARGIN: Volts = Volts(0.2);

    /// Study with the paper's Diet SODA budget.
    #[must_use]
    pub fn new(engine: &'a DatapathEngine<'a>) -> Self {
        Self {
            engine,
            budget: DietSodaBudget::paper(),
            exec: Executor::default(),
            evaluation: Evaluation::default(),
        }
    }

    /// Use an explicit executor (thread count) for the Monte-Carlo batches.
    /// Results are bit-identical for any choice.
    #[must_use]
    pub fn with_executor(mut self, exec: Executor) -> Self {
        self.exec = exec;
        self
    }

    /// How the q99 probes inside the solve loop are evaluated. The default
    /// ([`Evaluation::MonteCarlo`]) reproduces the historical outputs
    /// byte-for-byte; [`Evaluation::Analytic`] replaces every probe with
    /// the exact order-statistic quantile (`samples`/`seed` arguments are
    /// then ignored) and makes voltage sweeps noise-free and fast.
    #[must_use]
    pub fn with_evaluation(mut self, evaluation: Evaluation) -> Self {
        self.evaluation = evaluation;
        self
    }

    /// q99 chip delay (ns) at an effective supply voltage, with chip `i`
    /// addressed as `(seed, "margin-eval", i)` — common random numbers
    /// across voltages by construction.
    #[must_use]
    pub fn q99_ns_at(&self, vdd_effective: Volts, samples: usize, seed: u64) -> f64 {
        match self.evaluation {
            Evaluation::MonteCarlo => {
                let stream = CounterRng::new(seed, "margin-eval");
                self.engine
                    .chip_delay_distribution(vdd_effective, samples, &stream, self.exec)
                    .q99_ns()
            }
            Evaluation::Analytic => ChipQuantileSolver::new(self.engine).q99_ns(vdd_effective),
        }
    }

    /// Solve one Table 2 cell: the minimum margin at `vdd`, to 0.1 mV.
    ///
    /// # Panics
    ///
    /// Panics if even [`Self::MAX_MARGIN`] (200 mV) cannot reach the target,
    /// which does not occur for any calibrated node in the studied range.
    #[must_use]
    pub fn solve(&self, vdd: Volts, samples: usize, seed: u64) -> MarginSolution {
        let target_ns =
            perf::target_delay_ns(self.engine, self.evaluation, vdd, samples, seed, self.exec);
        let (margin, achieved_ns) = min_offset(Self::MAX_MARGIN, target_ns, |margin| {
            self.q99_ns_at(vdd + margin, samples, seed)
        });
        MarginSolution {
            vdd,
            margin,
            target_ns,
            achieved_ns,
            power_overhead: self.budget.margin_power_overhead(vdd, margin),
        }
    }
}

/// The smallest offset in `[0, cap]`, to 0.1 mV, at which `probe` meets
/// `target_ns`, and the probe's value there. The margin, DSE and body-bias
/// solves are all this search over a probe that is non-increasing in the
/// offset (a supply margin or a threshold shift).
///
/// Every probe is a pure function of its offset, so the values computed
/// during the search are reused instead of re-evaluated.
///
/// # Panics
///
/// Panics if even `cap` misses the target.
pub(crate) fn min_offset(cap: Volts, target_ns: f64, probe: impl Fn(Volts) -> f64) -> (Volts, f64) {
    const TOLERANCE: Volts = Volts(0.1e-3);
    let at_zero = probe(Volts::ZERO);
    if at_zero <= target_ns {
        return (Volts::ZERO, at_zero);
    }
    let at_cap = probe(cap);
    assert!(
        at_cap <= target_ns,
        "more than {cap} required to meet the target — outside the model's regime"
    );
    // Invariant: probe(lo) > target >= probe(hi) = achieved.
    let (mut lo, mut hi, mut achieved) = (Volts::ZERO, cap, at_cap);
    while hi - lo > TOLERANCE {
        let mid = 0.5 * (lo + hi);
        let value = probe(mid);
        if value <= target_ns {
            hi = mid;
            achieved = value;
        } else {
            lo = mid;
        }
    }
    (hi, achieved)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatapathConfig;
    use ntv_device::{TechModel, TechNode};

    const SAMPLES: usize = 2000;

    #[test]
    fn margins_match_table2_90nm() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = MarginStudy::new(&engine);
        // Paper: 5.8 mV @0.50V, 2.9 mV @0.60V, 1.7 mV @0.70V.
        let m050 = study.solve(Volts(0.50), SAMPLES, 1).margin.get() * 1000.0;
        let m060 = study.solve(Volts(0.60), SAMPLES, 1).margin.get() * 1000.0;
        let m070 = study.solve(Volts(0.70), SAMPLES, 1).margin.get() * 1000.0;
        assert!((2.0..=10.0).contains(&m050), "0.50V: {m050} mV (paper 5.8)");
        assert!((1.0..=6.0).contains(&m060), "0.60V: {m060} mV (paper 2.9)");
        assert!((0.5..=4.0).contains(&m070), "0.70V: {m070} mV (paper 1.7)");
        assert!(m050 > m060 && m060 > m070);
    }

    #[test]
    fn margins_larger_for_scaled_nodes() {
        // Table 2: 45 nm needs ~3x the 90 nm margin at the same voltage.
        let samples = 1500;
        let tech90 = TechModel::new(TechNode::Gp90);
        let engine90 = DatapathEngine::new(&tech90, DatapathConfig::paper_default());
        let m90 = MarginStudy::new(&engine90)
            .solve(Volts(0.55), samples, 2)
            .margin;
        let tech45 = TechModel::new(TechNode::Gp45);
        let engine45 = DatapathEngine::new(&tech45, DatapathConfig::paper_default());
        let m45 = MarginStudy::new(&engine45)
            .solve(Volts(0.55), samples, 2)
            .margin;
        assert!(m45 > 2.0 * m90, "45nm {m45} vs 90nm {m90}");
    }

    #[test]
    fn achieved_delay_meets_target() {
        let tech = TechModel::new(TechNode::PtmHp32);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let sol = MarginStudy::new(&engine).solve(Volts(0.6), SAMPLES, 3);
        assert!(sol.achieved_ns <= sol.target_ns);
        // 0.1 mV resolution: backing off the margin must miss the target.
        let study = MarginStudy::new(&engine);
        let back = study.q99_ns_at(sol.vdd + sol.margin - Volts(0.2e-3), SAMPLES, 3);
        assert!(back > sol.target_ns);
    }

    #[test]
    fn zero_margin_at_nominal() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let sol = MarginStudy::new(&engine).solve(Volts(1.0), SAMPLES, 4);
        // At the baseline voltage the target is met by construction
        // (same distribution up to MC noise).
        assert!(sol.margin < Volts(2e-3), "{}", sol.margin);
    }

    #[test]
    fn analytic_solve_matches_mc_and_is_noise_free() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let mc = MarginStudy::new(&engine).solve(Volts(0.50), 4000, 1);
        let study = MarginStudy::new(&engine).with_evaluation(Evaluation::Analytic);
        let an = study.solve(Volts(0.50), 4000, 1);
        // Same design point up to MC noise on the 4k-sample estimate.
        assert!(
            (an.margin.get() - mc.margin.get()).abs() < 2.0e-3,
            "analytic {} vs MC {}",
            an.margin,
            mc.margin
        );
        // Noise-free: the analytic margin is exactly tight at 0.1 mV.
        assert!(an.achieved_ns <= an.target_ns);
        let back = study.q99_ns_at(an.vdd + an.margin - Volts(0.2e-3), 0, 0);
        assert!(back > an.target_ns);
        // samples/seed are ignored on the analytic path.
        let again = study.solve(Volts(0.50), 17, 99);
        assert_eq!(again.margin.get().to_bits(), an.margin.get().to_bits());
        assert_eq!(again.achieved_ns.to_bits(), an.achieved_ns.to_bits());
    }

    #[test]
    fn power_overhead_tracks_budget() {
        let tech = TechModel::new(TechNode::PtmHp22);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let sol = MarginStudy::new(&engine).solve(Volts(0.55), 1500, 5);
        let expect = DietSodaBudget::paper().margin_power_overhead(Volts(0.55), sol.margin);
        assert!((sol.power_overhead - expect).abs() < 1e-12);
        // Table 2 scale: a couple of percent.
        assert!(sol.power_overhead > 0.001 && sol.power_overhead < 0.08);
    }
}
