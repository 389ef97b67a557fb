//! Combined duplication + voltage-margin design-space exploration
//! (paper §4.4, Table 3, Fig 8).
//!
//! For a 128-wide system at a given NTV operating point, each candidate
//! spare count α needs some residual voltage margin `Vm(α)` to reach the
//! target delay; the total power overhead `P_dup(α) + P_margin(Vm(α))` is
//! convex-ish in α, and the paper's headline example (45 nm @600 mV) finds
//! the optimum at (2 spares, 10 mV) ≈ 1.7 %, beating duplication-only
//! (26 spares, 4.3 %) and margining-only (17 mV, 2.4 %).

use ntv_mc::CounterRng;
use ntv_units::Volts;

use crate::engine::DatapathEngine;
use crate::exec::Executor;
use crate::margining::{min_offset, MarginStudy};
use crate::overhead::DietSodaBudget;
use crate::perf;
use crate::quantile::{ChipQuantileSolver, Evaluation};

/// One row of Table 3: a (spares, margin) design choice and its cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignChoice {
    /// Spare lanes.
    pub spares: u32,
    /// Residual voltage margin required with that many spares.
    pub margin: Volts,
    /// Power overhead: duplication + margin (fraction of PE power).
    pub power_overhead: f64,
}

/// The combined design-space exploration for one engine.
#[derive(Debug, Clone)]
pub struct DseStudy<'a> {
    engine: &'a DatapathEngine<'a>,
    budget: DietSodaBudget,
    exec: Executor,
    evaluation: Evaluation,
}

impl<'a> DseStudy<'a> {
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

    /// How q99 probes are evaluated: [`Evaluation::Analytic`] (the
    /// default: exact order-statistic quantiles; `samples`/`seed` are
    /// ignored) or [`Evaluation::MonteCarlo`] (`samples` chips drawn from
    /// `seed`, as serve's `"evaluation":"mc"` asks).
    #[must_use]
    pub fn with_evaluation(mut self, evaluation: Evaluation) -> Self {
        self.evaluation = evaluation;
        self
    }

    /// q99 chip delay (ns) at an effective voltage with α spares, chip
    /// draws fixed by `seed` (common random numbers).
    #[must_use]
    pub fn q99_ns_with_spares(
        &self,
        vdd_effective: Volts,
        spares: u32,
        samples: usize,
        seed: u64,
    ) -> f64 {
        let lanes = self.engine.config().lanes;
        let physical = lanes + spares as usize;
        let fo4_ps = self.engine.tech().fo4_delay_ps(vdd_effective);
        if self.evaluation == Evaluation::Analytic {
            let solver = ChipQuantileSolver::new(self.engine);
            return solver.spares_quantile_fo4(vdd_effective, spares, 0.99) * fo4_ps / 1000.0;
        }
        // Chip `i` is `(seed, "dse-eval", i)`-addressed: common random
        // numbers across effective voltages, bit-identical for any thread
        // count.
        self.engine.warmed_distribution(vdd_effective);
        let stream = CounterRng::new(seed, "dse-eval");
        // Each chip keeps the slowest of its `lanes` fastest lanes, selected
        // in place on the freshly sampled row; `Quantiles` does the one sort.
        let worst_used: Vec<f64> = self.exec.map_indexed(samples as u64, |i| {
            let mut row =
                self.engine
                    .sample_lane_delays_fo4(vdd_effective, physical, &mut stream.at(i));
            *row.select_nth_unstable_by(lanes - 1, f64::total_cmp).1
        });
        let q = ntv_mc::Quantiles::from_samples(worst_used);
        q.q99() * fo4_ps / 1000.0
    }

    /// Minimum voltage margin (to 0.1 mV) needed with α spares to meet
    /// `target_ns` at `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if [`MarginStudy::MAX_MARGIN`] (200 mV) still misses the
    /// target.
    #[must_use]
    pub fn margin_for_spares(
        &self,
        vdd: Volts,
        spares: u32,
        target_ns: f64,
        samples: usize,
        seed: u64,
    ) -> Volts {
        let (margin, _) = min_offset(MarginStudy::MAX_MARGIN, target_ns, |margin| {
            self.q99_ns_with_spares(vdd + margin, spares, samples, seed)
        });
        margin
    }

    /// Explore the (spares, margin) trade-off at `vdd` for the given spare
    /// candidates (one Table 3).
    #[must_use]
    pub fn explore(
        &self,
        vdd: Volts,
        spare_candidates: &[u32],
        samples: usize,
        seed: u64,
    ) -> Vec<DesignChoice> {
        let target_ns =
            perf::target_delay_ns(self.engine, self.evaluation, vdd, samples, seed, self.exec);
        spare_candidates
            .iter()
            .map(|&spares| {
                let margin = self.margin_for_spares(vdd, spares, target_ns, samples, seed);
                DesignChoice {
                    spares,
                    margin,
                    power_overhead: self.budget.combined_power_overhead(spares, vdd, margin),
                }
            })
            .collect()
    }

    /// The cheapest design choice among `choices`.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    #[must_use]
    pub fn best(choices: &[DesignChoice]) -> DesignChoice {
        *choices
            .iter()
            .min_by(|a, b| a.power_overhead.total_cmp(&b.power_overhead))
            // ntv:allow(panic-path): documented panic on an empty slice (see `# Panics`)
            .expect("at least one design choice")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatapathConfig;
    use ntv_device::{TechModel, TechNode};

    const SAMPLES: usize = 1200;

    #[test]
    fn margin_shrinks_with_spares() {
        // Fig 8 / Table 3: more spares -> less residual margin needed.
        let tech = TechModel::new(TechNode::Gp45);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let dse = DseStudy::new(&engine);
        let rows = dse.explore(Volts(0.6), &[0, 2, 8, 26], SAMPLES, 1);
        for w in rows.windows(2) {
            assert!(
                w[1].margin <= w[0].margin + Volts(1e-4),
                "margin not decreasing: {rows:?}"
            );
        }
        // Margin-only row needs a real margin; many spares need (almost) none.
        assert!(rows[0].margin > Volts(5e-3));
        assert!(rows[3].margin < rows[0].margin * 0.5);
    }

    #[test]
    fn combination_beats_extremes_at_45nm_600mv() {
        // Table 3's headline: a small-spares + small-margin combination has
        // the lowest power overhead.
        let tech = TechModel::new(TechNode::Gp45);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let dse = DseStudy::new(&engine);
        let rows = dse.explore(Volts(0.6), &[0, 1, 2, 4, 8, 16, 26], SAMPLES, 2);
        let best = DseStudy::best(&rows);
        let margin_only = rows[0];
        let dup_only = rows.last().copied().expect("non-empty");
        assert!(best.power_overhead <= margin_only.power_overhead);
        assert!(best.power_overhead <= dup_only.power_overhead);
        // The optimum is an interior point: some spares, some margin.
        assert!(best.spares > 0 && best.spares < 26, "{best:?}");
        assert!(best.margin > Volts::ZERO);
    }

    #[test]
    fn q99_with_zero_spares_matches_plain_distribution_scale() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let dse = DseStudy::new(&engine);
        let via_dse = dse.q99_ns_with_spares(Volts(0.55), 0, SAMPLES, 3);
        let stream = CounterRng::new(99, "dse-test");
        let direct = engine
            .chip_delay_distribution(Volts(0.55), SAMPLES, &stream, Executor::default())
            .q99_ns();
        assert!(
            (via_dse / direct - 1.0).abs() < 0.03,
            "{via_dse} vs {direct}"
        );
    }

    #[test]
    fn analytic_explore_matches_mc_design_point() {
        let tech = TechModel::new(TechNode::Gp45);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let candidates = [0u32, 2, 8, 26];
        let mc = DseStudy::new(&engine)
            .with_evaluation(Evaluation::MonteCarlo)
            .explore(Volts(0.6), &candidates, 2400, 1);
        let study = DseStudy::new(&engine);
        let an = study.explore(Volts(0.6), &candidates, 0, 0);
        for (m, a) in mc.iter().zip(&an) {
            assert_eq!(m.spares, a.spares);
            assert!(
                (m.margin.get() - a.margin.get()).abs() < 3.0e-3,
                "spares {}: MC {} vs analytic {}",
                m.spares,
                m.margin,
                a.margin
            );
        }
        // Margins still shrink with spares on the analytic path.
        for w in an.windows(2) {
            assert!(w[1].margin <= w[0].margin);
        }
        // And the analytic path is exactly reproducible regardless of the
        // (ignored) sampling arguments.
        let again = study.explore(Volts(0.6), &candidates, 123, 456);
        for (x, y) in an.iter().zip(&again) {
            assert_eq!(x.margin.get().to_bits(), y.margin.get().to_bits());
        }
    }

    #[test]
    fn best_picks_minimum() {
        let choices = [
            DesignChoice {
                spares: 0,
                margin: Volts(0.017),
                power_overhead: 0.024,
            },
            DesignChoice {
                spares: 2,
                margin: Volts(0.010),
                power_overhead: 0.017,
            },
            DesignChoice {
                spares: 26,
                margin: Volts::ZERO,
                power_overhead: 0.043,
            },
        ];
        assert_eq!(DseStudy::best(&choices).spares, 2);
    }
}
