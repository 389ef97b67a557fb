//! Structural duplication: spare SIMD lanes (paper §4.1, Table 1, Fig 5).
//!
//! A system with α spares fabricates `128 + α` lanes, identifies the α
//! slowest at test time, power-gates them, and routes around them with the
//! XRAM crossbar. Its chip delay is therefore the **128-th smallest** of
//! `128 + α` lane delays. The required α is the smallest value whose 99 %
//! FO4 chip-delay point matches the baseline architecture at nominal
//! voltage.
//!
//! Implementation note: lane delays on a chip are conditionally i.i.d., so
//! one Monte-Carlo pass sampling `128 + α_max` lanes per chip yields the
//! distribution for *every* α ≤ α_max by order-statistic selection over a
//! prefix — and adding a spare can only lower each sample, so the q99 is
//! monotone in α and binary search is sound.

use ntv_mc::{order, CounterRng, Quantiles};
use ntv_units::Volts;

use crate::engine::{ChipDelayDistribution, DatapathEngine};
use crate::exec::Executor;
use crate::overhead::DietSodaBudget;
use crate::perf;
use crate::quantile::{ChipQuantileSolver, Evaluation};

/// Lane-delay samples (FO4 units): one row per chip, `max_lanes` per row.
///
/// Row `i` holds conditionally i.i.d. lane delays for chip `i`; any prefix
/// is a valid sample of a narrower physical array.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneDelayMatrix {
    vdd: Volts,
    fo4_unit_ps: f64,
    max_lanes: usize,
    rows: Vec<Vec<f64>>,
}

impl LaneDelayMatrix {
    /// Supply voltage the matrix was sampled at.
    #[must_use]
    pub fn vdd(&self) -> Volts {
        self.vdd
    }

    /// Lanes sampled per chip (the largest supported `lanes + spares`).
    #[must_use]
    pub fn max_lanes(&self) -> usize {
        self.max_lanes
    }

    /// Chip-delay distribution of a `lanes`-wide system with `spares`
    /// spare lanes: per chip, the `lanes`-th smallest of the first
    /// `lanes + spares` lane delays.
    ///
    /// # Panics
    ///
    /// Panics if `lanes + spares` exceeds the sampled width.
    #[must_use]
    pub fn chip_delay_with_spares(&self, lanes: usize, spares: u32) -> ChipDelayDistribution {
        let physical = lanes + spares as usize;
        assert!(
            physical <= self.max_lanes,
            "requested {physical} lanes but only {} were sampled",
            self.max_lanes
        );
        let data: Vec<f64> = self
            .rows
            .iter()
            .map(|row| order::kth_smallest(&row[..physical], lanes - 1))
            .collect();
        ChipDelayDistribution {
            vdd: self.vdd,
            fo4_unit_ps: self.fo4_unit_ps,
            fo4_quantiles: Quantiles::from_samples(data),
        }
    }
}

/// Error: the spare budget was exhausted without reaching the target.
///
/// Table 1 reports exactly this condition as ">128" at 0.50 V for the
/// scaled nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SparesExceeded {
    /// The largest spare count that was tried.
    pub max_spares: u32,
    /// q99 (FO4) that the maximal configuration still achieves.
    pub achieved_q99_fo4: f64,
    /// The target q99 (FO4) that could not be reached.
    pub target_q99_fo4: f64,
}

impl std::fmt::Display for SparesExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "more than {} spares required: q99 {:.2} FO4 vs target {:.2} FO4",
            self.max_spares, self.achieved_q99_fo4, self.target_q99_fo4
        )
    }
}

impl std::error::Error for SparesExceeded {}

/// A solved duplication design point (one Table 1 cell).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpareSolution {
    /// Supply voltage.
    pub vdd: Volts,
    /// Required number of spare lanes.
    pub spares: u32,
    /// Achieved 99 % chip delay (FO4 units).
    pub q99_fo4: f64,
    /// Target (baseline nominal-voltage) 99 % chip delay (FO4 units).
    pub target_q99_fo4: f64,
    /// Area overhead (fraction of PE area).
    pub area_overhead: f64,
    /// Power overhead (fraction of PE power).
    pub power_overhead: f64,
}

/// The structural-duplication study for one engine.
#[derive(Debug, Clone)]
pub struct DuplicationStudy<'a> {
    engine: &'a DatapathEngine<'a>,
    budget: DietSodaBudget,
    exec: Executor,
    evaluation: Evaluation,
}

impl<'a> DuplicationStudy<'a> {
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

    /// How [`Self::solve`] evaluates q99: [`Evaluation::MonteCarlo`]
    /// (default, byte-identical to the historical outputs) or
    /// [`Evaluation::Analytic`] via [`Self::min_spares_for`]
    /// (`samples`/`seed` arguments are then ignored).
    #[must_use]
    pub fn with_evaluation(mut self, evaluation: Evaluation) -> Self {
        self.evaluation = evaluation;
        self
    }

    /// Sample a lane-delay matrix at `vdd` wide enough for `max_spares`.
    #[must_use]
    pub fn sample_matrix(
        &self,
        vdd: Volts,
        max_spares: u32,
        samples: usize,
        seed: u64,
    ) -> LaneDelayMatrix {
        let lanes = self.engine.config().lanes;
        let max_lanes = lanes + max_spares as usize;
        // Chip `i`'s lane delays are addressed as `(seed, label, i)`, so the
        // matrix is bit-identical for any thread count.
        self.engine.warmed_distribution(vdd);
        let stream = CounterRng::new(seed, "duplication-matrix");
        let rows: Vec<Vec<f64>> = self.exec.map_indexed(samples as u64, |i| {
            self.engine
                .sample_lane_delays_fo4(vdd, max_lanes, &mut stream.at(i))
        });
        LaneDelayMatrix {
            vdd,
            fo4_unit_ps: self.engine.tech().fo4_delay_ps(vdd),
            max_lanes,
            rows,
        }
    }

    /// Smallest α whose q99 (FO4) meets `target_q99_fo4`, by binary search
    /// over an already-sampled matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparesExceeded`] if even the matrix's full width misses the
    /// target.
    pub fn required_spares(
        &self,
        matrix: &LaneDelayMatrix,
        target_q99_fo4: f64,
    ) -> Result<u32, SparesExceeded> {
        let lanes = self.engine.config().lanes;
        let max_spares = (matrix.max_lanes() - lanes) as u32;
        min_spares(max_spares, target_q99_fo4, |alpha| {
            matrix.chip_delay_with_spares(lanes, alpha).q99_fo4()
        })
    }

    /// Smallest α whose *exact* q99 (FO4) meets `target_q99_fo4`: the
    /// search of [`Self::required_spares`] on the analytic order-statistic
    /// quantile — no sampling, no matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SparesExceeded`] if even `max_spares` misses the target.
    pub fn min_spares_for(
        &self,
        vdd: Volts,
        target_q99_fo4: f64,
        max_spares: u32,
    ) -> Result<u32, SparesExceeded> {
        let solver = ChipQuantileSolver::new(self.engine);
        min_spares(max_spares, target_q99_fo4, |alpha| {
            solver.spares_quantile_fo4(vdd, alpha, 0.99)
        })
    }

    /// Solve one Table 1 cell: spares needed at `vdd` to match the nominal
    /// baseline, with area/power overheads.
    ///
    /// # Errors
    ///
    /// Returns [`SparesExceeded`] when `max_spares` is insufficient (the
    /// ">128" entries of Table 1).
    pub fn solve(
        &self,
        vdd: Volts,
        max_spares: u32,
        samples: usize,
        seed: u64,
    ) -> Result<SpareSolution, SparesExceeded> {
        let target =
            perf::baseline_q99_fo4_with(self.engine, self.evaluation, samples, seed, self.exec);
        let (spares, q99) = match self.evaluation {
            Evaluation::Analytic => {
                let spares = self.min_spares_for(vdd, target, max_spares)?;
                let solver = ChipQuantileSolver::new(self.engine);
                let q99 = solver.spares_quantile_fo4(vdd, spares, 0.99);
                (spares, q99)
            }
            Evaluation::MonteCarlo => {
                let matrix = self.sample_matrix(vdd, max_spares, samples, seed);
                let spares = self.required_spares(&matrix, target)?;
                let lanes = self.engine.config().lanes;
                let q99 = matrix.chip_delay_with_spares(lanes, spares).q99_fo4();
                (spares, q99)
            }
        };
        Ok(SpareSolution {
            vdd,
            spares,
            q99_fo4: q99,
            target_q99_fo4: target,
            area_overhead: self.budget.duplication_area_overhead(spares),
            power_overhead: self.budget.duplication_power_overhead(spares),
        })
    }
}

/// Smallest α in `[0, max_spares]` whose q99 (FO4) meets `target_q99_fo4`,
/// by binary search: `q99_at` is non-increasing in α, because an extra
/// spare can only lower the retained order statistic.
fn min_spares(
    max_spares: u32,
    target_q99_fo4: f64,
    q99_at: impl Fn(u32) -> f64,
) -> Result<u32, SparesExceeded> {
    if q99_at(0) <= target_q99_fo4 {
        return Ok(0);
    }
    let achieved = q99_at(max_spares);
    if achieved > target_q99_fo4 {
        return Err(SparesExceeded {
            max_spares,
            achieved_q99_fo4: achieved,
            target_q99_fo4,
        });
    }
    // Invariant: q99(lo) > target >= q99(hi).
    let (mut lo, mut hi) = (0u32, max_spares);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if q99_at(mid) <= target_q99_fo4 {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatapathConfig;
    use ntv_device::{TechModel, TechNode};

    const SAMPLES: usize = 2500;

    fn study_engine(node: TechNode) -> TechModel {
        TechModel::new(node)
    }

    #[test]
    fn spares_shift_distribution_left_and_tighten_it() {
        // Fig 5: extra lanes shift delay distributions left and shrink them.
        let tech = study_engine(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = DuplicationStudy::new(&engine);
        let matrix = study.sample_matrix(Volts(0.55), 32, SAMPLES, 1);
        let d0 = matrix.chip_delay_with_spares(128, 0);
        let d6 = matrix.chip_delay_with_spares(128, 6);
        let d32 = matrix.chip_delay_with_spares(128, 32);
        assert!(d6.q99_fo4() < d0.q99_fo4());
        assert!(d32.q99_fo4() < d6.q99_fo4());
        let spread = |d: &ChipDelayDistribution| d.quantile_fo4(0.99) - d.quantile_fo4(0.01);
        assert!(spread(&d32) < spread(&d0));
    }

    #[test]
    fn required_spares_match_table1_90nm() {
        let tech = study_engine(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = DuplicationStudy::new(&engine);
        // Paper Table 1 (90 nm): 28 @0.50V, 6 @0.55V, 2 @0.60V, 1 @0.65/0.70V.
        let s055 = study
            .solve(Volts(0.55), 128, SAMPLES, 2)
            .expect("solvable")
            .spares;
        let s060 = study
            .solve(Volts(0.60), 128, SAMPLES, 2)
            .expect("solvable")
            .spares;
        let s050 = study
            .solve(Volts(0.50), 128, SAMPLES, 2)
            .expect("solvable")
            .spares;
        assert!((3..=14).contains(&s055), "0.55V: {s055} (paper 6)");
        assert!((1..=5).contains(&s060), "0.60V: {s060} (paper 2)");
        assert!((14..=56).contains(&s050), "0.50V: {s050} (paper 28)");
        assert!(s050 > s055 && s055 > s060);
    }

    #[test]
    fn scaled_nodes_exceed_budget_at_low_voltage() {
        // Table 1: >128 spares at 0.50 V for 45 nm and below.
        let tech = study_engine(TechNode::Gp45);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = DuplicationStudy::new(&engine);
        let err = study
            .solve(Volts(0.50), 128, 1500, 3)
            .expect_err(">128 expected");
        assert_eq!(err.max_spares, 128);
        assert!(err.achieved_q99_fo4 > err.target_q99_fo4);
        assert!(err.to_string().contains("more than 128 spares"));
    }

    #[test]
    fn zero_spares_needed_at_nominal() {
        let tech = study_engine(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = DuplicationStudy::new(&engine);
        let sol = study.solve(Volts(1.0), 16, 1500, 4).expect("solvable");
        // Same voltage as the baseline: at most a spare or two of MC noise.
        assert!(sol.spares <= 2, "{}", sol.spares);
    }

    #[test]
    fn solution_overheads_use_budget() {
        let tech = study_engine(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = DuplicationStudy::new(&engine);
        let sol = study.solve(Volts(0.55), 64, 1500, 5).expect("solvable");
        let b = DietSodaBudget::paper();
        assert_eq!(sol.area_overhead, b.duplication_area_overhead(sol.spares));
        assert_eq!(sol.power_overhead, b.duplication_power_overhead(sol.spares));
    }

    #[test]
    fn q99_is_monotone_in_spares() {
        let tech = study_engine(TechNode::PtmHp32);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = DuplicationStudy::new(&engine);
        let matrix = study.sample_matrix(Volts(0.6), 24, 1200, 6);
        let mut prev = f64::INFINITY;
        for alpha in [0u32, 1, 2, 4, 8, 16, 24] {
            let q = matrix.chip_delay_with_spares(128, alpha).q99_fo4();
            assert!(q <= prev, "alpha={alpha}: {q} > {prev}");
            prev = q;
        }
    }

    #[test]
    fn analytic_solve_matches_mc_spares() {
        let tech = study_engine(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let mc = DuplicationStudy::new(&engine)
            .solve(Volts(0.55), 128, 4000, 2)
            .expect("solvable")
            .spares;
        let study = DuplicationStudy::new(&engine).with_evaluation(Evaluation::Analytic);
        let an = study.solve(Volts(0.55), 128, 0, 0).expect("solvable");
        // Paper Table 1: 6 spares at 0.55 V in 90 nm; MC and analytic land
        // within each other's confidence band.
        assert!((3..=14).contains(&an.spares), "analytic {}", an.spares);
        assert!(
            an.spares.abs_diff(mc) <= 4,
            "analytic {} vs MC {mc}",
            an.spares
        );
        assert!(an.q99_fo4 <= an.target_q99_fo4);
        // One fewer spare must miss the target (minimality, exactly).
        if an.spares > 0 {
            let short = study
                .min_spares_for(Volts(0.55), an.target_q99_fo4, an.spares - 1)
                .expect_err("must be infeasible one spare short");
            assert!(short.achieved_q99_fo4 > short.target_q99_fo4);
        }
    }

    #[test]
    fn analytic_exceeds_budget_where_table1_says_so() {
        let tech = study_engine(TechNode::Gp45);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = DuplicationStudy::new(&engine).with_evaluation(Evaluation::Analytic);
        let err = study
            .solve(Volts(0.50), 128, 0, 0)
            .expect_err(">128 expected");
        assert_eq!(err.max_spares, 128);
        assert!(err.achieved_q99_fo4 > err.target_q99_fo4);
    }

    #[test]
    #[should_panic(expected = "were sampled")]
    fn matrix_width_is_enforced() {
        let tech = study_engine(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = DuplicationStudy::new(&engine);
        let matrix = study.sample_matrix(Volts(0.6), 4, 50, 7);
        let _ = matrix.chip_delay_with_spares(128, 8);
    }
}
