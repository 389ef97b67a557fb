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
//! monotone in α and binary search is sound. The pass reduces each chip's
//! lanes to a *spares ladder* as it samples them: entry α is that chip's
//! delay with α spares, so every α's distribution is one stored column
//! instead of a fresh selection over every chip's row.

use ntv_mc::{CounterRng, Quantiles};
use ntv_units::Volts;

use crate::engine::{ChipDelayDistribution, DatapathEngine};
use crate::exec::Executor;
use crate::overhead::DietSodaBudget;
use crate::perf;
use crate::quantile::{ChipQuantileSolver, Evaluation};

/// Chip delays (FO4 units) of a `lanes`-wide system with every spare count
/// from 0 to `max_spares`, one spares ladder per sampled chip.
///
/// Chip `i`'s ladder entry α is the `lanes`-th smallest of the first
/// `lanes + α` of its conditionally i.i.d. lane delays: the chip delay
/// after the α slowest of `lanes + α` lanes are power-gated. The lane rows
/// themselves are not kept, only the `max_spares + 1` entries of each
/// chip's ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneDelayMatrix {
    vdd: Volts,
    fo4_unit_ps: f64,
    lanes: usize,
    max_spares: u32,
    ladders: Vec<Vec<f64>>,
}

impl LaneDelayMatrix {
    /// Supply voltage the matrix was sampled at.
    #[must_use]
    pub fn vdd(&self) -> Volts {
        self.vdd
    }

    /// The largest spare count the matrix was sampled for.
    #[must_use]
    pub fn max_spares(&self) -> u32 {
        self.max_spares
    }

    /// Chip-delay distribution of the sampled `lanes`-wide system with
    /// `spares` spare lanes: per chip, the `lanes`-th smallest of the first
    /// `lanes + spares` lane delays, read from ladder column `spares`.
    ///
    /// # Panics
    ///
    /// Panics if `spares` exceeds the sampled width.
    #[must_use]
    pub fn chip_delay_with_spares(&self, spares: u32) -> ChipDelayDistribution {
        assert!(
            spares <= self.max_spares,
            "requested {} lanes but only {} were sampled",
            self.lanes + spares as usize,
            self.lanes + self.max_spares as usize
        );
        let data: Vec<f64> = self
            .ladders
            .iter()
            .filter_map(|ladder| ladder.get(spares as usize).copied())
            .collect();
        ChipDelayDistribution {
            vdd: self.vdd,
            fo4_unit_ps: self.fo4_unit_ps,
            fo4_quantiles: Quantiles::from_samples(data),
        }
    }
}

/// One chip's spares ladder: `ladder[α]`, for α from 0 to
/// `ladder.len() − 1`, is the `lanes`-th smallest of the first `lanes + α`
/// values of `row`, bit for bit `order::kth_smallest(&row[..lanes + α],
/// lanes − 1)`: both select in `total_cmp` order, in which equal values are
/// equal bits.
///
/// Keeps the largest `min(ladder.len(), lanes)` of the first `lanes`
/// values in descending order, then inserts the spare lanes one at a time.
/// The value at descending position α of `lanes + α` values is their
/// `lanes`-th smallest, and an insertion only pushes kept values down, so
/// after α insertions entry α sits at position α. `row` must hold at least
/// `lanes + ladder.len() − 1` values, and `lanes` must be at least 1.
fn spares_ladder(row: &[f64], lanes: usize, ladder: &mut [f64]) {
    let descending = |a: &f64, b: &f64| b.total_cmp(a);
    let width = ladder.len();
    let (base, spare_lanes) = row.split_at(lanes);
    let mut top = base.to_vec();
    if width < top.len() {
        top.select_nth_unstable_by(width, descending);
        top.truncate(width);
    }
    top.sort_unstable_by(descending);
    let mut spare_lanes = spare_lanes.iter();
    for (alpha, entry) in ladder.iter_mut().enumerate() {
        if alpha > 0 {
            if let Some(&s) = spare_lanes.next() {
                let at = top.partition_point(|t| t.total_cmp(&s).is_gt());
                if at < width {
                    top.truncate(width - 1);
                    top.insert(at, s);
                }
            }
        }
        // `top` holds min(width, lanes + α) ≥ α + 1 values; the NaN is
        // unreachable, and `Quantiles::from_samples` would reject it.
        *entry = top.get(alpha).copied().unwrap_or(f64::NAN);
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

    /// Sample the spares ladders of `samples` chips at `vdd`, for every
    /// spare count up to `max_spares`: each chip's `lanes + max_spares`
    /// lane delays are drawn and reduced to its ladder inside the parallel
    /// pass, so no lane row outlives its chip.
    #[must_use]
    pub fn sample_matrix(
        &self,
        vdd: Volts,
        max_spares: u32,
        samples: usize,
        seed: u64,
    ) -> LaneDelayMatrix {
        let lanes = self.engine.config().lanes;
        let width = max_spares as usize + 1;
        // Chip `i`'s lane delays are addressed as `(seed, label, i)`, so the
        // matrix is bit-identical for any thread count.
        self.engine.warmed_distribution(vdd);
        let stream = CounterRng::new(seed, "duplication-matrix");
        let ladders = self.exec.map_indexed(samples as u64, |i| {
            let row = self.engine.sample_lane_delays_fo4(
                vdd,
                lanes + max_spares as usize,
                &mut stream.at(i),
            );
            let mut ladder = vec![0.0; width];
            spares_ladder(&row, lanes, &mut ladder);
            ladder
        });
        LaneDelayMatrix {
            vdd,
            fo4_unit_ps: self.engine.tech().fo4_delay_ps(vdd),
            lanes,
            max_spares,
            ladders,
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
        min_spares(matrix.max_spares(), target_q99_fo4, |alpha| {
            matrix.chip_delay_with_spares(alpha).q99_fo4()
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
                let q99 = matrix.chip_delay_with_spares(spares).q99_fo4();
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
        let d0 = matrix.chip_delay_with_spares(0);
        let d6 = matrix.chip_delay_with_spares(6);
        let d32 = matrix.chip_delay_with_spares(32);
        assert!(d6.q99_fo4() < d0.q99_fo4());
        assert!(d32.q99_fo4() < d6.q99_fo4());
        let spread = |d: &ChipDelayDistribution| {
            d.fo4_quantiles.quantile(0.99) - d.fo4_quantiles.quantile(0.01)
        };
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
            let q = matrix.chip_delay_with_spares(alpha).q99_fo4();
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

    /// Every ladder entry must carry the bits of the selection it replaces,
    /// `kth_smallest(&row[..lanes + α], lanes − 1)`, for one-lane, two-lane
    /// and full-width chips, spare budgets from none to more than the lane
    /// count, and rows with ties and with both signed zeros.
    #[test]
    fn spares_ladder_matches_kth_smallest_for_every_alpha() {
        let mut rng = ntv_mc::CounterRng::new(8, "spares-ladder").at(0);
        for lanes in [1usize, 2, 128] {
            for max_spares in [0usize, 1, 32, 128] {
                let n = lanes + max_spares;
                let rows: [Vec<f64>; 4] = [
                    (0..n).map(|_| rng.uniform()).collect(),
                    // Ties: few distinct values, so equal values straddle
                    // every cut.
                    (0..n).map(|_| f64::from(rng.index(3) as u32)).collect(),
                    // Signed zeros, which `total_cmp` orders −0.0 < +0.0.
                    (0..n)
                        .map(|_| [-0.0, 0.0, 1.0, -1.0][rng.index(4)])
                        .collect(),
                    // Descending, so every spare lands below the kept set.
                    (0..n).map(|i| -(i as f64)).collect(),
                ];
                for row in &rows {
                    let mut ladder = vec![f64::NAN; max_spares + 1];
                    spares_ladder(row, lanes, &mut ladder);
                    for (alpha, entry) in ladder.iter().enumerate() {
                        let want = ntv_mc::order::kth_smallest(&row[..lanes + alpha], lanes - 1);
                        assert_eq!(
                            entry.to_bits(),
                            want.to_bits(),
                            "lanes={lanes} max_spares={max_spares} alpha={alpha} row={row:?}"
                        );
                    }
                }
            }
        }
    }

    /// The matrix's columns equal a selection over freshly sampled lane
    /// rows, chip by chip, at any thread count.
    #[test]
    fn matrix_columns_match_row_selection() {
        let tech = study_engine(TechNode::Gp45);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let (samples, max_spares, seed) = (300, 12u32, 9);
        let stream = CounterRng::new(seed, "duplication-matrix");
        let rows: Vec<Vec<f64>> = (0..samples as u64)
            .map(|i| engine.sample_lane_delays_fo4(Volts(0.55), 140, &mut stream.at(i)))
            .collect();
        for threads in [1, 3] {
            let matrix = DuplicationStudy::new(&engine)
                .with_executor(Executor::new(threads))
                .sample_matrix(Volts(0.55), max_spares, samples, seed);
            assert_eq!(matrix.max_spares(), max_spares);
            for alpha in 0..=max_spares {
                let want: Vec<f64> = rows
                    .iter()
                    .map(|row| ntv_mc::order::kth_smallest(&row[..128 + alpha as usize], 127))
                    .collect();
                let got = matrix.chip_delay_with_spares(alpha);
                assert_eq!(got.fo4_quantiles, Quantiles::from_samples(want));
            }
        }
    }

    #[test]
    #[should_panic(expected = "were sampled")]
    fn matrix_width_is_enforced() {
        let tech = study_engine(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = DuplicationStudy::new(&engine);
        let matrix = study.sample_matrix(Volts(0.6), 4, 50, 7);
        let _ = matrix.chip_delay_with_spares(8);
    }
}
