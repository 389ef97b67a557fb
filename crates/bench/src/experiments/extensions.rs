//! Extension experiments beyond the paper's figures:
//!
//! * **SIMD-width sweep** — the intro's claim that wide SIMD multiplies
//!   the number of critical paths and therefore the variation penalty,
//!   made quantitative: performance drop vs datapath width.
//! * **Adaptive body bias** — the EVAL-style knob from the related-work
//!   section, priced next to voltage margining.
//! * **Timing-yield curves** — the 99 % design point generalized to full
//!   yield-vs-clock curves, with and without spares.
//! * **Ablations** — how much the modelling choices DESIGN.md calls out
//!   (path tail shape, correlation structure, quadrature order, MC vs QMC
//!   sampling) move the quantities they feed.
//! * **§3.1 cross-check** — the 64-bit Kogge–Stone adder the paper cites
//!   (≈8.4 % 3σ/μ at 0.5 V), timed gate by gate by the netlist STA engine,
//!   a code path independent of the chain model.

use ntv_circuit::chain::ChainMc;
use ntv_circuit::{adder, sta};
use ntv_core::body_bias::BodyBiasStudy;
use ntv_core::duplication::DuplicationStudy;
use ntv_core::engine::VariationMode;
use ntv_core::margining::MarginStudy;
use ntv_core::perf;
use ntv_core::{ChipQuantileSolver, DatapathConfig, DatapathEngine, Executor};
use ntv_device::{calib, ChipSample, TechModel, TechNode};
use ntv_mc::qmc::Halton;
use ntv_mc::{normal, order, sum_ordered, CounterRng, GaussHermite, Quantiles, Summary};
use ntv_units::{Seconds, Volts};

use crate::table::TextTable;

/// One width point of the SIMD-width sweep.
#[derive(Debug, Clone, Copy)]
pub struct WidthPoint {
    /// SIMD lanes.
    pub lanes: usize,
    /// Performance drop at the study voltage.
    pub drop: f64,
    /// Absolute 99 % chip delay at the study voltage (FO4 units).
    pub q99_fo4: f64,
}

/// SIMD-width sweep result.
#[derive(Debug, Clone)]
pub struct WidthSweepResult {
    /// Technology node.
    pub node: TechNode,
    /// Study voltage.
    pub vdd: f64,
    /// Drop vs width, ascending width.
    pub points: Vec<WidthPoint>,
}

/// Sweep the performance drop against datapath width (16 → 1024 lanes).
#[must_use]
pub fn width_sweep_with(
    node: TechNode,
    vdd: f64,
    samples: usize,
    seed: u64,
    exec: Executor,
) -> WidthSweepResult {
    let tech = TechModel::new(node);
    let points = [16usize, 32, 64, 128, 256, 512, 1024]
        .iter()
        .map(|&lanes| {
            let config = DatapathConfig::new(lanes, 100, 50);
            let engine = DatapathEngine::new(&tech, config);
            let point = perf::performance_drop(&engine, Volts(vdd), samples, seed, exec);
            WidthPoint {
                lanes,
                drop: point.drop,
                q99_fo4: point.q99_fo4,
            }
        })
        .collect();
    WidthSweepResult { node, vdd, points }
}

impl std::fmt::Display for WidthSweepResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Extension — performance drop vs SIMD width, {} @{:.2} V",
            self.node, self.vdd
        )?;
        let mut t = TextTable::new(&["lanes", "critical paths", "q99 (FO4)", "drop"]);
        for p in &self.points {
            t.row(&[
                p.lanes.to_string(),
                (p.lanes * 100).to_string(),
                format!("{:.2}", p.q99_fo4),
                format!("{:.1}%", p.drop * 100.0),
            ]);
        }
        write!(f, "{t}")
    }
}

/// Body-bias vs voltage-margin comparison at one operating point.
#[derive(Debug, Clone, Copy)]
pub struct AbbComparison {
    /// Technology node.
    pub node: TechNode,
    /// Operating voltage.
    pub vdd: f64,
    /// Required threshold reduction (V).
    pub vth_shift: f64,
    /// ABB leakage power overhead (fraction).
    pub abb_power: f64,
    /// Voltage margin (V) achieving the same target.
    pub margin: f64,
    /// Margining power overhead (fraction).
    pub margin_power: f64,
}

/// Compare adaptive body bias against voltage margining.
#[must_use]
pub fn abb_comparison_with(
    node: TechNode,
    vdd: f64,
    samples: usize,
    seed: u64,
    exec: Executor,
) -> AbbComparison {
    let tech = TechModel::new(node);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let abb = BodyBiasStudy::new(&engine)
        .with_executor(exec)
        .solve(Volts(vdd), samples, seed);
    let margin = MarginStudy::new(&engine)
        .with_executor(exec)
        .solve(Volts(vdd), samples, seed);
    AbbComparison {
        node,
        vdd,
        vth_shift: abb.vth_shift.get(),
        abb_power: abb.power_overhead,
        margin: margin.margin.get(),
        margin_power: margin.power_overhead,
    }
}

impl std::fmt::Display for AbbComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Extension — ABB vs margining, {} @{:.2} V",
            self.node, self.vdd
        )?;
        writeln!(
            f,
            "  body bias: -{:.1} mV Vth -> {:.2}% power (leakage)",
            self.vth_shift * 1000.0,
            self.abb_power * 100.0
        )?;
        writeln!(
            f,
            "  margining: +{:.1} mV Vdd -> {:.2}% power (switching)",
            self.margin * 1000.0,
            self.margin_power * 100.0
        )
    }
}

/// One point of a yield curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldPoint {
    /// Clock period (ns).
    pub t_clk_ns: f64,
    /// Fraction of chips whose slowest used lane meets the period.
    pub timing_yield: f64,
}

/// Yield curves with and without spares at one operating point.
#[derive(Debug, Clone)]
pub struct YieldCurvesResult {
    /// Technology node.
    pub node: TechNode,
    /// Operating voltage.
    pub vdd: f64,
    /// `(spares, curve)` pairs.
    pub curves: Vec<(u32, Vec<YieldPoint>)>,
}

/// Timing-yield curves for 0, 4 and 12 spares, read from the exact
/// chip-delay law on a clock grid of 51 to 56.5 FO4.
#[must_use]
pub fn yield_curves(node: TechNode, vdd: f64) -> YieldCurvesResult {
    let tech = TechModel::new(node);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let solver = ChipQuantileSolver::new(&engine);
    let fo4_ns = engine.fo4_unit_ps(Volts(vdd)) / 1000.0;
    let grid: Vec<f64> = (0..12)
        .map(|i| (51.0 + f64::from(i) * 0.5) * fo4_ns)
        .collect();

    let curves = [0u32, 4, 12]
        .iter()
        .map(|&spares| {
            let curve = grid
                .iter()
                .map(|&t| YieldPoint {
                    t_clk_ns: t,
                    timing_yield: solver.timing_yield(Volts(vdd), spares, Seconds(t * 1e-9)),
                })
                .collect();
            (spares, curve)
        })
        .collect();
    YieldCurvesResult { node, vdd, curves }
}

impl std::fmt::Display for YieldCurvesResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Extension — timing yield vs clock, {} @{:.2} V",
            self.node, self.vdd
        )?;
        let headers: Vec<String> = std::iter::once("Tclk (ns)".to_owned())
            .chain(self.curves.iter().map(|(s, _)| format!("{s} spares")))
            .collect();
        let refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = TextTable::new(&refs);
        let n_points = self.curves[0].1.len();
        for i in 0..n_points {
            let mut cells = vec![format!("{:.2}", self.curves[0].1[i].t_clk_ns)];
            for (_, curve) in &self.curves {
                cells.push(format!("{:.1}%", curve[i].timing_yield * 100.0));
            }
            t.row(&cells);
        }
        write!(f, "{t}")
    }
}

/// The modelling-choice ablations, each measured once at a fixed setup.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// 22 nm @0.5 V performance drop with the paper's normal path fit.
    pub drop_paper_normal: f64,
    /// The same drop sampling the exact right-skewed mixture.
    pub drop_skewed_iid: f64,
    /// 90 nm @0.55 V spares needed with i.i.d. paths (`None`: > 128).
    pub spares_iid: Option<u32>,
    /// The same spare count under hierarchical chip/region correlation.
    pub spares_hierarchical: Option<u32>,
    /// `(order, mean)`: 45 nm chain-of-50 mean delay at 0.55 V (ps) from
    /// Gauss–Hermite conditional moments, ascending order.
    pub gh_chain_means_ps: Vec<(usize, f64)>,
    /// Cross-chip mean of the same chain from gate-level Monte Carlo (ps).
    pub mc_chain_mean_ps: f64,
    /// Root-mean-square error of plain Monte Carlo's q99 estimate of the
    /// max of 12 800 standard normals over 64 independent replications, in
    /// z units.
    pub mc_q99_rmse: f64,
    /// The same error for a Halton low-discrepancy stream.
    pub qmc_q99_error: f64,
}

/// Lanes × paths: the order of the extreme quantile the MC-vs-QMC ablation
/// estimates.
const MAX_OF: usize = 12_800;

/// Sample budget of the drop, spares and MC-vs-QMC ablations.
const ABLATION_SAMPLES: usize = 2_000;

/// Plain-MC replications behind the MC-vs-QMC RMSE: one replication's error
/// beats Halton's by chance too often to compare against.
const MC_REPLICATIONS: usize = 64;

/// Measure the four ablations: tail shape (22 nm @0.5 V drop, paper normal
/// fit vs exact skewed mixture), correlation structure (90 nm @0.55 V
/// spares, i.i.d. vs hierarchical), Gauss–Hermite order (4–32 points vs a
/// 4 000-chip gate-level chain), and MC vs QMC q99 estimator error.
/// Sample counts and seeds are fixed so the values quoted in EXPERIMENTS.md
/// regenerate exactly.
#[must_use]
pub fn ablations() -> AblationResult {
    let exec = Executor::default();
    let config = DatapathConfig::paper_default();

    let tech22 = TechModel::new(TechNode::PtmHp22);
    let drop_with = |mode| {
        let engine = DatapathEngine::with_mode(&tech22, config, mode);
        perf::performance_drop(&engine, Volts(0.5), ABLATION_SAMPLES, 1, exec).drop
    };
    let drop_paper_normal = drop_with(VariationMode::PaperNormal);
    let drop_skewed_iid = drop_with(VariationMode::SkewedIid);

    let tech90 = TechModel::new(TechNode::Gp90);
    let spares_with = |mode| {
        let engine = DatapathEngine::with_mode(&tech90, config, mode);
        let study = DuplicationStudy::new(&engine);
        let baseline = perf::baseline_q99_fo4(&engine, ABLATION_SAMPLES, 2, exec);
        let matrix = study.sample_matrix(Volts(0.55), 128, ABLATION_SAMPLES, 2);
        study.required_spares(&matrix, baseline).ok()
    };
    let spares_iid = spares_with(VariationMode::PaperNormal);
    let spares_hierarchical = spares_with(VariationMode::Hierarchical);

    let tech45 = TechModel::new(TechNode::Gp45);
    let chain = ChainMc::new(&tech45, 50);
    let chips = CounterRng::new(4, "gh-order-chain");
    let mc_chain_mean_ps = (0..4_000)
        .map(|i| chain.sample_ps(Volts(0.55), &mut chips.at(i)))
        .collect::<Summary>()
        .mean();
    let params = *tech45.params();
    let chip = ChipSample::nominal();
    let k_factor = (0.5 * params.sigma_k_random * params.sigma_k_random).exp();
    let gh_chain_means_ps = [4usize, 8, 16, 32]
        .into_iter()
        .map(|n| {
            let gate =
                GaussHermite::new(n).expect_normal(0.0, params.sigma_vth_random.get(), |dv| {
                    tech45.gate_delay_ps_at(Volts(0.55), &chip, Volts(dv), 0.0)
                });
            (n, 50.0 * gate * k_factor)
        })
        .collect();

    let true_q99 = normal::quantile(0.99_f64.powf(1.0 / MAX_OF as f64));
    let q99_error = |draws: Vec<f64>| (Quantiles::from_samples(draws).q99() - true_q99).abs();
    let mut halton = Halton::new(2);
    let qmc_q99_error = q99_error(
        (0..ABLATION_SAMPLES)
            .map(|_| halton.next_max_normal(MAX_OF))
            .collect(),
    );
    let mc = CounterRng::new(11, "mc-vs-qmc");
    let budget = ABLATION_SAMPLES as u64;
    let mc_q99_rmse = (sum_ordered((0..MC_REPLICATIONS as u64).map(|r| {
        let draws = (r * budget..(r + 1) * budget)
            .map(|i| order::sample_max_normal(&mut mc.at(i), MAX_OF, 0.0, 1.0))
            .collect();
        q99_error(draws).powi(2)
    })) / MC_REPLICATIONS as f64)
        .sqrt();

    AblationResult {
        drop_paper_normal,
        drop_skewed_iid,
        spares_iid,
        spares_hierarchical,
        gh_chain_means_ps,
        mc_chain_mean_ps,
        mc_q99_rmse,
        qmc_q99_error,
    }
}

impl std::fmt::Display for AblationResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let spares = |s: Option<u32>| s.map_or_else(|| ">128".to_owned(), |s| s.to_string());
        writeln!(f, "Extension — ablations of the modelling choices")?;
        writeln!(
            f,
            "  tail shape, {} @0.50 V perf drop: {:.1}% paper normal fit vs {:.1}% skewed mixture",
            TechNode::PtmHp22,
            self.drop_paper_normal * 100.0,
            self.drop_skewed_iid * 100.0
        )?;
        writeln!(
            f,
            "  correlation, {} @0.55 V spares: {} i.i.d. vs {} hierarchical",
            TechNode::Gp90,
            spares(self.spares_iid),
            spares(self.spares_hierarchical)
        )?;
        writeln!(
            f,
            "  quadrature, {} chain-of-50 mean @0.55 V: gate-level MC {:.1} ps",
            TechNode::Gp45,
            self.mc_chain_mean_ps
        )?;
        for (order, mean) in &self.gh_chain_means_ps {
            writeln!(f, "    GH order {order:>2}: {mean:.1} ps")?;
        }
        write!(
            f,
            "  q99 of the max of {MAX_OF} normals, error at {ABLATION_SAMPLES} samples: MC {:.4} (RMSE of {MC_REPLICATIONS}) vs QMC {:.4}",
            self.mc_q99_rmse, self.qmc_q99_error
        )
    }
}

/// §3.1's circuit cross-check: a 64-bit Kogge–Stone adder at 90 nm and
/// 0.5 V, the circuit Drego et al. measured.
#[derive(Debug, Clone, Copy)]
pub struct KoggeStoneCheck {
    /// Logic gates in the netlist (primary inputs excluded).
    pub gates: usize,
    /// Logic levels on the deepest input-to-output path.
    pub depth: usize,
    /// Variation-free critical-path delay (ps).
    pub nominal_ps: f64,
    /// Chips drawn.
    pub chips: usize,
    /// Mean critical-path delay over the chips (ps).
    pub mean_ps: f64,
    /// 3σ/μ of the critical-path delay over the chips.
    pub three_sigma_over_mu: f64,
}

/// Time the 64-bit Kogge–Stone adder on `chips` chips at 90 nm and 0.5 V:
/// chip `i` comes from index `i` of one seeded stream, so `exec`'s thread
/// count changes no bit.
#[must_use]
pub fn kogge_stone_check_with(chips: usize, seed: u64, exec: Executor) -> KoggeStoneCheck {
    let tech = TechModel::new(TechNode::Gp90);
    let netlist = adder::kogge_stone(64);
    let vdd = Volts(0.5);
    let stream = CounterRng::new(seed, "extensions/kogge_stone_64");
    let delays: Summary = exec
        .map_indexed_chunks(chips as u64, |start, len| {
            sta::mc_critical_delays(&netlist, &tech, vdd, start..start + len, &stream)
        })
        .into_iter()
        .collect();
    let nominal = sta::analyze(&netlist, &sta::nominal_delays(&netlist, &tech, vdd));
    KoggeStoneCheck {
        gates: netlist.gate_count(),
        depth: netlist.logic_depth(),
        nominal_ps: nominal.critical_delay_ps,
        chips,
        mean_ps: delays.mean(),
        three_sigma_over_mu: delays.three_sigma_over_mu(),
    }
}

impl std::fmt::Display for KoggeStoneCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Extension — §3.1 cross-check: 64-bit Kogge-Stone adder, 90nm GP @0.50 V"
        )?;
        writeln!(
            f,
            "  netlist: {} gates, {} logic levels, nominal critical path {:.0} ps",
            self.gates, self.depth, self.nominal_ps
        )?;
        write!(
            f,
            "  gate-level STA over {} chips: mean {:.0} ps, 3sigma/mu {:.1}% \
             (paper, Drego et al.: {:.1}%)",
            self.chips,
            self.mean_ps,
            self.three_sigma_over_mu * 100.0,
            calib::KOGGE_STONE_64B_3SIGMA_05V * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_grows_with_simd_width() {
        let r = width_sweep_with(TechNode::Gp90, 0.55, 1500, 40, Executor::default());
        // Absolute chip delay grows decisively with width (more critical
        // paths under the max).
        for w in r.points.windows(2) {
            assert!(w[1].q99_fo4 > w[0].q99_fo4, "{:?}", r.points);
        }
        let first = r.points.first().expect("points");
        let last = r.points.last().expect("points");
        assert!(last.q99_fo4 > first.q99_fo4 + 0.5);
        // The *relative* drop grows only weakly: the nominal-voltage
        // baseline pays the same max-of-N amplification, so most of the
        // width penalty divides out — the quantitative backing for the
        // paper's "wide SIMD is still fine at 90 nm" conclusion.
        assert!(last.drop > first.drop + 0.003, "{first:?} vs {last:?}");
        assert!(last.drop < 2.0 * first.drop + 0.02);
    }

    #[test]
    fn kogge_stone_check_is_thread_invariant() {
        let bits = |threads| {
            let c = kogge_stone_check_with(200, 7, Executor::new(threads));
            (c.mean_ps.to_bits(), c.three_sigma_over_mu.to_bits())
        };
        assert_eq!(bits(1), bits(3));
    }

    #[test]
    fn abb_competes_with_margining() {
        let c = abb_comparison_with(TechNode::Gp90, 0.6, 1200, 41, Executor::default());
        // Both knobs land in the same few-millivolt regime and percent-scale
        // power cost.
        assert!(c.vth_shift > 0.0 && c.vth_shift < 0.03, "{c:?}");
        assert!(c.abb_power > 0.0 && c.abb_power < 0.05, "{c:?}");
        assert!(c.margin > 0.0 && c.margin_power < 0.05);
    }

    #[test]
    fn spares_shift_yield_curves_left() {
        let r = yield_curves(TechNode::Gp90, 0.55);
        // At every clock, more spares -> no worse yield; somewhere strictly
        // better.
        let mut strictly = false;
        for i in 0..r.curves[0].1.len() {
            let y0 = r.curves[0].1[i].timing_yield;
            let y12 = r.curves[2].1[i].timing_yield;
            assert!(y12 >= y0);
            if y12 > y0 + 0.02 {
                strictly = true;
            }
        }
        assert!(strictly, "12 spares should visibly improve yield somewhere");
    }
}
