//! Analytic-vs-Monte-Carlo equivalence suite.
//!
//! [`ChipQuantileSolver`] claims to compute the *exact* quantiles of the
//! same chip-delay distribution the Monte-Carlo engine samples. This suite
//! pins that claim across every variation mode, a coarse and a scaled
//! node, and the full voltage range of the paper's sweeps: the analytic
//! q50/q99 must sit within 3 bootstrap standard errors of a 50 000-sample
//! Monte-Carlo estimate — the strongest statement a finite sample can
//! certify, and tight enough to catch any unit slip, wrong variance
//! share, or quadrature mis-specification.
//!
//! The timing-yield cases check the law the quantiles invert, in seconds:
//! [`ChipQuantileSolver::timing_yield`] against the fraction of sampled
//! chips, bare and with spares, that meet each clock.

use ntv_core::duplication::DuplicationStudy;
use ntv_core::engine::VariationMode;
use ntv_core::{ChipQuantileSolver, DatapathConfig, DatapathEngine, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_mc::{order, CounterDraws, CounterRng};
use ntv_units::{Seconds, Volts};

const SAMPLES: usize = 50_000;
const RESAMPLES: usize = 200;

/// Monte-Carlo quantile estimate with a percentile-bootstrap standard
/// error: the quantile of `RESAMPLES` with-replacement resamples, whose
/// 95 % percentile interval spans ±1.96 SE around the estimate.
fn mc_quantile(samples: &[f64], p: f64, rng: &mut CounterDraws) -> (f64, f64) {
    let idx = (p * (samples.len() - 1) as f64).round() as usize;
    let mut stats = Vec::with_capacity(RESAMPLES);
    let mut scratch = vec![0.0; samples.len()];
    for _ in 0..RESAMPLES {
        for slot in &mut scratch {
            *slot = samples[rng.index(samples.len())];
        }
        stats.push(order::kth_smallest(&scratch, idx));
    }
    stats.sort_by(f64::total_cmp);
    let at = |q: f64| stats[((RESAMPLES - 1) as f64 * q).round() as usize];
    (
        order::kth_smallest(samples, idx),
        (at(0.975) - at(0.025)) / 3.92,
    )
}

fn check_mode_node_voltage(mode: VariationMode, node: TechNode, vdd: Volts, seed: u64) {
    let tech = TechModel::new(node);
    let engine = DatapathEngine::with_mode(&tech, DatapathConfig::paper_default(), mode);
    let solver = ChipQuantileSolver::new(&engine);

    let stream = CounterRng::new(seed, "equivalence");
    let samples = engine.sample_batch(vdd, &stream, 0..SAMPLES as u64, Executor::default());

    let mut boot = CounterRng::new(seed ^ 0x5eed, "check_mode_node_voltage").at(0);
    for p in [0.5, 0.99] {
        let (mc, se) = mc_quantile(&samples, p, &mut boot);
        let analytic = solver.chip_quantile_fo4(vdd, p);
        assert!(
            (analytic - mc).abs() <= 3.0 * se,
            "{mode:?} {node:?} {vdd} q{:.0}: analytic {analytic} vs MC {mc} ± {se} (3σ)",
            p * 100.0
        );
    }
}

macro_rules! equivalence_case {
    ($name:ident, $mode:ident, $node:ident, $mv:literal, $seed:literal) => {
        #[test]
        fn $name() {
            check_mode_node_voltage(
                VariationMode::$mode,
                TechNode::$node,
                Volts(f64::from($mv) / 1000.0),
                $seed,
            );
        }
    };
}

// PaperNormal × {Gp90, PtmHp22} × {0.4, 0.55, 1.0} V
equivalence_case!(paper_normal_gp90_400mv, PaperNormal, Gp90, 400, 11);
equivalence_case!(paper_normal_gp90_550mv, PaperNormal, Gp90, 550, 12);
equivalence_case!(paper_normal_gp90_1000mv, PaperNormal, Gp90, 1000, 13);
equivalence_case!(paper_normal_ptm22_400mv, PaperNormal, PtmHp22, 400, 14);
equivalence_case!(paper_normal_ptm22_550mv, PaperNormal, PtmHp22, 550, 15);
equivalence_case!(paper_normal_ptm22_1000mv, PaperNormal, PtmHp22, 1000, 16);

// SkewedIid × {Gp90, PtmHp22} × {0.4, 0.55, 1.0} V
equivalence_case!(skewed_iid_gp90_400mv, SkewedIid, Gp90, 400, 21);
equivalence_case!(skewed_iid_gp90_550mv, SkewedIid, Gp90, 550, 22);
equivalence_case!(skewed_iid_gp90_1000mv, SkewedIid, Gp90, 1000, 23);
equivalence_case!(skewed_iid_ptm22_400mv, SkewedIid, PtmHp22, 400, 24);
equivalence_case!(skewed_iid_ptm22_550mv, SkewedIid, PtmHp22, 550, 25);
equivalence_case!(skewed_iid_ptm22_1000mv, SkewedIid, PtmHp22, 1000, 26);

// Hierarchical × {Gp90, PtmHp22} × {0.4, 0.55, 1.0} V
equivalence_case!(hierarchical_gp90_400mv, Hierarchical, Gp90, 400, 31);
equivalence_case!(hierarchical_gp90_550mv, Hierarchical, Gp90, 550, 32);
equivalence_case!(hierarchical_gp90_1000mv, Hierarchical, Gp90, 1000, 33);
equivalence_case!(hierarchical_ptm22_400mv, Hierarchical, PtmHp22, 400, 34);
equivalence_case!(hierarchical_ptm22_550mv, Hierarchical, PtmHp22, 550, 35);
equivalence_case!(hierarchical_ptm22_1000mv, Hierarchical, PtmHp22, 1000, 36);

/// Chips behind each Monte-Carlo timing yield.
const YIELD_CHIPS: usize = 20_000;

/// Spares of the spared timing-yield case.
const YIELD_SPARES: u32 = 4;

/// `timing_yield` against Monte-Carlo chips in seconds, bare
/// (`sample_batch`) and with [`YIELD_SPARES`] spares (`sample_matrix`
/// ladders), both converted with `engine.fo4_unit_ps`. At five clocks,
/// the law's own quantiles from q0.5 to q0.999, the fraction of chips
/// that meet the clock must sit within 4 binomial standard errors of the
/// law, and the law must give back the quantile's level within
/// `round_trip_tol`.
fn check_timing_yield(
    mode: VariationMode,
    node: TechNode,
    vdd: Volts,
    seed: u64,
    round_trip_tol: f64,
) {
    let tech = TechModel::new(node);
    let engine = DatapathEngine::with_mode(&tech, DatapathConfig::paper_default(), mode);
    let solver = ChipQuantileSolver::new(&engine);
    let fo4_s = engine.fo4_unit_ps(vdd) * 1e-12;

    let stream = CounterRng::new(seed, "timing-yield");
    let bare = engine.sample_batch(vdd, &stream, 0..YIELD_CHIPS as u64, Executor::default());
    let matrix = DuplicationStudy::new(&engine).sample_matrix(vdd, YIELD_SPARES, YIELD_CHIPS, seed);
    let spared = matrix.chip_delay_with_spares(YIELD_SPARES);
    for (spares, chips_fo4) in [
        (0, &bare[..]),
        (YIELD_SPARES, spared.fo4_quantiles.as_sorted_slice()),
    ] {
        for p in [0.5, 0.75, 0.9, 0.99, 0.999] {
            let t_clk = Seconds(solver.spares_quantile_ps(vdd, spares, p) * 1e-12);
            let law = solver.timing_yield(vdd, spares, t_clk);
            assert!(
                (law - p).abs() <= round_trip_tol,
                "{mode:?} {spares} spares: timing_yield at q{p} reads {law}"
            );
            let met = chips_fo4
                .iter()
                .filter(|&&d| d * fo4_s <= t_clk.get())
                .count();
            let mc = met as f64 / chips_fo4.len() as f64;
            let se = (law * (1.0 - law) / chips_fo4.len() as f64).sqrt();
            assert!(
                (mc - law).abs() <= 4.0 * se,
                "{mode:?} {spares} spares at {t_clk}: law {law} vs MC {mc} ± {se}"
            );
        }
    }
}

// Round-trip tolerances: the bisected laws give their level back to
// about 1e-10 (the inversion stops at a 1e-12 relative bracket); the
// bare skewed-iid quantile is one lookup in the survival grid's inverse
// interpolant, which differs from the forward interpolant the law reads
// by up to about 0.1 % of the survival, so its level comes back within
// 1e-3 (3.2e-4 measured at q0.5).
#[test]
fn timing_yield_matches_monte_carlo_paper_normal() {
    check_timing_yield(
        VariationMode::PaperNormal,
        TechNode::Gp90,
        Volts(0.55),
        41,
        1e-10,
    );
}

#[test]
fn timing_yield_matches_monte_carlo_skewed_iid() {
    check_timing_yield(
        VariationMode::SkewedIid,
        TechNode::Gp90,
        Volts(0.55),
        42,
        1e-3,
    );
}

#[test]
fn timing_yield_matches_monte_carlo_hierarchical() {
    check_timing_yield(
        VariationMode::Hierarchical,
        TechNode::Gp90,
        Volts(0.55),
        43,
        1e-10,
    );
}
