//! Cross-crate engine validation: the fast closed-form machinery used by
//! the architecture experiments must agree with the exact gate-level
//! Monte Carlo it abstracts.

use ntv_simd::circuit::chain::ChainMc;
use ntv_simd::circuit::path_model::PathModel;
use ntv_simd::core::engine::{PathDistribution, VariationMode};
use ntv_simd::core::{DatapathConfig, DatapathEngine, Executor};
use ntv_simd::device::{TechModel, TechNode};
use ntv_simd::mc::{CounterRng, Quantiles, Summary};
use ntv_simd::units::Volts;

#[test]
fn path_distribution_matches_gate_level_chain_across_nodes() {
    // The precomputed unconditional CDF vs brute-force cross-chip chains.
    for node in [TechNode::Gp90, TechNode::PtmHp22] {
        let tech = TechModel::new(node);
        for vdd in [Volts(0.5), tech.nominal_vdd()] {
            let dist = PathDistribution::build(&tech, vdd, 50);
            let chain = ChainMc::new(&tech, 50);
            let stream =
                CounterRng::new(1, "path_distribution_matches_gate_level_chain_across_nodes");
            let mc = chain.summary(vdd, 5_000, &stream);
            assert!(
                (dist.mean_ps() / mc.mean() - 1.0).abs() < 0.015,
                "{node} @{vdd}: mean {} vs {}",
                dist.mean_ps(),
                mc.mean()
            );
            assert!(
                (dist.std_ps() / mc.std_dev() - 1.0).abs() < 0.08,
                "{node} @{vdd}: sigma {} vs {}",
                dist.std_ps(),
                mc.std_dev()
            );
        }
    }
}

#[test]
fn skewed_sampler_reproduces_the_mixture_cdf() {
    let tech = TechModel::new(TechNode::Gp45);
    let dist = PathDistribution::build(&tech, Volts(0.55), 50);
    let mut rng = CounterRng::new(2, "skewed_sampler_reproduces_the_mixture_cdf").at(0);
    let samples: Vec<f64> = (0..20_000).map(|_| dist.sample(&mut rng)).collect();
    let sampled = Quantiles::from_samples(samples);
    // KS distance between sampled and analytic survival.
    let d = sampled.ks_distance_to(|x| 1.0 - dist.survival(x));
    assert!(d < 0.015, "KS distance {d}");
}

#[test]
fn conditional_moments_match_on_chip_monte_carlo() {
    let tech = TechModel::new(TechNode::PtmHp32);
    let model = PathModel::new(&tech, 50);
    let mut rng = CounterRng::new(3, "conditional_moments_match_on_chip_monte_carlo").at(0);
    for _ in 0..3 {
        let chip = tech.sample_chip(&mut rng);
        let m = model.conditional_moments(Volts(0.6), &chip);
        let chain = ChainMc::new(&tech, 50);
        let mc: Summary = (0..8_000)
            .map(|_| chain.sample_on_chip_ps(Volts(0.6), &chip, &mut rng))
            .collect();
        assert!((m.mean_ps / mc.mean() - 1.0).abs() < 0.01);
        assert!((m.std_ps / mc.std_dev() - 1.0).abs() < 0.06);
    }
}

#[test]
fn paper_normal_and_skewed_modes_share_first_two_moments() {
    let tech = TechModel::new(TechNode::Gp90);
    let normal = DatapathEngine::with_mode(
        &tech,
        DatapathConfig::new(1, 1, 50),
        VariationMode::PaperNormal,
    );
    let skewed = DatapathEngine::with_mode(
        &tech,
        DatapathConfig::new(1, 1, 50),
        VariationMode::SkewedIid,
    );
    // With one lane of one path, a lane delay is the chip delay: the lane
    // sampler draws exactly what the chip sampler draws.
    let mut rng_a =
        CounterRng::new(4, "paper_normal_and_skewed_modes_share_first_two_moments").at(0);
    let mut rng_b =
        CounterRng::new(5, "paper_normal_and_skewed_modes_share_first_two_moments").at(0);
    let a: Summary = (0..20_000)
        .map(|_| normal.sample_lane_delays_fo4(Volts(0.55), 1, &mut rng_a)[0])
        .collect();
    let b: Summary = (0..20_000)
        .map(|_| skewed.sample_lane_delays_fo4(Volts(0.55), 1, &mut rng_b)[0])
        .collect();
    assert!((a.mean() / b.mean() - 1.0).abs() < 0.01);
    assert!((a.std_dev() / b.std_dev() - 1.0).abs() < 0.05);
    // ...but the skewed mode carries right skew (mild at 90 nm, strong at
    // scaled nodes) while the normal fit has none.
    assert!(b.skewness() > 0.04, "skewed mode skewness {}", b.skewness());
    assert!(
        a.skewness().abs() < 0.05,
        "normal mode skewness {}",
        a.skewness()
    );

    let tech22 = TechModel::new(TechNode::PtmHp22);
    let skew22 = DatapathEngine::with_mode(
        &tech22,
        DatapathConfig::new(1, 1, 50),
        VariationMode::SkewedIid,
    );
    let mut rng_c =
        CounterRng::new(6, "paper_normal_and_skewed_modes_share_first_two_moments").at(0);
    let c: Summary = (0..20_000)
        .map(|_| skew22.sample_lane_delays_fo4(Volts(0.5), 1, &mut rng_c)[0])
        .collect();
    assert!(c.skewness() > 0.3, "22nm @0.5V skewness {}", c.skewness());
}

#[test]
fn tail_shape_matters_for_extreme_maxima() {
    // The ablation headline: at 22nm/0.5V, the exact skewed tail makes the
    // 99% point of the max-of-12800 substantially worse than the paper's
    // normal fit predicts.
    let tech = TechModel::new(TechNode::PtmHp22);
    let config = DatapathConfig::paper_default();
    let normal = DatapathEngine::with_mode(&tech, config, VariationMode::PaperNormal);
    let skewed = DatapathEngine::with_mode(&tech, config, VariationMode::SkewedIid);
    let stream = CounterRng::new(6, "tail-shape");
    let qn = normal
        .chip_delay_distribution(Volts(0.5), 3_000, &stream, Executor::default())
        .q99_fo4();
    let qs = skewed
        .chip_delay_distribution(Volts(0.5), 3_000, &stream, Executor::default())
        .q99_fo4();
    assert!(qs > 1.05 * qn, "skewed q99 {qs} vs normal q99 {qn}");
}

#[test]
fn hierarchical_mode_weakens_spares() {
    // With correlated (chip/region) variation, dropping slow lanes cannot
    // trim the shared component; the i.i.d. model is more optimistic about
    // duplication. Quantified here and in the `extensions` ablations.
    use ntv_simd::core::duplication::DuplicationStudy;
    use ntv_simd::core::perf;

    let tech = TechModel::new(TechNode::Gp90);
    let config = DatapathConfig::paper_default();
    let samples = 2_500;

    let spares_for = |mode: VariationMode| {
        let engine = DatapathEngine::with_mode(&tech, config, mode);
        let study = DuplicationStudy::new(&engine);
        let baseline =
            perf::baseline_q99_fo4(&engine, samples, 7, ntv_simd::core::Executor::default());
        let matrix = study.sample_matrix(Volts(0.55), 128, samples, 7);
        study.required_spares(&matrix, baseline)
    };

    let iid = spares_for(VariationMode::PaperNormal).expect("solvable in iid mode");
    // Err means even >128 spares cannot fix correlated slowness.
    if let Ok(h) = spares_for(VariationMode::Hierarchical) {
        assert!(h >= iid, "hierarchical {h} vs iid {iid}");
    }
}

#[test]
fn fo4_unit_matches_paper_definition() {
    // FO4 unit = simulated chain mean / 50: 441 ps at 0.5 V in 90 nm.
    let tech = TechModel::new(TechNode::Gp90);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let unit = engine.fo4_unit_ps(Volts(0.5));
    assert!((unit / 441.0 - 1.0).abs() < 0.1, "FO4 unit {unit} ps");
}

#[test]
fn common_random_numbers_correlate_across_voltages() {
    // The margining bisection relies on chip draws being shared across
    // candidate voltages: chip i sees the same draws at every voltage =>
    // near-perfectly correlated chip delays, so q99 differences are
    // dominated by the voltage, not noise.
    let tech = TechModel::new(TechNode::Gp45);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let draw = |vdd: Volts, stream: &CounterRng| -> Vec<f64> {
        engine.sample_batch(vdd, stream, 0..2_000, Executor::default())
    };
    let crn = CounterRng::new(9, "crn-check");
    let a = draw(Volts(0.600), &crn);
    let b = draw(Volts(0.605), &crn);
    let r = ntv_simd::mc::stats::pearson(&a, &b);
    assert!(r > 0.99, "CRN correlation {r}");
    // Independent seeds are uncorrelated by comparison.
    let c = draw(Volts(0.605), &CounterRng::new(10, "other"));
    assert!(ntv_simd::mc::stats::pearson(&a, &c).abs() < 0.1);
}
