//! End-to-end reproduction checks: the pivotal quantitative claims of the
//! paper must hold when the experiments are run through the public API.
//! (The full-size regeneration lives in `cargo run -p ntv-bench --bin
//! repro`; these use reduced sample counts, except the ablation check,
//! which runs the `extensions` record's own setup.)

use ntv_bench::experiments::{extensions, fig4, fig7, placement, table1, table2, table3};
use ntv_simd::core::Executor;
use ntv_simd::device::TechNode;
use ntv_simd::units::Volts;

const SAMPLES: usize = 2_500;
const SEED: u64 = 99;

#[test]
fn headline_performance_drops() {
    let r = fig4::run_with(SAMPLES, SEED, Executor::default());
    // Paper §3.2: "only 5% at 0.5V in 90nm GP" and "climbs to 18% in 22nm".
    let d90 = r.drop(TechNode::Gp90, 0.5).expect("swept");
    let d22 = r.drop(TechNode::PtmHp22, 0.5).expect("swept");
    assert!((0.03..0.08).contains(&d90), "90nm: {d90}");
    assert!((0.12..0.26).contains(&d22), "22nm: {d22}");
    // "Thus complex architectural enhancements are not needed" — the 90nm
    // mid-NTV drops are small single digits.
    let d90_06 = r.drop(TechNode::Gp90, 0.6).expect("swept");
    assert!(d90_06 < 0.03, "90nm @0.6V: {d90_06}");
}

#[test]
fn duplication_works_at_90nm_but_not_scaled_nodes_at_half_volt() {
    let r = table1::run_with(SAMPLES, SEED, Executor::default());
    // Paper conclusion: "in 90nm, timing errors can be handled by only
    // structural duplications".
    for vdd in [0.5, 0.55, 0.6, 0.65, 0.7] {
        assert!(
            r.cell(TechNode::Gp90, vdd).expect("cell").spares.is_some(),
            "90nm solvable at {vdd} V"
        );
    }
    // But at 0.5 V the scaled nodes blow the 128-spare budget.
    for node in [TechNode::Gp45, TechNode::PtmHp32, TechNode::PtmHp22] {
        assert!(r.cell(node, 0.5).expect("cell").spares.is_none(), "{node}");
    }
}

#[test]
fn margins_are_millivolt_scale_and_ordered() {
    let r = table2::run_with(SAMPLES, SEED, Executor::default());
    for c in &r.cells {
        let mv = c.solution.margin.get() * 1000.0;
        assert!((0.3..40.0).contains(&mv), "margin {mv} mV at {:?}", c.node);
    }
    // 90nm needs only single-digit millivolts; 45nm several times more.
    let m90 = r.cell(TechNode::Gp90, 0.5).expect("cell").solution.margin;
    let m45 = r.cell(TechNode::Gp45, 0.5).expect("cell").solution.margin;
    assert!(m90 < Volts(0.010), "90nm: {m90}");
    assert!(m45 > 2.0 * m90, "45nm {m45} vs 90nm {m90}");
}

#[test]
fn combined_technique_is_cheapest_at_45nm_600mv() {
    // The paper's concluding claim: "a combination of structural
    // duplication and voltage margining results in a solution with the
    // lowest power overhead" for scaled nodes.
    let r = table3::run_with(SAMPLES, SEED, Executor::default());
    assert!(r.best.spares > 0, "{:?}", r.best);
    assert!(r.best.margin > Volts::ZERO);
    let pure_margin = &r.choices[0];
    let heavy_dup = r.choices.last().expect("choices");
    assert!(r.best.power_overhead < pure_margin.power_overhead);
    assert!(r.best.power_overhead < heavy_dup.power_overhead);
}

#[test]
fn technique_crossover_matches_section_4_4() {
    let r = fig7::run_with(SAMPLES, SEED, Executor::default());
    use ntv_simd::core::compare::Technique;
    // "Structural duplication outperforms voltage margining in high
    // near-threshold voltage regions (0.6-0.7V)" — true for 90nm.
    let p90 = &r.panels[0];
    let dup_wins_high = p90
        .points
        .iter()
        .filter(|p| p.vdd >= Volts(0.6))
        .any(|p| p.preferred() == Technique::Duplication);
    assert!(dup_wins_high);
    // "As technology scales and supply voltage decreases, the voltage
    // margining scheme starts to outperform" — 45nm at 0.5-0.55 V.
    let p45 = &r.panels[1];
    for p in p45.points.iter().filter(|p| p.vdd <= Volts(0.55)) {
        assert_eq!(p.preferred(), Technique::VoltageMargining, "{p:?}");
    }
}

#[test]
fn global_sparing_beats_local_and_bypass_works() {
    let r = placement::run(SEED);
    for row in &r.rows {
        assert!(row.global >= row.local);
    }
    assert!(r.demo.repaired);
    assert!(r.demo.output_correct);
}

#[test]
fn ablation_shapes_match_the_experiments_record() {
    let r = extensions::ablations();
    // The paper's normal fit is optimistic about extreme quantiles.
    assert!(r.drop_skewed_iid > r.drop_paper_normal, "{r:?}");
    // Correlated variation makes spares weaker than Table 1's i.i.d. count.
    let iid = r.spares_iid.expect("i.i.d. spares within 128");
    assert!(r.spares_hierarchical.is_none_or(|h| h > iid), "{r:?}");
    // 4-point Gauss–Hermite already matches gate-level Monte Carlo.
    let (order, gh4) = r.gh_chain_means_ps[0];
    assert_eq!(order, 4);
    let rel = (gh4 - r.mc_chain_mean_ps).abs() / r.mc_chain_mean_ps;
    assert!(rel < 0.004, "GH order 4 off by {rel}");
    // The Halton stream beats plain Monte Carlo's RMSE at equal budget.
    assert!(r.qmc_q99_error < r.mc_q99_rmse, "{r:?}");
}
