//! Global vs local spare placement (paper Appendix D / Fig 12): why
//! Diet SODA pools its spares behind the XRAM crossbar instead of
//! dedicating one spare to each 4-lane cluster.
//!
//! ```text
//! cargo run --release --example sparing_placement
//! ```

use ntv_simd::core::placement::{
    lane_failure_probability, mc_repair_probability, repair_probability, SparePlacement,
};
use ntv_simd::core::{DatapathConfig, DatapathEngine};
use ntv_simd::device::{TechModel, TechNode};
use ntv_simd::mc::CounterRng;
use ntv_simd::soda::LaneMap;
use ntv_simd::units::Volts;

fn main() {
    let tech = TechModel::new(TechNode::PtmHp22);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let mut rng = CounterRng::new(5, "main").at(0);

    // Derive a realistic per-lane failure probability from the variation
    // model: 22 nm at 0.55 V, clocked at the lane-delay 90% quantile
    // (aggressive binning: ~13 of 128 lanes miss timing on a typical chip).
    let vdd = 0.55;
    let lane_q = ntv_simd::mc::Quantiles::from_samples(engine.sample_lane_delays_fo4(
        Volts(vdd),
        4_000,
        &mut rng,
    ));
    let t_clk_fo4 = lane_q.quantile(0.90);
    let t_clk_ns = t_clk_fo4 * engine.fo4_unit_ps(Volts(vdd)) / 1000.0;
    let p_fail = lane_failure_probability(&engine, Volts(vdd), t_clk_ns, 400, &mut rng);
    println!(
        "22nm @{vdd} V, clock at {t_clk_fo4:.1} FO4 ({t_clk_ns:.2} ns): per-lane \
         timing-failure probability = {p_fail:.3}\n"
    );

    let local = SparePlacement::Local {
        cluster_size: 4,
        spares_per_cluster: 1,
    };
    let global = SparePlacement::Global { spares: 32 };
    println!("both schemes spend 32 spares on a 128-lane array:\n");
    println!(
        "{:>8} {:>18} {:>18} {:>14} {:>14}",
        "p_fail", "local analytic", "global analytic", "local MC", "global MC"
    );
    for p in [p_fail / 4.0, p_fail, 2.0 * p_fail, 4.0 * p_fail] {
        let p = p.min(0.5);
        println!(
            "{:>8.3} {:>18.4} {:>18.4} {:>14.4} {:>14.4}",
            p,
            repair_probability(local, 128, p),
            repair_probability(global, 128, p),
            mc_repair_probability(local, 128, p, 20_000, &mut rng),
            mc_repair_probability(global, 128, p, 20_000, &mut rng),
        );
    }

    // The crossbar mapping that makes global sparing routable (Fig 12c):
    // bypass a burst of adjacent faulty lanes.
    println!("\nXRAM bypass of a burst failure (lanes 40-42 faulty, 8 spares):");
    let map = LaneMap::with_faulty(128, 136, &[40, 41, 42]).expect("repairable");
    for logical in [38usize, 39, 40, 41, 42, 43] {
        println!(
            "  logical lane {logical:>3} -> physical lane {:>3}",
            map.physical(logical)
        );
    }
    println!(
        "  ... logical lane 127 -> physical lane {} (three spares consumed)",
        map.physical(127)
    );
    println!("\na 1-spare-per-4-lane local scheme cannot absorb this burst: cluster");
    println!("10 (lanes 40..43) has three faults but only one spare (Appendix D).");
}
