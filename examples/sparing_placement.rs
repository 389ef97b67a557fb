//! Global vs local spare placement (paper Appendix D / Fig 12): why
//! Diet SODA pools its spares behind the XRAM crossbar instead of
//! dedicating one spare to each 4-lane cluster.
//!
//! ```text
//! cargo run --release --example sparing_placement
//! ```

use ntv_simd::core::placement::{mc_repair_probability, repair_probability, SparePlacement};
use ntv_simd::core::{ChipQuantileSolver, DatapathConfig, DatapathEngine};
use ntv_simd::device::{TechModel, TechNode};
use ntv_simd::mc::CounterRng;
use ntv_simd::soda::LaneMap;
use ntv_simd::units::{Seconds, Volts};

fn main() {
    let tech = TechModel::new(TechNode::PtmHp22);
    // A one-lane datapath's chip delay is one lane's delay, so its exact
    // chip-delay law is the lane-delay law.
    let lane = DatapathEngine::new(&tech, DatapathConfig::paper_default().with_lanes(1));
    let lane_law = ChipQuantileSolver::new(&lane);
    let mut rng = CounterRng::new(5, "main").at(0);

    // Derive a realistic per-lane failure probability from the variation
    // model: 22 nm at 0.55 V, clocked at the lane-delay 90% quantile
    // (aggressive binning: ~13 of 128 lanes miss timing on a typical chip).
    let vdd = Volts(0.55);
    let t_clk_fo4 = lane_law.chip_quantile_fo4(vdd, 0.90);
    let t_clk_ns = lane_law.chip_quantile_ns(vdd, 0.90);
    let p_fail = 1.0 - lane_law.timing_yield(vdd, 0, Seconds(t_clk_ns * 1e-9));
    println!(
        "22nm @{vdd}, clock at {t_clk_fo4:.1} FO4 ({t_clk_ns:.2} ns): per-lane \
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
