//! Mitigation planner: given a node and an NTV operating point, price
//! every way of restoring nominal-level timing yield — spares only,
//! margin only, frequency backoff, and combinations — and recommend the
//! cheapest (the paper's §4.4 methodology as a tool).
//!
//! ```text
//! cargo run --release --example mitigation_planner [-- <node> <vdd>]
//! e.g.  cargo run --release --example mitigation_planner -- 45nm 0.6
//! ```

use ntv_simd::core::dse::DseStudy;
use ntv_simd::core::duplication::DuplicationStudy;
use ntv_simd::core::frequency::frequency_margining;
use ntv_simd::core::margining::MarginStudy;
use ntv_simd::core::{DatapathConfig, DatapathEngine, Executor};
use ntv_simd::device::{TechModel, TechNode};
use ntv_simd::units::Volts;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let node: TechNode = args
        .get(1)
        .map(|s| s.parse().expect("node: one of 90nm/45nm/32nm/22nm"))
        .unwrap_or(TechNode::Gp45);
    let vdd: f64 = args
        .get(2)
        .map(|s| s.parse().expect("vdd in volts"))
        .unwrap_or(0.60);
    let samples = 5_000;
    let seed = 11;

    let tech = TechModel::new(node);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    println!("mitigation plan for a 128-wide SIMD datapath, {node} @ {vdd} V\n");

    // Frequency backoff: the do-nothing option.
    let freq = frequency_margining(&engine, Volts(vdd), samples, seed, Executor::default());
    println!(
        "0. frequency margining: stretch the clock from {:.2} ns to {:.2} ns\n   -> {:.1}% throughput loss, no power overhead (but the SIMD clock must\n      stay a multiple of the memory clock, §4.3)",
        freq.t_clk_ns,
        freq.t_va_clk_ns,
        freq.perf_drop * 100.0
    );

    // Duplication only.
    match DuplicationStudy::new(&engine).solve(Volts(vdd), 128) {
        Ok(sol) => println!(
            "1. duplication only: {} spare lanes -> {:.1}% area, {:.2}% power",
            sol.spares,
            sol.area_overhead * 100.0,
            sol.power_overhead * 100.0
        ),
        Err(e) => println!("1. duplication only: {e} — impractical at this point"),
    }

    // Margining only.
    let margin = MarginStudy::new(&engine).solve(Volts(vdd), samples, seed);
    println!(
        "2. margining only: +{:.1} mV -> {:.2}% power",
        margin.margin.get() * 1000.0,
        margin.power_overhead * 100.0
    );

    // Combinations.
    let dse = DseStudy::new(&engine);
    let choices = dse.explore(Volts(vdd), &[0, 1, 2, 4, 8, 16, 26], samples, seed);
    println!("3. combinations (spares + residual margin):");
    for c in &choices {
        println!(
            "     {:>2} spares + {:>5.1} mV -> {:.2}% power",
            c.spares,
            c.margin.get() * 1000.0,
            c.power_overhead * 100.0
        );
    }
    let best = DseStudy::best(&choices);
    println!(
        "\nrecommendation: {} spares + {:.1} mV ({:.2}% power overhead)",
        best.spares,
        best.margin.get() * 1000.0,
        best.power_overhead * 100.0
    );
}
