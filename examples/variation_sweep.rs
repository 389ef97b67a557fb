//! Sweep delay variation from a single gate up to a 128-wide SIMD chip,
//! across technology nodes and supply voltages — the paper's Section 3
//! story in one table.
//!
//! ```text
//! cargo run --release --example variation_sweep
//! ```

use ntv_simd::circuit::chain::ChainMc;
use ntv_simd::core::perf::performance_drop;
use ntv_simd::core::{DatapathConfig, DatapathEngine};
use ntv_simd::device::{TechModel, TechNode};
use ntv_simd::mc::CounterRng;
use ntv_simd::units::Volts;

fn main() {
    let circuit_samples = 800;
    let seed = 7;

    println!(
        "{:<12} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "node", "Vdd", "1 gate", "chain-50", "KS-adder-ish", "128-wide drop"
    );
    println!("{}", "-".repeat(72));

    for node in TechNode::ALL {
        let tech = TechModel::new(node);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        for vdd in [tech.nominal_vdd(), Volts(0.6), Volts(0.5)] {
            let stream = CounterRng::new(seed, "main");
            let single = ChainMc::new(&tech, 1).three_sigma_over_mu(vdd, circuit_samples, &stream);
            let chain = ChainMc::new(&tech, 50).three_sigma_over_mu(vdd, circuit_samples, &stream);
            // A prefix-adder critical path is ~8 levels of complex gates;
            // emulate with a 12-stage chain (cheap proxy for the STA run).
            let adder = ChainMc::new(&tech, 12).three_sigma_over_mu(vdd, circuit_samples, &stream);
            let drop = performance_drop(&engine, vdd).drop;
            println!(
                "{:<12} {:>6.2}V {:>11.1}% {:>11.1}% {:>11.1}% {:>11.1}%",
                node.to_string(),
                vdd.get(),
                single * 100.0,
                chain * 100.0,
                adder * 100.0,
                drop * 100.0
            );
        }
        println!();
    }

    println!("takeaways (paper §3):");
    println!(" - a single gate's variation explodes below ~0.6 V,");
    println!(" - chains average most of it out (the 3sigma/mu drops ~3x at 50 stages),");
    println!(" - but the slowest-of-12,800-paths statistics claw some of it back,");
    println!(" - and technology scaling (22 nm) makes every row worse.");
}
