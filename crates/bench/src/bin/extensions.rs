//! Run the extension experiments (SIMD-width sweep, adaptive body bias,
//! timing-yield curves, error policies, variance decomposition, modelling
//! ablations) that go beyond the paper's printed figures, and the §3.1
//! Kogge–Stone cross-check.

use ntv_bench::{experiments::extensions, experiments::policies, DEFAULT_SEED};
use ntv_core::Executor;
use ntv_device::TechNode;
use ntv_units::Volts;

fn main() {
    let samples = 5_000;
    let exec = Executor::default();
    for node in [TechNode::Gp90, TechNode::PtmHp22] {
        println!(
            "{}\n",
            extensions::width_sweep_with(node, 0.55, samples, DEFAULT_SEED, exec)
        );
    }
    for node in TechNode::ALL {
        println!(
            "{}",
            extensions::abb_comparison_with(node, 0.6, samples, DEFAULT_SEED, exec)
        );
    }
    println!();
    println!("{}", extensions::yield_curves(TechNode::Gp90, 0.55));
    println!();
    println!("{}", policies::run(400, DEFAULT_SEED));
    println!();
    for node in [TechNode::Gp90, TechNode::PtmHp22] {
        let tech = ntv_device::TechModel::new(node);
        println!(
            "Extension — variance decomposition, {node} @0.55 V\n{}",
            ntv_core::sensitivity::decompose(
                &tech,
                ntv_core::DatapathConfig::paper_default(),
                Volts(0.55),
                samples,
                DEFAULT_SEED,
                exec,
            )
        );
    }
    println!("{}", extensions::ablations());
    println!();
    println!(
        "{}",
        extensions::kogge_stone_check_with(1_000, DEFAULT_SEED, exec)
    );
}
