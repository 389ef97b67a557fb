//! Quickstart: how much does process variation cost a near-threshold wide
//! SIMD datapath, and what is the cheapest fix?
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ntv_simd::core::compare::compare_at;
use ntv_simd::core::perf::performance_drop;
use ntv_simd::core::{DatapathConfig, DatapathEngine, Evaluation, Executor};
use ntv_simd::device::{TechModel, TechNode};
use ntv_simd::mc::CounterRng;
use ntv_simd::units::Volts;

fn main() {
    let samples = 5_000;
    let seed = 42;

    // A 128-lane SIMD datapath (100 critical paths per lane, 50 FO4 each —
    // the paper's Diet SODA configuration) in 90 nm, run at 0.55 V.
    let tech = TechModel::new(TechNode::Gp90);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let vdd = 0.55;

    // 1. The raw voltage scaling win: delay and switching-energy factors.
    let slowdown = tech.fo4_delay_ps(Volts(vdd)) / tech.fo4_delay_ps(Volts(1.0));
    println!("90nm GP @{vdd} V vs 1.0 V:");
    println!(
        "  gate delay grows {slowdown:.1}x, switching energy shrinks {:.1}x",
        (1.0 / vdd).powi(2)
    );

    // 2. What variation adds on top: the 99% chip-delay point in FO4 units.
    let stream = CounterRng::new(seed, "quickstart");
    let dist = engine.chip_delay_distribution(Volts(vdd), samples, &stream, Executor::default());
    println!(
        "  ideal critical path is 50 FO4; the 99% point of the slowest of\n  \
         12,800 paths is {:.1} FO4 ({:.2} ns)",
        dist.q99_fo4(),
        dist.q99_ns()
    );
    let drop = performance_drop(&engine, Volts(vdd), samples, seed, Executor::default());
    println!(
        "  variation-induced performance drop vs nominal: {:.1}%",
        drop.drop * 100.0
    );

    // 3. The mitigation menu: spare lanes vs a few millivolts.
    let point = compare_at(
        &engine,
        Volts(vdd),
        128,
        samples,
        seed,
        Executor::default(),
        Evaluation::MonteCarlo,
    );
    match (point.spares, point.duplication_power) {
        (Some(spares), Some(power)) => println!(
            "  structural duplication: {spares} spare lanes ({:.1}% power overhead)",
            power * 100.0
        ),
        _ => println!("  structural duplication: >128 spares needed (impractical)"),
    }
    println!(
        "  voltage margining: +{:.1} mV ({:.1}% power overhead)",
        point.margin.get() * 1000.0,
        point.margining_power * 100.0
    );
    println!("  cheapest: {}", point.preferred());
}
