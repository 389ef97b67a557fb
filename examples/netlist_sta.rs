//! Drive the netlist + static-timing-analysis engine directly: build the
//! paper-cited 64-bit Kogge–Stone adder (and friends), run Monte-Carlo STA
//! under near-threshold variation, and dump a Graphviz view of the
//! critical path.
//!
//! ```text
//! cargo run --release --example netlist_sta [> adder.dot]
//! ```

use ntv_simd::circuit::adder::{brent_kung, kogge_stone, ripple_carry};
use ntv_simd::circuit::multiplier::array_multiplier;
use ntv_simd::circuit::report::{to_dot, NetlistStats};
use ntv_simd::circuit::{sta, Netlist};
use ntv_simd::device::{TechModel, TechNode};
use ntv_simd::mc::{CounterRng, Summary};
use ntv_simd::units::Volts;

fn survey(tech: &TechModel, name: &str, netlist: &Netlist, samples: usize) {
    let stats = NetlistStats::of(netlist);
    let nominal = sta::analyze(netlist, &sta::nominal_delays(netlist, tech, Volts(1.0)));
    let mut rng = CounterRng::new(7, "survey").at(0);
    let mc: Summary = sta::mc_critical_delays(netlist, tech, Volts(0.5), samples, &mut rng)
        .into_iter()
        .collect();
    println!("{name}:");
    println!("  {stats}");
    println!(
        "  nominal critical path @1.0 V: {:.0} ps ({} cells deep)",
        nominal.critical_delay_ps,
        nominal.critical_path.len() - 1
    );
    println!(
        "  @0.5 V under variation: mean {:.0} ps, 3sigma/mu {:.1}%\n",
        mc.mean(),
        mc.three_sigma_over_mu() * 100.0
    );
}

fn main() {
    let tech = TechModel::new(TechNode::Gp90);

    survey(&tech, "64-bit Kogge-Stone adder", &kogge_stone(64), 150);
    survey(&tech, "64-bit Brent-Kung adder", &brent_kung(64), 150);
    survey(&tech, "64-bit ripple-carry adder", &ripple_carry(64), 80);
    survey(&tech, "16x16 array multiplier", &array_multiplier(16), 80);

    println!("the paper cites ~8.4% (3sigma/mu) at 0.5 V for a 64-bit Kogge-Stone");
    println!("(Drego et al.) — the same band the chain-of-50 proxy lives in, which");
    println!("is why a 50-FO4 chain stands in for SIMD-lane critical paths.\n");

    // Emit a small adder with its nominal critical path highlighted.
    let small = kogge_stone(8);
    let result = sta::analyze(&small, &sta::nominal_delays(&small, &tech, Volts(1.0)));
    let dot = to_dot(&small, &result.critical_path);
    println!(
        "--- kogge-stone-8 critical path in Graphviz (pipe through `dot -Tsvg`) ---\n{}",
        &dot[..dot.len().min(800)]
    );
    println!("... ({} total DOT lines)", dot.lines().count());
}
