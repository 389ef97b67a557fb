//! Adder netlist generators.
//!
//! §3.1 of the paper validates the chain-averaging claim against a real
//! datapath circuit: Drego et al. measured only ≈8.4 % delay variation at
//! 0.5 V for a **64-bit Kogge–Stone adder** — close to the chain-of-50
//! figure. We rebuild that comparison: [`kogge_stone`] emits a full
//! propagate/generate prefix network, [`ripple_carry`] the linear-depth
//! baseline, and the STA Monte Carlo in [`crate::sta`] produces their
//! critical-path distributions.

use crate::gate::GateKind;
use crate::netlist::Netlist;

/// Build a `width`-bit Kogge–Stone adder netlist.
///
/// Structure: per-bit propagate (XOR2) and generate (AND2) cells, ⌈log₂ w⌉
/// levels of prefix cells (each an AOI21 "generate" merge plus an AND2
/// "propagate" merge), and a final sum XOR per bit. The logic function is
/// represented structurally for timing purposes (every cell contributes its
/// logical-effort delay); functional simulation is not required for the
/// variation study.
///
/// # Panics
///
/// Panics if `width < 2`.
///
/// # Example
///
/// ```
/// let adder = ntv_circuit::adder::kogge_stone(64);
/// // log2(64) = 6 prefix levels + PG + sum = depth 8.
/// assert_eq!(adder.logic_depth(), 8);
/// ```
#[must_use]
pub fn kogge_stone(width: usize) -> Netlist {
    assert!(width >= 2, "adder width must be at least 2 bits");
    let mut n = Netlist::new(format!("kogge-stone-{width}"));

    let a: Vec<_> = (0..width).map(|i| n.add_input(format!("a{i}"))).collect();
    let b: Vec<_> = (0..width).map(|i| n.add_input(format!("b{i}"))).collect();

    // Level 0: bitwise propagate p = a^b, generate g = a&b.
    let mut p: Vec<_> = (0..width)
        .map(|i| n.add_gate(GateKind::Xor2, &[a[i], b[i]]))
        .collect();
    let mut g: Vec<_> = (0..width)
        .map(|i| n.add_gate(GateKind::And2, &[a[i], b[i]]))
        .collect();
    let sum_p = p.clone();

    // Kogge-Stone prefix tree: at level l, combine with the node 2^l back.
    let mut span = 1;
    while span < width {
        let mut new_p = p.clone();
        let mut new_g = g.clone();
        for i in span..width {
            // g' = g | (p & g_prev): an AOI21-class cell.
            new_g[i] = n.add_gate(GateKind::Aoi21, &[g[i], p[i], g[i - span]]);
            // p' = p & p_prev.
            new_p[i] = n.add_gate(GateKind::And2, &[p[i], p[i - span]]);
        }
        p = new_p;
        g = new_g;
        span *= 2;
    }

    // Sum bits: s0 = p0; s_i = p_i ^ c_{i-1} with c_{i-1} = g[i-1] (prefix).
    n.mark_output(sum_p[0], "s0");
    for i in 1..width {
        let s = n.add_gate(GateKind::Xor2, &[sum_p[i], g[i - 1]]);
        n.mark_output(s, format!("s{i}"));
    }
    // ntv:allow(panic-path): `g` holds `width` carries and width >= 2 is asserted on entry
    n.mark_output(g[width - 1], "cout");
    n
}

/// Build a `width`-bit ripple-carry adder netlist (linear-depth baseline).
///
/// Per-bit full adder: sum = (a^b)^cin (two XOR2), carry = majority
/// realized as AOI21 over (a&b, a^b, cin).
///
/// # Panics
///
/// Panics if `width < 2`.
#[must_use]
pub fn ripple_carry(width: usize) -> Netlist {
    assert!(width >= 2, "adder width must be at least 2 bits");
    let mut n = Netlist::new(format!("ripple-carry-{width}"));

    let a: Vec<_> = (0..width).map(|i| n.add_input(format!("a{i}"))).collect();
    let b: Vec<_> = (0..width).map(|i| n.add_input(format!("b{i}"))).collect();
    let cin = n.add_input("cin");

    let mut carry = cin;
    for i in 0..width {
        let p = n.add_gate(GateKind::Xor2, &[a[i], b[i]]);
        let gbit = n.add_gate(GateKind::And2, &[a[i], b[i]]);
        let s = n.add_gate(GateKind::Xor2, &[p, carry]);
        n.mark_output(s, format!("s{i}"));
        carry = n.add_gate(GateKind::Aoi21, &[gbit, p, carry]);
    }
    n.mark_output(carry, "cout");
    n
}

/// Build a `width`-bit Brent–Kung adder netlist.
///
/// The Brent–Kung prefix tree trades depth for wiring: `2·log₂w − 1` prefix
/// levels (vs Kogge–Stone's `log₂w`) but only `~2w` prefix cells (vs
/// `~w·log₂w`). Under variation, its longer critical path averages more
/// random per-gate variation (the chain effect of Fig 1) at the cost of a
/// slower nominal delay — a trade-off the STA Monte Carlo can quantify.
///
/// # Panics
///
/// Panics if `width` is not a power of two or is less than 2.
#[must_use]
pub fn brent_kung(width: usize) -> Netlist {
    assert!(
        width >= 2 && width.is_power_of_two(),
        "width must be a power of two >= 2"
    );
    let mut n = Netlist::new(format!("brent-kung-{width}"));

    let a: Vec<_> = (0..width).map(|i| n.add_input(format!("a{i}"))).collect();
    let b: Vec<_> = (0..width).map(|i| n.add_input(format!("b{i}"))).collect();

    let p: Vec<_> = (0..width)
        .map(|i| n.add_gate(GateKind::Xor2, &[a[i], b[i]]))
        .collect();
    let mut g: Vec<_> = (0..width)
        .map(|i| n.add_gate(GateKind::And2, &[a[i], b[i]]))
        .collect();
    let mut pp = p.clone();
    let sum_p = p;

    // Up-sweep: combine at strides 1, 2, 4, ...
    let mut stride = 1;
    while stride < width {
        let mut i = 2 * stride - 1;
        while i < width {
            g[i] = n.add_gate(GateKind::Aoi21, &[g[i], pp[i], g[i - stride]]);
            pp[i] = n.add_gate(GateKind::And2, &[pp[i], pp[i - stride]]);
            i += 2 * stride;
        }
        stride *= 2;
    }
    // Down-sweep: fill in the intermediate prefixes.
    stride = width / 4;
    while stride >= 1 {
        let mut i = 3 * stride - 1;
        while i < width {
            g[i] = n.add_gate(GateKind::Aoi21, &[g[i], pp[i], g[i - stride]]);
            pp[i] = n.add_gate(GateKind::And2, &[pp[i], pp[i - stride]]);
            i += 2 * stride;
        }
        stride /= 2;
    }

    n.mark_output(sum_p[0], "s0");
    for i in 1..width {
        let s = n.add_gate(GateKind::Xor2, &[sum_p[i], g[i - 1]]);
        n.mark_output(s, format!("s{i}"));
    }
    // ntv:allow(panic-path): `g` holds `width` carries and width >= 2 is asserted on entry
    n.mark_output(g[width - 1], "cout");
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sta;
    use ntv_device::{TechModel, TechNode};
    use ntv_mc::{CounterRng, Summary};
    use ntv_units::Volts;

    #[test]
    fn kogge_stone_depth_is_logarithmic() {
        assert_eq!(kogge_stone(8).logic_depth(), 5); // PG + 3 prefix + sum
        assert_eq!(kogge_stone(16).logic_depth(), 6);
        assert_eq!(kogge_stone(64).logic_depth(), 8);
    }

    #[test]
    fn ripple_carry_depth_is_linear() {
        let d8 = ripple_carry(8).logic_depth();
        let d16 = ripple_carry(16).logic_depth();
        assert!(d16 > d8 + 6, "d8={d8} d16={d16}");
    }

    #[test]
    fn kogge_stone_gate_count_is_n_log_n() {
        let n64 = kogge_stone(64).gate_count();
        // 2n PG + n-1 sum + prefix cells 2*sum_{l}(n - 2^l) ~ 2(n log n - n + 1)
        assert!(n64 > 700 && n64 < 1100, "gate count {n64}");
    }

    #[test]
    fn io_counts() {
        let ks = kogge_stone(16);
        assert_eq!(ks.inputs().len(), 32);
        assert_eq!(ks.outputs().len(), 17); // 16 sums + cout
        let rc = ripple_carry(16);
        assert_eq!(rc.inputs().len(), 33); // + cin
        assert_eq!(rc.outputs().len(), 17);
    }

    #[test]
    fn kogge_stone_is_faster_than_ripple_at_nominal() {
        let tech = TechModel::new(TechNode::Gp90);
        let ks = kogge_stone(32);
        let rc = ripple_carry(32);
        let dk = sta::analyze(&ks, &sta::nominal_delays(&ks, &tech, Volts(1.0))).critical_delay_ps;
        let dr = sta::analyze(&rc, &sta::nominal_delays(&rc, &tech, Volts(1.0))).critical_delay_ps;
        assert!(dk < 0.5 * dr, "KS {dk} vs RC {dr}");
    }

    #[test]
    fn brent_kung_is_deeper_but_smaller_than_kogge_stone() {
        let ks = kogge_stone(64);
        let bk = brent_kung(64);
        assert!(
            bk.logic_depth() > ks.logic_depth(),
            "{} vs {}",
            bk.logic_depth(),
            ks.logic_depth()
        );
        assert!(
            bk.gate_count() < ks.gate_count(),
            "{} vs {}",
            bk.gate_count(),
            ks.gate_count()
        );
        assert_eq!(bk.outputs().len(), 65);
    }

    #[test]
    fn brent_kung_nominal_delay_between_ks_and_ripple() {
        let tech = TechModel::new(TechNode::Gp90);
        let d = |nl: &crate::netlist::Netlist| {
            sta::analyze(nl, &sta::nominal_delays(nl, &tech, Volts(1.0))).critical_delay_ps
        };
        let ks = d(&kogge_stone(32));
        let bk = d(&brent_kung(32));
        let rc = d(&ripple_carry(32));
        assert!(ks < bk && bk < rc, "ks {ks} bk {bk} rc {rc}");
    }

    #[test]
    fn prefix_topologies_sit_in_the_same_variation_band() {
        // Two opposing effects meet in a prefix adder: longer chains damp
        // per-gate variation (Fig 1's averaging), while many reconvergent
        // near-critical paths tighten the max statistics. Kogge-Stone has
        // far more parallel paths, so despite its shorter chains its
        // relative spread comes out slightly *below* Brent-Kung's. Both
        // stay in the chain-of-50 band the paper leans on.
        let tech = TechModel::new(TechNode::Gp90);
        let mut rng = CounterRng::new(41, "prefix_topologies_sit_in_the_same_variation_band").at(0);
        let mut cv = |nl: &crate::netlist::Netlist| {
            let s: Summary = sta::mc_critical_delays(nl, &tech, Volts(0.5), 120, &mut rng)
                .into_iter()
                .collect();
            s.three_sigma_over_mu()
        };
        let ks = cv(&kogge_stone(32));
        let bk = cv(&brent_kung(32));
        assert!(
            ks < bk,
            "reconvergence should tighten KS below BK: ks {ks} bk {bk}"
        );
        assert!(bk < 1.8 * ks, "same band: bk {bk} vs ks {ks}");
        assert!((0.04..0.20).contains(&ks) && (0.04..0.20).contains(&bk));
    }

    #[test]
    fn kogge_stone_variation_matches_drego_order_of_magnitude() {
        // Paper cites ~8.4% (3 sigma/mu) at 0.5 V for a 64-bit Kogge-Stone.
        // Accept the right order: between 4% and 20%.
        let tech = TechModel::new(TechNode::Gp90);
        let ks = kogge_stone(64);
        let mut rng =
            CounterRng::new(12, "kogge_stone_variation_matches_drego_order_of_magnitude").at(0);
        let s: Summary = sta::mc_critical_delays(&ks, &tech, Volts(0.5), 150, &mut rng)
            .into_iter()
            .collect();
        let v = s.three_sigma_over_mu();
        assert!(v > 0.04 && v < 0.20, "KS 3sigma/mu at 0.5V: {v}");
    }
}
