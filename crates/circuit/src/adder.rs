//! The §3.1 validation circuit.
//!
//! §3.1 of the paper validates the chain-averaging claim against a real
//! datapath circuit: Drego et al. measured only ≈8.4 % delay variation at
//! 0.5 V for a **64-bit Kogge–Stone adder** — close to the chain-of-50
//! figure. We rebuild that comparison: [`kogge_stone`] emits a full
//! propagate/generate prefix network, and the STA Monte Carlo in
//! [`crate::sta`] produces its critical-path distribution (`extensions`
//! prints it).

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
    let mut n = Netlist::default();

    let a: Vec<_> = (0..width).map(|_| n.add_input()).collect();
    let b: Vec<_> = (0..width).map(|_| n.add_input()).collect();

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

    // Sum bits: s0 = p0 (no gate); s_i = p_i ^ c_{i-1} with c_{i-1} =
    // g[i-1] (prefix). The carry out is g[width - 1] itself.
    for i in 1..width {
        n.add_gate(GateKind::Xor2, &[sum_p[i], g[i - 1]]);
    }
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
    fn kogge_stone_gate_count_is_n_log_n() {
        let n64 = kogge_stone(64).gate_count();
        // 2n PG + n-1 sum + prefix cells 2*sum_{l}(n - 2^l) ~ 2(n log n - n + 1)
        assert!(n64 > 700 && n64 < 1100, "gate count {n64}");
    }

    #[test]
    fn kogge_stone_variation_matches_drego_order_of_magnitude() {
        // Paper cites ~8.4% (3 sigma/mu) at 0.5 V for a 64-bit Kogge-Stone.
        // Accept the right order: between 4% and 20%.
        let tech = TechModel::new(TechNode::Gp90);
        let ks = kogge_stone(64);
        let stream = CounterRng::new(12, "kogge_stone_variation_matches_drego_order_of_magnitude");
        let s: Summary = sta::mc_critical_delays(&ks, &tech, Volts(0.5), 0..150, &stream)
            .into_iter()
            .collect();
        let v = s.three_sigma_over_mu();
        assert!(v > 0.04 && v < 0.20, "KS 3sigma/mu at 0.5V: {v}");
    }
}
