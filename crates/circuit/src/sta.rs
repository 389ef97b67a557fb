//! Static timing analysis over a netlist with sampled delays.
//!
//! One Monte-Carlo trial of a real circuit works in three steps:
//!
//! 1. draw a chip ([`ntv_device::TechModel::sample_chip`]),
//! 2. sample one delay per gate instance ([`sample_delays`]),
//! 3. propagate arrival times through the DAG ([`analyze`]) to get the
//!    critical-path delay.
//!
//! Unlike the plain inverter chain, a prefix-adder netlist has massive
//! reconvergent fan-out, so its critical-path statistics combine the
//! chain-averaging effect with a max-over-paths effect — this is exactly
//! the structure the paper's architecture model abstracts (100 critical
//! paths per SIMD lane).

use std::ops::Range;

use ntv_device::{ChipSample, TechModel};
use ntv_mc::{CounterDraws, CounterRng};
use ntv_units::Volts;

use crate::gate::GateKind;
use crate::netlist::{GateId, Netlist};

/// Result of one timing analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct StaResult {
    /// Arrival time (ps) at each node, indexed by [`GateId::index`].
    pub arrival_ps: Vec<f64>,
    /// Largest arrival time over all nodes.
    pub critical_delay_ps: f64,
    /// The critical path, from a primary input to the latest node.
    pub critical_path: Vec<GateId>,
}

/// Sample one delay (ps) per gate instance on the given chip.
///
/// The returned vector is indexed by [`GateId::index`]; primary inputs get
/// delay 0.
#[must_use]
pub fn sample_delays(
    netlist: &Netlist,
    tech: &TechModel,
    vdd: Volts,
    chip: &ChipSample,
    rng: &mut CounterDraws,
) -> Vec<f64> {
    netlist
        .nodes()
        .iter()
        .map(|g| g.kind().sample_delay_ps(tech, vdd, chip, rng))
        .collect()
}

/// Variation-free delays (ps) per gate instance.
#[must_use]
pub fn nominal_delays(netlist: &Netlist, tech: &TechModel, vdd: Volts) -> Vec<f64> {
    let fo4 = tech.fo4_delay_ps(vdd);
    netlist
        .nodes()
        .iter()
        .map(|g| g.kind().delay_factor() * fo4)
        .collect()
}

/// Propagate arrival times and extract the critical path.
///
/// # Panics
///
/// Panics if `delays.len()` does not match the netlist's node count, or if
/// the netlist is empty.
#[must_use]
pub fn analyze(netlist: &Netlist, delays: &[f64]) -> StaResult {
    assert_eq!(
        delays.len(),
        netlist.node_count(),
        "need exactly one delay per netlist node"
    );
    assert!(netlist.node_count() > 0, "cannot analyze an empty netlist");

    let n = netlist.node_count();
    let mut arrival = vec![0.0_f64; n];
    let mut critical_fanin: Vec<Option<GateId>> = vec![None; n];

    for id in netlist.ids() {
        let gate = netlist.node(id);
        if gate.kind() == GateKind::Input {
            arrival[id.index()] = 0.0;
            continue;
        }
        let (worst_in, worst_arrival) = gate
            .fanin()
            .iter()
            .map(|&f| (f, arrival[f.index()]))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            // ntv:allow(panic-path): every GateKind constructor wires at least one fan-in
            .expect("logic gates have at least one fan-in");
        arrival[id.index()] = worst_arrival + delays[id.index()];
        critical_fanin[id.index()] = Some(worst_in);
    }

    let (end, &critical_delay_ps) = arrival
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        // ntv:allow(panic-path): arrival holds one slot per gate and netlists have ≥1 gate
        .expect("non-empty netlist");

    let mut path = Vec::new();
    let mut cursor = Some(GateId(end));
    while let Some(id) = cursor {
        path.push(id);
        cursor = critical_fanin[id.index()];
    }
    path.reverse();

    StaResult {
        arrival_ps: arrival,
        critical_delay_ps,
        critical_path: path,
    }
}

/// Monte-Carlo critical-path delays (ps) for chips `chips` of `stream`:
/// chip `i` draws its chip sample and its per-gate delays from
/// `stream.at(i)`, so delays do not depend on which other chips were drawn,
/// and any split of the range (one per executor worker, say) concatenates
/// to the same bits.
#[must_use]
pub fn mc_critical_delays(
    netlist: &Netlist,
    tech: &TechModel,
    vdd: Volts,
    chips: Range<u64>,
    stream: &CounterRng,
) -> Vec<f64> {
    chips
        .map(|i| {
            let mut rng = stream.at(i);
            let chip = tech.sample_chip(&mut rng);
            let delays = sample_delays(netlist, tech, vdd, &chip, &mut rng);
            analyze(netlist, &delays).critical_delay_ps
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntv_device::TechNode;

    fn chain_netlist(len: usize) -> Netlist {
        let mut n = Netlist::default();
        let mut prev = n.add_input();
        for _ in 0..len {
            prev = n.add_gate(GateKind::Inv, &[prev]);
        }
        n
    }

    #[test]
    fn chain_arrival_is_sum_of_delays() {
        let n = chain_netlist(4);
        let delays = vec![0.0, 1.0, 2.0, 3.0, 4.0];
        let r = analyze(&n, &delays);
        assert_eq!(r.critical_delay_ps, 10.0);
        assert_eq!(r.critical_path.len(), 5); // input + 4 inverters
    }

    #[test]
    fn diamond_takes_slower_branch() {
        let mut n = Netlist::default();
        let a = n.add_input();
        let fast = n.add_gate(GateKind::Inv, &[a]);
        let slow = n.add_gate(GateKind::Inv, &[a]);
        n.add_gate(GateKind::Nand2, &[fast, slow]);
        let delays = vec![0.0, 1.0, 5.0, 2.0];
        let r = analyze(&n, &delays);
        assert_eq!(r.critical_delay_ps, 7.0);
        // Path must run through the slow branch.
        assert!(r.critical_path.contains(&n.ids().nth(2).unwrap()));
    }

    #[test]
    fn nominal_sta_matches_chain_formula() {
        let tech = TechModel::new(TechNode::Gp90);
        let n = chain_netlist(50);
        let delays = nominal_delays(&n, &tech, Volts(0.6));
        let r = analyze(&n, &delays);
        let expect = 50.0 * tech.fo4_delay_ps(Volts(0.6));
        assert!((r.critical_delay_ps - expect).abs() < 1e-9);
    }

    #[test]
    fn mc_critical_delay_is_at_least_nominal_shaped() {
        let tech = TechModel::new(TechNode::Gp90);
        let n = chain_netlist(20);
        let stream = CounterRng::new(4, "mc_critical_delay_is_at_least_nominal_shaped");
        let samples = mc_critical_delays(&n, &tech, Volts(0.6), 0..200, &stream);
        assert_eq!(samples.len(), 200);
        assert!(samples.iter().all(|&d| d > 0.0));
        let nominal = 20.0 * tech.fo4_delay_ps(Volts(0.6));
        let mean = samples.iter().sum::<f64>() / 200.0;
        assert!((mean / nominal - 1.0).abs() < 0.1);
    }

    #[test]
    fn mc_critical_delays_are_index_addressed() {
        // Chip `i` is a function of `i` alone: split ranges concatenate to
        // the bits of the whole range, in any split, as executor workers
        // would produce them.
        let tech = TechModel::new(TechNode::Gp90);
        let n = crate::adder::kogge_stone(8);
        let stream = CounterRng::new(9, "mc_critical_delays_are_index_addressed");
        let bits = |chips| -> Vec<u64> {
            mc_critical_delays(&n, &tech, Volts(0.5), chips, &stream)
                .iter()
                .map(|d| d.to_bits())
                .collect()
        };
        let whole = bits(0..40);
        for split in [1, 13, 39] {
            let mut parts = bits(0..split);
            parts.extend(bits(split..40));
            assert_eq!(parts, whole, "split at {split}");
        }
    }

    #[test]
    fn critical_path_is_connected() {
        let tech = TechModel::new(TechNode::Gp45);
        let n = crate::adder::kogge_stone(16);
        let mut rng = CounterRng::new(77, "critical_path_is_connected").at(0);
        let chip = tech.sample_chip(&mut rng);
        let delays = sample_delays(&n, &tech, Volts(0.6), &chip, &mut rng);
        let r = analyze(&n, &delays);
        for w in r.critical_path.windows(2) {
            assert!(n.node(w[1]).fanin().contains(&w[0]));
        }
        // Path starts at a primary input.
        assert_eq!(n.node(r.critical_path[0]).kind(), GateKind::Input);
    }

    #[test]
    #[should_panic(expected = "one delay per netlist node")]
    fn wrong_delay_count_rejected() {
        let n = chain_netlist(2);
        let _ = analyze(&n, &[0.0, 1.0]);
    }
}
