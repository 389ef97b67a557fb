//! A small standard-cell library.
//!
//! Gate delays are expressed as **logical-effort factors** relative to the
//! FO4 inverter delay of the active technology model: a NAND2 driving a
//! similar load is ≈1.25× slower than an inverter, a NOR2 ≈1.5×, and so
//! on. This keeps all voltage and variation physics in `ntv-device` while
//! letting netlists mix cell types.

use ntv_device::{ChipSample, GateSample, TechModel};
use ntv_mc::CounterDraws;
use ntv_units::Volts;

/// Combinational cell types available to netlists.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Primary input / source node (zero delay).
    Input,
    /// Inverter (the FO4 reference cell, factor 1.0).
    Inv,
    /// 2-input NAND.
    Nand2,
    /// 2-input NOR.
    Nor2,
    /// 2-input AND (NAND + INV).
    And2,
    /// 2-input OR (NOR + INV).
    Or2,
    /// 2-input XOR.
    Xor2,
    /// AND-OR-invert 21 cell.
    Aoi21,
    /// Buffer (two inverters).
    Buf,
}

impl GateKind {
    /// Logical-effort delay factor relative to an FO4 inverter.
    ///
    /// Classical logical-effort values for equal output load (Sutherland &
    /// Sproull): NAND2 g=4/3, NOR2 g=5/3, XOR2 ≈ 2 stages.
    #[must_use]
    pub fn delay_factor(self) -> f64 {
        match self {
            GateKind::Input => 0.0,
            GateKind::Inv => 1.0,
            GateKind::Nand2 => 1.25,
            GateKind::Nor2 => 1.5,
            GateKind::And2 => 2.1,
            GateKind::Or2 => 2.3,
            GateKind::Xor2 => 2.2,
            GateKind::Aoi21 => 1.6,
            GateKind::Buf => 2.0,
        }
    }

    /// Number of logic inputs the cell expects (`None` for variadic cells).
    #[must_use]
    pub fn fanin_arity(self) -> Option<usize> {
        match self {
            GateKind::Input => Some(0),
            GateKind::Inv | GateKind::Buf => Some(1),
            GateKind::Nand2 | GateKind::Nor2 | GateKind::And2 | GateKind::Or2 | GateKind::Xor2 => {
                Some(2)
            }
            GateKind::Aoi21 => Some(3),
        }
    }

    /// Sample this cell's delay (ps) on a given chip.
    ///
    /// Inputs are delay-free sources; every other cell scales a freshly
    /// varied FO4 delay by its logical-effort factor.
    pub fn sample_delay_ps(
        self,
        tech: &TechModel,
        vdd: Volts,
        chip: &ChipSample,
        rng: &mut CounterDraws,
    ) -> f64 {
        if self == GateKind::Input {
            return 0.0;
        }
        let gate: GateSample = tech.sample_gate(rng);
        self.delay_factor() * tech.gate_delay_ps(vdd, chip, &gate)
    }
}

impl std::fmt::Display for GateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GateKind::Input => "INPUT",
            GateKind::Inv => "INV",
            GateKind::Nand2 => "NAND2",
            GateKind::Nor2 => "NOR2",
            GateKind::And2 => "AND2",
            GateKind::Or2 => "OR2",
            GateKind::Xor2 => "XOR2",
            GateKind::Aoi21 => "AOI21",
            GateKind::Buf => "BUF",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntv_device::TechNode;
    use ntv_mc::CounterRng;

    #[test]
    fn inverter_is_the_reference() {
        assert_eq!(GateKind::Inv.delay_factor(), 1.0);
        assert_eq!(GateKind::Input.delay_factor(), 0.0);
    }

    #[test]
    fn complex_gates_are_slower_than_inverter() {
        for kind in [
            GateKind::Nand2,
            GateKind::Nor2,
            GateKind::Xor2,
            GateKind::Aoi21,
            GateKind::And2,
            GateKind::Or2,
            GateKind::Buf,
        ] {
            assert!(kind.delay_factor() > 1.0, "{kind}");
        }
    }

    #[test]
    fn sampled_delay_tracks_factor() {
        let tech = TechModel::new(TechNode::Gp90);
        let chip = ChipSample::nominal();
        let mut rng = CounterRng::new(2, "sampled_delay_tracks_factor").at(0);
        let mut inv = 0.0;
        let mut nand = 0.0;
        for _ in 0..2000 {
            inv += GateKind::Inv.sample_delay_ps(&tech, Volts(0.7), &chip, &mut rng);
            nand += GateKind::Nand2.sample_delay_ps(&tech, Volts(0.7), &chip, &mut rng);
        }
        let ratio = nand / inv;
        assert!((ratio - 1.25).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn input_sampling_is_free_and_consumes_no_randomness() {
        let tech = TechModel::new(TechNode::Gp45);
        let chip = ChipSample::nominal();
        let mut a = CounterRng::new(9, "input_sampling_is_free_and_consumes_no_randomness").at(0);
        let mut b = CounterRng::new(9, "input_sampling_is_free_and_consumes_no_randomness").at(0);
        assert_eq!(
            GateKind::Input.sample_delay_ps(&tech, Volts(0.6), &chip, &mut a),
            0.0
        );
        // `a` should still be in lockstep with `b`.
        assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
    }

    #[test]
    fn arity_is_consistent() {
        assert_eq!(GateKind::Inv.fanin_arity(), Some(1));
        assert_eq!(GateKind::Nand2.fanin_arity(), Some(2));
        assert_eq!(GateKind::Aoi21.fanin_arity(), Some(3));
        assert_eq!(GateKind::Input.fanin_arity(), Some(0));
    }
}
