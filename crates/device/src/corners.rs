//! Process corners.
//!
//! Monte-Carlo studies sample the full variation distribution; corner
//! analysis pins the systematic components at fixed multiples of σ — the
//! classic SS/TT/FF sign-off view. The near-threshold twist the paper's
//! data makes vivid: the same 3σ-slow corner costs roughly twice the
//! relative delay at 0.5 V that it does at nominal voltage, because the
//! delay sensitivity `S(V)` explodes near threshold.

use ntv_units::Volts;

use crate::model::TechModel;
use crate::variation::ChipSample;

/// A systematic process corner, in units of the systematic σ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Fast-fast: threshold 3σ low, current factor 3σ strong.
    FastFast,
    /// Typical (no systematic shift).
    Typical,
    /// Slow-slow: threshold 3σ high, current factor 3σ weak.
    SlowSlow,
}

impl Corner {
    /// All corners, fast to slow.
    pub const ALL: [Corner; 3] = [Corner::FastFast, Corner::Typical, Corner::SlowSlow];

    /// The systematic shift this corner pins, as a multiple of σ.
    #[must_use]
    pub fn sigma_multiple(self) -> f64 {
        match self {
            Corner::FastFast => -3.0,
            Corner::Typical => 0.0,
            Corner::SlowSlow => 3.0,
        }
    }

    /// The chip-level systematic sample representing this corner for a
    /// technology model.
    #[must_use]
    pub fn chip_sample(self, tech: &TechModel) -> ChipSample {
        let k = self.sigma_multiple();
        let p = tech.params();
        ChipSample {
            dvth: k * p.sigma_vth_systematic,
            // Slow corner = weak current = negative ln-k.
            ln_k: -k * p.sigma_k_systematic,
        }
    }

    /// Variation-free FO4 delay (ps) of a chip sitting at this corner.
    #[must_use]
    pub fn fo4_delay_ps(self, tech: &TechModel, vdd: Volts) -> f64 {
        let chip = self.chip_sample(tech);
        tech.gate_delay_ps(vdd, &chip, &crate::variation::GateSample::nominal())
    }

    /// Fractional slowdown of this corner vs typical at `vdd`.
    #[must_use]
    pub fn slowdown(self, tech: &TechModel, vdd: Volts) -> f64 {
        self.fo4_delay_ps(tech, vdd) / Corner::Typical.fo4_delay_ps(tech, vdd) - 1.0
    }
}

impl std::fmt::Display for Corner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Corner::FastFast => "FF",
            Corner::Typical => "TT",
            Corner::SlowSlow => "SS",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TechNode;

    #[test]
    fn corners_are_ordered_fast_to_slow() {
        let tech = TechModel::new(TechNode::Gp90);
        for vdd in [Volts(0.5), Volts(0.7), Volts(1.0)] {
            let ff = Corner::FastFast.fo4_delay_ps(&tech, vdd);
            let tt = Corner::Typical.fo4_delay_ps(&tech, vdd);
            let ss = Corner::SlowSlow.fo4_delay_ps(&tech, vdd);
            assert!(ff < tt && tt < ss, "{vdd}: {ff} {tt} {ss}");
        }
    }

    #[test]
    fn typical_corner_matches_nominal_delay() {
        let tech = TechModel::new(TechNode::Gp45);
        assert!(
            (Corner::Typical.fo4_delay_ps(&tech, Volts(0.6)) - tech.fo4_delay_ps(Volts(0.6))).abs()
                < 1e-12
        );
        assert_eq!(Corner::Typical.slowdown(&tech, Volts(0.6)), 0.0);
    }

    #[test]
    fn corner_spread_explodes_near_threshold() {
        // The defining near-threshold hazard: the same 3-sigma systematic
        // corner costs substantially more relative delay at 0.5 V than at
        // nominal voltage. The amplification is bounded below by the
        // Vth-driven share of the systematic budget (the current-factor
        // share is voltage-independent).
        for node in TechNode::ALL {
            let tech = TechModel::new(node);
            let at_nominal = Corner::SlowSlow.slowdown(&tech, tech.nominal_vdd());
            let at_ntv = Corner::SlowSlow.slowdown(&tech, Volts(0.5));
            assert!(
                at_ntv > 1.5 * at_nominal,
                "{node}: SS slowdown {at_ntv} vs {at_nominal}"
            );
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Corner::FastFast.to_string(), "FF");
        assert_eq!(Corner::Typical.to_string(), "TT");
        assert_eq!(Corner::SlowSlow.to_string(), "SS");
    }
}
