//! Fig 9 (Appendix A): energy and delay vs supply voltage — the
//! super-threshold / near-threshold / sub-threshold regions and the
//! sub-threshold energy minimum.

use ntv_device::energy::{EnergyModel, EnergyPoint};
use ntv_device::{TechModel, TechNode};
use ntv_units::Volts;
use serde::{Deserialize, Serialize};

use crate::table::TextTable;

/// Full Fig 9 result for one node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Result {
    /// Technology node (the paper's figure is generic; 90 nm is shown).
    pub node: TechNode,
    /// Energy/delay sweep, ascending voltage.
    pub sweep: Vec<EnergyPoint>,
    /// The minimum-energy operating point.
    pub minimum: EnergyPoint,
    /// Energy ratio nominal / NTV (the "~10x energy reduction").
    pub energy_saving_at_ntv: f64,
    /// Delay ratio NTV / nominal (the "~10x performance cost").
    pub slowdown_at_ntv: f64,
    /// Energy ratio NTV / minimum (the "only 2x above the minimum").
    pub energy_vs_minimum: f64,
    /// Speedup of NTV over the minimum-energy point.
    pub speedup_vs_minimum: f64,
}

/// The NTV voltage used for the headline ratios.
pub const NTV_POINT: f64 = 0.5;

/// Regenerate Fig 9 for a node.
#[must_use]
pub fn run_for(node: TechNode) -> Fig9Result {
    let tech = TechModel::new(node);
    let energy = EnergyModel::new(&tech);
    let sweep = energy.sweep(Volts(0.15), tech.nominal_vdd(), 35);
    let minimum = energy.minimum_energy_point();
    let ntv = energy.point(Volts(NTV_POINT));
    let nominal = energy.point(tech.nominal_vdd());
    Fig9Result {
        node,
        sweep,
        minimum,
        energy_saving_at_ntv: nominal.total_fj / ntv.total_fj,
        slowdown_at_ntv: ntv.delay_ns / nominal.delay_ns,
        energy_vs_minimum: ntv.total_fj / minimum.total_fj,
        speedup_vs_minimum: minimum.delay_ns / ntv.delay_ns,
    }
}

impl std::fmt::Display for Fig9Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let tech = TechModel::new(self.node);
        writeln!(f, "Fig 9 — energy/delay vs Vdd, {}", self.node)?;
        let mut t = TextTable::new(&[
            "Vdd (V)",
            "region",
            "E_sw (fJ)",
            "E_leak (fJ)",
            "E_total (fJ)",
            "delay (ns)",
        ]);
        for p in &self.sweep {
            t.row(&[
                format!("{:.2}", p.vdd.get()),
                tech.region(p.vdd).to_string(),
                format!("{:.1}", p.switching_fj),
                format!("{:.2}", p.leakage_fj),
                format!("{:.1}", p.total_fj),
                format!("{:.2}", p.delay_ns),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "minimum energy: {:.1} fJ at {:.2} V ({})",
            self.minimum.total_fj,
            self.minimum.vdd.get(),
            tech.region(self.minimum.vdd)
        )?;
        writeln!(
            f,
            "NTV (0.5 V) vs nominal: {:.1}x less energy at {:.1}x the delay",
            self.energy_saving_at_ntv, self.slowdown_at_ntv
        )?;
        writeln!(
            f,
            "NTV vs minimum-energy point: {:.1}x energy for {:.1}x speedup",
            self.energy_vs_minimum, self.speedup_vs_minimum
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntv_device::OperatingRegion;

    #[test]
    fn region_structure_matches_paper() {
        for node in TechNode::ALL {
            let r = run_for(node);
            let tech = TechModel::new(node);
            // Minimum lies in the sub-threshold region.
            assert_eq!(
                tech.region(r.minimum.vdd),
                OperatingRegion::SubThreshold,
                "{node}"
            );
            // NTV trades a modest energy increase over the minimum for a
            // large speedup (paper: ~2x energy for ~10x performance).
            assert!(
                r.energy_vs_minimum > 1.0 && r.energy_vs_minimum < 4.0,
                "{node}: {r:?}"
            );
            assert!(r.speedup_vs_minimum > 4.0, "{node}");
            // And saves substantial energy vs nominal at a large delay cost.
            assert!(r.energy_saving_at_ntv > 2.0, "{node}");
            assert!(r.slowdown_at_ntv > 3.0, "{node}");
        }
    }

    #[test]
    fn sweep_shows_energy_minimum_interior() {
        let r = run_for(TechNode::Gp90);
        let totals: Vec<f64> = r.sweep.iter().map(|p| p.total_fj).collect();
        let min_idx = totals
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .expect("non-empty");
        assert!(
            min_idx > 0 && min_idx < totals.len() - 1,
            "minimum is interior"
        );
    }

    #[test]
    fn display_reports_ratios() {
        let text = run_for(TechNode::Gp90).to_string();
        assert!(text.contains("minimum energy"));
        assert!(text.contains("NTV (0.5 V) vs nominal"));
    }
}
