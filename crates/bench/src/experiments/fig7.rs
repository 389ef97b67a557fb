//! Fig 7: power-overhead comparison between structural duplication and
//! voltage margining across the NTV band, for all four technology nodes.
//!
//! Solved exactly by [`compare_sweep`] (exact order statistics, no MC
//! noise); `samples`, `seed` and `exec` are accepted for interface
//! uniformity but do not affect the result.

use ntv_core::compare::{compare_sweep, ComparisonPoint};
use ntv_core::{DatapathConfig, DatapathEngine, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_units::Volts;

use crate::experiments::TABLE_VOLTAGES;
use crate::table::TextTable;

/// One node's comparison panel.
#[derive(Debug, Clone)]
pub struct Fig7Panel {
    /// Technology node.
    pub node: TechNode,
    /// Per-voltage comparison points.
    pub points: Vec<ComparisonPoint>,
}

#[cfg(test)]
impl Fig7Panel {
    /// Preferred technique at each swept voltage.
    fn preferences(&self) -> Vec<(f64, ntv_core::compare::Technique)> {
        self.points
            .iter()
            .map(|p| (p.vdd.get(), p.preferred()))
            .collect()
    }
}

/// Full Fig 7 result.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// One panel per node, paper order.
    pub panels: Vec<Fig7Panel>,
}

/// Regenerate Fig 7. The exact solves read none of the arguments.
#[must_use]
pub fn run_with(_samples: usize, _seed: u64, _exec: Executor) -> Fig7Result {
    let panels = TechNode::ALL
        .iter()
        .map(|&node| {
            let tech = TechModel::new(node);
            let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
            Fig7Panel {
                node,
                points: compare_sweep(&engine, &TABLE_VOLTAGES.map(Volts), 128),
            }
        })
        .collect();
    Fig7Result { panels }
}

impl std::fmt::Display for Fig7Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 7 — power overhead: duplication vs voltage margining"
        )?;
        for panel in &self.panels {
            writeln!(f, "\n({})", panel.node)?;
            let mut t = TextTable::new(&["Vdd (V)", "dup power", "margin power", "winner"]);
            for p in &panel.points {
                t.row(&[
                    format!("{:.2}", p.vdd.get()),
                    p.duplication_power.map_or_else(
                        || ">25% (>128 spares)".to_owned(),
                        |x| format!("{:.1}%", x * 100.0),
                    ),
                    format!("{:.1}%", p.margining_power * 100.0),
                    p.preferred().to_string(),
                ]);
            }
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntv_core::compare::Technique;

    #[test]
    fn crossover_structure_matches_paper() {
        let r = run_with(2000, 13, Executor::default());
        // 90nm panel: duplication wins across the high-NTV band.
        let p90 = &r.panels[0];
        let high_ntv: Vec<Technique> = p90
            .preferences()
            .into_iter()
            .filter(|&(v, _)| v >= 0.6)
            .map(|(_, t)| t)
            .collect();
        assert!(
            high_ntv.contains(&Technique::Duplication),
            "90nm high-NTV should favour duplication somewhere: {high_ntv:?}"
        );
        // Scaled nodes at 0.5 V: duplication needs >128 spares, margining wins.
        for panel in &r.panels[1..] {
            let p05 = &panel.points[0];
            assert_eq!(p05.vdd, Volts(0.5));
            assert_eq!(
                p05.preferred(),
                Technique::VoltageMargining,
                "{:?}",
                panel.node
            );
        }
    }

    #[test]
    fn display_renders_all_panels() {
        let text = run_with(400, 14, Executor::default()).to_string();
        for node in TechNode::ALL {
            assert!(text.contains(&node.to_string()));
        }
        assert!(text.contains("winner"));
    }
}
