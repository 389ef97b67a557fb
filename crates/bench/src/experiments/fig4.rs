//! Fig 4: variation-induced performance drop of the 128-wide SIMD
//! datapath vs supply voltage, for all four technology nodes.

use ntv_core::perf::{performance_drop_sweep, PerfDropPoint};
use ntv_core::{DatapathConfig, DatapathEngine, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_units::Volts;
use serde::{Deserialize, Serialize};

use crate::experiments::voltage_grid;
use crate::table::TextTable;

/// One node's performance-drop curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Curve {
    /// Technology node.
    pub node: TechNode,
    /// Sweep points, ascending in voltage.
    pub points: Vec<PerfDropPoint>,
}

/// Full Fig 4 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Result {
    /// One curve per node, paper order.
    pub curves: Vec<Fig4Curve>,
}

impl Fig4Result {
    /// The drop for a node at a voltage, if swept.
    #[must_use]
    pub fn drop(&self, node: TechNode, vdd: f64) -> Option<f64> {
        self.curves
            .iter()
            .find(|c| c.node == node)?
            .points
            .iter()
            .find(|p| (p.vdd.get() - vdd).abs() < 1e-9)
            .map(|p| p.drop)
    }
}

/// Regenerate Fig 4 on an explicit executor.
#[must_use]
pub fn run_with(samples: usize, seed: u64, exec: Executor) -> Fig4Result {
    let curves = TechNode::ALL
        .iter()
        .map(|&node| {
            let tech = TechModel::new(node);
            let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
            let grid: Vec<Volts> = voltage_grid(node).into_iter().map(Volts).collect();
            Fig4Curve {
                node,
                points: performance_drop_sweep(&engine, &grid, samples, seed, exec),
            }
        })
        .collect();
    Fig4Result { curves }
}

impl std::fmt::Display for Fig4Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig 4 — performance drop (%) of the 128-wide datapath")?;
        writeln!(
            f,
            "(paper anchors: 90nm 5.0/2.5/1.5% at 0.50/0.55/0.60 V; 22nm ~18% at 0.50 V)"
        )?;
        let headers: Vec<String> = std::iter::once("Vdd (V)".to_owned())
            .chain(self.curves.iter().map(|c| c.node.to_string()))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = TextTable::new(&header_refs);
        let grid: Vec<f64> = self.curves[0].points.iter().map(|p| p.vdd.get()).collect();
        for &vdd in &grid {
            let mut cells = vec![format!("{vdd:.2}")];
            for c in &self.curves {
                let cell = c
                    .points
                    .iter()
                    .find(|p| (p.vdd.get() - vdd).abs() < 1e-9)
                    .map_or_else(|| "-".to_owned(), |p| format!("{:.1}%", p.drop * 100.0));
                cells.push(cell);
            }
            t.row(&cells);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntv_device::calib;

    #[test]
    fn matches_paper_anchor_points() {
        let r = run_with(3000, 7, Executor::default());
        for (vdd, want) in calib::FIG4_PERF_DROP_90NM {
            let got = r.drop(TechNode::Gp90, vdd).expect("swept");
            assert!(
                (got - want).abs() < want.max(0.01),
                "90nm @{vdd} V: {got} vs paper {want}"
            );
        }
        let d22 = r.drop(TechNode::PtmHp22, 0.5).expect("swept");
        assert!(
            (d22 - calib::FIG4_PERF_DROP_22NM_05V).abs() < 0.08,
            "22nm @0.5 V: {d22} vs paper {}",
            calib::FIG4_PERF_DROP_22NM_05V
        );
    }

    #[test]
    fn drop_decreases_with_voltage_for_every_node() {
        let r = run_with(2000, 8, Executor::default());
        for c in &r.curves {
            for w in c.points.windows(2) {
                assert!(w[1].drop <= w[0].drop + 0.005, "{:?}", c.node);
            }
        }
    }
}
