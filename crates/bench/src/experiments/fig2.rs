//! Fig 2: delay variation (3σ/μ) of a chain of 50 FO4 inverters vs supply
//! voltage, for all four technology nodes (each up to its nominal voltage).

use ntv_circuit::chain::ChainMc;
use ntv_core::Executor;
use ntv_device::{TechModel, TechNode};
use ntv_mc::{CounterRng, Summary};
use ntv_units::Volts;
use serde::{Deserialize, Serialize};

use crate::experiments::voltage_grid;
use crate::table::TextTable;

/// One node's curve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Curve {
    /// Technology node.
    pub node: TechNode,
    /// `(vdd, 3σ/μ)` points, ascending in voltage.
    pub points: Vec<(f64, f64)>,
}

/// Full Fig 2 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Result {
    /// One curve per node, paper order.
    pub curves: Vec<Fig2Curve>,
}

impl Fig2Result {
    /// The 3σ/μ for a node at a voltage, if that point was swept.
    #[must_use]
    pub fn value(&self, node: TechNode, vdd: f64) -> Option<f64> {
        self.curves
            .iter()
            .find(|c| c.node == node)?
            .points
            .iter()
            .find(|(v, _)| (v - vdd).abs() < 1e-9)
            .map(|&(_, s)| s)
    }
}

/// Regenerate Fig 2 on an explicit executor.
///
/// The stream is index-addressed, so every `(node, vdd)` point sees the
/// same chips (common random numbers) and the curves are smooth in `vdd`.
#[must_use]
pub fn run_with(samples: usize, seed: u64, exec: Executor) -> Fig2Result {
    let stream = CounterRng::new(seed, "fig2");
    let curves = TechNode::ALL
        .iter()
        .map(|&node| {
            let tech = TechModel::new(node);
            let chain = ChainMc::new(&tech, 50);
            let points = voltage_grid(node)
                .into_iter()
                .map(|vdd| {
                    let s: Summary = exec
                        .map_indexed(samples as u64, |i| {
                            chain.sample_ps(Volts(vdd), &mut stream.at(i))
                        })
                        .into_iter()
                        .collect();
                    (vdd, s.three_sigma_over_mu())
                })
                .collect();
            Fig2Curve { node, points }
        })
        .collect();
    Fig2Result { curves }
}

impl std::fmt::Display for Fig2Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig 2 — chain-of-50 delay variation (3sigma/mu) vs Vdd")?;
        let headers: Vec<String> = std::iter::once("Vdd (V)".to_owned())
            .chain(self.curves.iter().map(|c| c.node.to_string()))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = TextTable::new(&header_refs);
        // Use the widest grid (90nm) as the row axis.
        let grid: Vec<f64> = self.curves[0].points.iter().map(|&(v, _)| v).collect();
        for &vdd in &grid {
            let mut cells = vec![format!("{vdd:.2}")];
            for c in &self.curves {
                let cell = c
                    .points
                    .iter()
                    .find(|(v, _)| (v - vdd).abs() < 1e-9)
                    .map_or_else(|| "-".to_owned(), |&(_, s)| format!("{:.1}%", s * 100.0));
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

    #[test]
    fn curves_match_paper_shape() {
        let result = run_with(500, 3, Executor::default());
        assert_eq!(result.curves.len(), 4);
        // Monotone decreasing with voltage for every node.
        for c in &result.curves {
            for w in c.points.windows(2) {
                assert!(w[1].1 < w[0].1 + 0.01, "{:?}", c.node);
            }
        }
        // 22nm endpoints ~ 11% @0.8V, ~25% @0.5V.
        let v22_08 = result.value(TechNode::PtmHp22, 0.8).expect("swept");
        let v22_05 = result.value(TechNode::PtmHp22, 0.5).expect("swept");
        assert!((0.07..0.15).contains(&v22_08), "{v22_08}");
        assert!((0.18..0.33).contains(&v22_05), "{v22_05}");
        // Node ordering at 0.5 V: 90 < 32 < 45 < 22.
        let at05: Vec<f64> = TechNode::ALL
            .iter()
            .map(|&n| result.value(n, 0.5).expect("swept"))
            .collect();
        assert!(
            at05[0] < at05[2] && at05[2] < at05[1] && at05[1] < at05[3],
            "{at05:?}"
        );
    }

    #[test]
    fn display_includes_all_nodes() {
        let text = run_with(60, 4, Executor::default()).to_string();
        for node in TechNode::ALL {
            assert!(text.contains(&node.to_string()));
        }
    }
}
