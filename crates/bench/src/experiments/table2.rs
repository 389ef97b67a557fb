//! Table 2: required voltage margin and power overhead for the four nodes
//! at 0.50–0.70 V.
//!
//! Solved on the analytic quantile path (exact order statistics, no MC
//! noise); `samples`/`seed` are accepted for interface uniformity but do
//! not affect the result.

use ntv_core::margining::{MarginSolution, MarginStudy};
use ntv_core::{DatapathConfig, DatapathEngine, Evaluation, Executor};
use ntv_device::calib;
use ntv_device::{TechModel, TechNode};
use ntv_units::Volts;

use crate::experiments::TABLE_VOLTAGES;
use crate::table::TextTable;

/// One Table 2 cell.
#[derive(Debug, Clone, Copy)]
pub struct Table2Cell {
    /// Technology node.
    pub node: TechNode,
    /// The solved margin.
    pub solution: MarginSolution,
    /// The paper's margin in volts, for side-by-side reporting.
    pub paper_margin: f64,
}

/// Full Table 2.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Cells in node-major order.
    pub cells: Vec<Table2Cell>,
}

impl Table2Result {
    /// The cell for a node/voltage, if computed.
    #[must_use]
    // ntv:allow(test-only-api): table2's unit tests, tests/paper_reproduction.rs::margins_are_millivolt_scale_and_ordered and tests/determinism.rs::table2_margins_are_deterministic look cells up through it
    pub fn cell(&self, node: TechNode, vdd: f64) -> Option<&Table2Cell> {
        self.cells
            .iter()
            .find(|c| c.node == node && (c.solution.vdd.get() - vdd).abs() < 1e-9)
    }
}

/// Regenerate Table 2 on an explicit executor.
#[must_use]
pub fn run_with(samples: usize, seed: u64, exec: Executor) -> Table2Result {
    let mut cells = Vec::new();
    for &node in &TechNode::ALL {
        let tech = TechModel::new(node);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = MarginStudy::new(&engine)
            .with_executor(exec)
            .with_evaluation(Evaluation::Analytic);
        for (row, &vdd) in TABLE_VOLTAGES.iter().enumerate() {
            let solution = study.solve(Volts(vdd), samples, seed);
            let paper_margin = calib::TABLE2_MARGIN_MV[row].1[calib::node_index(node)] / 1000.0;
            cells.push(Table2Cell {
                node,
                solution,
                paper_margin,
            });
        }
    }
    Table2Result { cells }
}

impl std::fmt::Display for Table2Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 2 — required voltage margin (final supply = Vdd + margin)"
        )?;
        let mut t = TextTable::new(&[
            "node",
            "Vdd (V)",
            "margin (model)",
            "margin (paper)",
            "power ovhd",
        ]);
        for c in &self.cells {
            t.row(&[
                c.node.to_string(),
                format!("{:.2}", c.solution.vdd.get()),
                format!("{:.1} mV", c.solution.margin.get() * 1000.0),
                format!("{:.1} mV", c.paper_margin * 1000.0),
                format!("{:.1}%", c.solution.power_overhead * 100.0),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margins_match_paper_scale() {
        let r = run_with(3000, 23, Executor::default());
        for c in &r.cells {
            let got_mv = c.solution.margin.get() * 1000.0;
            let paper_mv = c.paper_margin * 1000.0;
            assert!(
                got_mv > 0.3 * paper_mv && got_mv < 2.5 * paper_mv,
                "{} @{:.2} V: {got_mv:.1} mV vs paper {paper_mv} mV",
                c.node,
                c.solution.vdd.get()
            );
        }
    }

    #[test]
    fn margins_shrink_with_voltage_within_a_node() {
        let r = run_with(2000, 24, Executor::default());
        for node in TechNode::ALL {
            let series: Vec<f64> = TABLE_VOLTAGES
                .iter()
                .map(|&v| r.cell(node, v).expect("cell").solution.margin.get())
                .collect();
            assert!(
                series[0] > series[4],
                "{node}: margin at 0.5 V should exceed 0.7 V ({series:?})"
            );
        }
    }

    #[test]
    fn node_ordering_matches_paper() {
        // Table 2 @0.5 V: 90nm smallest; 45nm above 32nm.
        let r = run_with(2500, 25, Executor::default());
        let m = |n: TechNode| r.cell(n, 0.5).expect("cell").solution.margin;
        assert!(m(TechNode::Gp90) < m(TechNode::PtmHp32));
        assert!(m(TechNode::PtmHp32) < m(TechNode::Gp45));
    }

    #[test]
    fn power_overheads_are_percent_scale() {
        let r = run_with(1500, 26, Executor::default());
        for c in &r.cells {
            assert!(
                c.solution.power_overhead > 0.0 && c.solution.power_overhead < 0.08,
                "{:?}",
                c
            );
        }
    }
}
