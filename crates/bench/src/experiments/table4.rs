//! Table 4 (Appendix E): frequency margining — designed vs
//! variation-aware clock period and the resulting throughput loss, for the
//! four nodes at 0.50–0.70 V.

use ntv_core::frequency::{frequency_margining, FrequencyRow};
use ntv_core::{DatapathConfig, DatapathEngine, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_units::Volts;

use crate::experiments::TABLE_VOLTAGES;
use crate::table::TextTable;

/// One Table 4 cell.
#[derive(Debug, Clone, Copy)]
pub struct Table4Cell {
    /// Technology node.
    pub node: TechNode,
    /// The frequency-margining row.
    pub row: FrequencyRow,
}

/// Full Table 4.
#[derive(Debug, Clone)]
pub struct Table4Result {
    /// Cells in node-major order.
    pub cells: Vec<Table4Cell>,
}

#[cfg(test)]
impl Table4Result {
    /// The cell for a node/voltage, if computed.
    fn cell(&self, node: TechNode, vdd: f64) -> Option<&Table4Cell> {
        self.cells
            .iter()
            .find(|c| c.node == node && (c.row.vdd.get() - vdd).abs() < 1e-9)
    }
}

/// Regenerate Table 4 on an explicit executor.
#[must_use]
pub fn run_with(samples: usize, seed: u64, exec: Executor) -> Table4Result {
    let mut cells = Vec::new();
    for &node in &TechNode::ALL {
        let tech = TechModel::new(node);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        for &vdd in &TABLE_VOLTAGES {
            cells.push(Table4Cell {
                node,
                row: frequency_margining(&engine, Volts(vdd), samples, seed, exec),
            });
        }
    }
    Table4Result { cells }
}

impl std::fmt::Display for Table4Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 4 — frequency margining (variation-aware clock period)"
        )?;
        let mut t = TextTable::new(&["node", "Vdd (V)", "Tclk (ns)", "Tva-clk (ns)", "perf drop"]);
        for c in &self.cells {
            t.row(&[
                c.node.to_string(),
                format!("{:.2}", c.row.vdd.get()),
                format!("{:.2}", c.row.t_clk_ns),
                format!("{:.2}", c.row.t_va_clk_ns),
                format!("{:.1}%", c.row.perf_drop * 100.0),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variation_aware_clock_is_slower() {
        let r = run_with(2500, 30, Executor::default());
        for c in &r.cells {
            assert!(c.row.t_va_clk_ns > c.row.t_clk_ns, "{c:?}");
            assert!(c.row.perf_drop > 0.0);
        }
    }

    #[test]
    fn advanced_nodes_approach_twenty_percent() {
        // Appendix E: "required delay margins reach almost 20%", making
        // frequency margining unattractive at scaled nodes.
        let r = run_with(2500, 31, Executor::default());
        let d22 = r.cell(TechNode::PtmHp22, 0.5).expect("cell").row.perf_drop;
        assert!((0.12..0.30).contains(&d22), "{d22}");
        let d90 = r.cell(TechNode::Gp90, 0.5).expect("cell").row.perf_drop;
        assert!(d90 < 0.10, "{d90}");
    }

    #[test]
    fn clock_periods_scale_with_voltage_and_node() {
        let r = run_with(1500, 32, Executor::default());
        // Within a node, lower voltage -> longer clock.
        for node in TechNode::ALL {
            let t05 = r.cell(node, 0.5).expect("cell").row.t_clk_ns;
            let t07 = r.cell(node, 0.7).expect("cell").row.t_clk_ns;
            assert!(t05 > 2.0 * t07, "{node}: {t05} vs {t07}");
        }
        // At a fixed voltage, newer nodes are faster.
        let t90 = r.cell(TechNode::Gp90, 0.6).expect("cell").row.t_clk_ns;
        let t22 = r.cell(TechNode::PtmHp22, 0.6).expect("cell").row.t_clk_ns;
        assert!(t22 < t90);
    }
}
