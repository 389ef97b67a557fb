//! Table 1: required spare count and area/power overhead of structural
//! duplication for the four nodes at 0.50–0.70 V.
//!
//! Solved on the analytic quantile path (exact order statistics, no MC
//! noise); `samples`/`seed` are accepted for interface uniformity but do
//! not affect the result.

use ntv_core::duplication::DuplicationStudy;
use ntv_core::{DatapathConfig, DatapathEngine, Evaluation, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_units::Volts;

use crate::experiments::TABLE_VOLTAGES;
use crate::table::TextTable;

/// One Table 1 cell.
#[derive(Debug, Clone, Copy)]
pub struct Table1Cell {
    /// Technology node.
    pub node: TechNode,
    /// Supply voltage (V).
    pub vdd: f64,
    /// Required spares, if ≤128 (`None` reproduces the paper's ">128").
    pub spares: Option<u32>,
    /// Area overhead (fraction), if solvable.
    pub area_overhead: Option<f64>,
    /// Power overhead (fraction), if solvable.
    pub power_overhead: Option<f64>,
}

/// Full Table 1.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Cells in node-major, descending-voltage order.
    pub cells: Vec<Table1Cell>,
}

impl Table1Result {
    /// The cell for a node/voltage, if computed.
    #[must_use]
    // ntv:allow(test-only-api): table1's unit tests and tests/paper_reproduction.rs::duplication_works_at_90nm_but_not_scaled_nodes_at_half_volt look cells up through it
    pub fn cell(&self, node: TechNode, vdd: f64) -> Option<&Table1Cell> {
        self.cells
            .iter()
            .find(|c| c.node == node && (c.vdd - vdd).abs() < 1e-9)
    }
}

/// Regenerate Table 1 on an explicit executor.
#[must_use]
pub fn run_with(samples: usize, seed: u64, exec: Executor) -> Table1Result {
    let mut cells = Vec::new();
    for &node in &TechNode::ALL {
        let tech = TechModel::new(node);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = DuplicationStudy::new(&engine)
            .with_executor(exec)
            .with_evaluation(Evaluation::Analytic);
        for &vdd in &TABLE_VOLTAGES {
            let cell = match study.solve(Volts(vdd), 128, samples, seed) {
                Ok(sol) => Table1Cell {
                    node,
                    vdd,
                    spares: Some(sol.spares),
                    area_overhead: Some(sol.area_overhead),
                    power_overhead: Some(sol.power_overhead),
                },
                Err(_) => Table1Cell {
                    node,
                    vdd,
                    spares: None,
                    area_overhead: None,
                    power_overhead: None,
                },
            };
            cells.push(cell);
        }
    }
    Table1Result { cells }
}

impl std::fmt::Display for Table1Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 1 — spares and overheads of structural duplication"
        )?;
        let mut t = TextTable::new(&["node", "Vdd (V)", "spares", "area ovhd", "power ovhd"]);
        for c in &self.cells {
            t.row(&[
                c.node.to_string(),
                format!("{:.2}", c.vdd),
                c.spares
                    .map_or_else(|| ">128".to_owned(), |s| s.to_string()),
                c.area_overhead
                    .map_or_else(|| ">57.8%".to_owned(), |a| format!("{:.1}%", a * 100.0)),
                c.power_overhead
                    .map_or_else(|| ">25.0%".to_owned(), |p| format!("{:.1}%", p * 100.0)),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntv_device::calib;

    #[test]
    fn reproduces_90nm_column() {
        let r = run_with(4000, 19, Executor::default());
        for (vdd, paper_spares) in calib::TABLE1_SPARES_90NM {
            let cell = r.cell(TechNode::Gp90, vdd).expect("cell computed");
            let got = cell.spares.expect("90nm is always solvable");
            // Shape tolerance: within ~2.5x of the paper's count, and the
            // strong low-voltage growth must hold.
            let lo = (f64::from(paper_spares) / 2.5).floor() as u32;
            let hi = (f64::from(paper_spares) * 2.5).ceil() as u32;
            assert!(
                (lo..=hi.max(2)).contains(&got),
                "90nm @{vdd} V: {got} spares vs paper {paper_spares}"
            );
        }
        let s05 = r
            .cell(TechNode::Gp90, 0.50)
            .and_then(|c| c.spares)
            .expect("solvable");
        let s07 = r
            .cell(TechNode::Gp90, 0.70)
            .and_then(|c| c.spares)
            .expect("solvable");
        assert!(
            s05 >= 10 * s07.max(1),
            "exponential spare growth: {s05} vs {s07}"
        );
    }

    #[test]
    fn scaled_nodes_exceed_budget_at_half_volt() {
        let r = run_with(2500, 20, Executor::default());
        for node in [TechNode::Gp45, TechNode::PtmHp32, TechNode::PtmHp22] {
            let cell = r.cell(node, 0.50).expect("cell computed");
            assert!(
                cell.spares.is_none(),
                "{node} @0.5 V should need >128 spares"
            );
        }
    }

    #[test]
    fn overheads_follow_budget() {
        let r = run_with(2000, 21, Executor::default());
        let cell = r.cell(TechNode::Gp90, 0.60).expect("computed");
        let (s, a, p) = (
            cell.spares.expect("solvable"),
            cell.area_overhead.expect("solvable"),
            cell.power_overhead.expect("solvable"),
        );
        let budget = ntv_core::DietSodaBudget::paper();
        assert!((a - budget.duplication_area_overhead(s)).abs() < 1e-12);
        assert!((p - budget.duplication_power_overhead(s)).abs() < 1e-12);
    }

    #[test]
    fn display_marks_unsolvable_cells() {
        let r = run_with(1000, 22, Executor::default());
        let text = r.to_string();
        assert!(text.contains(">128"));
        assert!(text.contains(">57.8%"));
    }
}
