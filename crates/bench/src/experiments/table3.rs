//! Table 3: combined duplication + voltage-margin design choices for a
//! 128-wide system at 600 mV in 45 nm, and the minimum-power combination.
//!
//! Solved on the analytic quantile path (exact order statistics, no MC
//! noise); `samples`/`seed` are accepted for interface uniformity but do
//! not affect the result.

use ntv_core::dse::{DesignChoice, DseStudy};
use ntv_core::{DatapathConfig, DatapathEngine, Evaluation, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_units::Volts;
use serde::{Deserialize, Serialize};

use crate::table::TextTable;

/// Spare-count candidates (the paper prints 26, 8, 2, 1, 0).
pub const SPARE_CANDIDATES: [u32; 7] = [0, 1, 2, 4, 8, 16, 26];

/// Full Table 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Result {
    /// Operating voltage (0.6 V).
    pub vdd: f64,
    /// Explored design choices, ascending spare count.
    pub choices: Vec<DesignChoice>,
    /// The cheapest choice.
    pub best: DesignChoice,
}

/// Regenerate Table 3 on an explicit executor.
#[must_use]
pub fn run_with(samples: usize, seed: u64, exec: Executor) -> Table3Result {
    let vdd = 0.60;
    let tech = TechModel::new(TechNode::Gp45);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let dse = DseStudy::new(&engine)
        .with_executor(exec)
        .with_evaluation(Evaluation::Analytic);
    let choices = dse.explore(Volts(vdd), &SPARE_CANDIDATES, samples, seed);
    let best = DseStudy::best(&choices);
    Table3Result { vdd, choices, best }
}

impl std::fmt::Display for Table3Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Table 3 — design choices for 128-wide @{:.0} mV, 45nm GP",
            self.vdd * 1000.0
        )?;
        writeln!(
            f,
            "(paper: 26+0mV=4.3%, 8+5mV=2.0%, 2+10mV=1.7% best, 1+15mV=2.3%, 0+17mV=2.4%)"
        )?;
        let mut t = TextTable::new(&["spares", "margin", "power ovhd", "best"]);
        for c in &self.choices {
            t.row(&[
                c.spares.to_string(),
                format!("{:.1} mV", c.margin.get() * 1000.0),
                format!("{:.2}%", c.power_overhead * 100.0),
                if c.spares == self.best.spares {
                    "<-"
                } else {
                    ""
                }
                .to_owned(),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combination_wins_as_in_paper() {
        let r = run_with(2000, 27, Executor::default());
        // The optimum is an interior combination: some spares plus a small
        // residual margin beats both extremes.
        assert!(r.best.spares > 0 && r.best.spares < 26, "{:?}", r.best);
        assert!(r.best.margin > Volts::ZERO);
        let margin_only = &r.choices[0];
        let dup_heavy = r.choices.last().expect("non-empty");
        assert!(r.best.power_overhead < margin_only.power_overhead);
        assert!(r.best.power_overhead < dup_heavy.power_overhead);
        // Scale check vs the paper's 1.7% / 2.4% / 4.3% row values.
        assert!(
            r.best.power_overhead > 0.005 && r.best.power_overhead < 0.035,
            "{:?}",
            r.best
        );
        assert!(margin_only.power_overhead > 0.01 && margin_only.power_overhead < 0.05);
    }

    #[test]
    fn margins_fall_as_spares_rise() {
        let r = run_with(1500, 28, Executor::default());
        for w in r.choices.windows(2) {
            assert!(w[1].margin <= w[0].margin + Volts(2e-4), "{:?}", r.choices);
        }
    }

    #[test]
    fn display_flags_the_best_choice() {
        let text = run_with(800, 29, Executor::default()).to_string();
        assert!(text.contains("<-"));
        assert!(text.contains("design choices"));
    }
}
