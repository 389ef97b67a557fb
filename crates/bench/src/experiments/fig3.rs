//! Fig 3: delay distributions (FO4 units) for a single critical path at
//! 1 V, a 1-wide SIMD lane at 1 V, and the 128-wide datapath at 1.0, 0.6,
//! 0.55 and 0.5 V — 90 nm GP, 10 000 samples per curve.

use ntv_core::{ChipDelayDistribution, DatapathConfig, DatapathEngine, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_mc::CounterRng;
use ntv_units::Volts;
use serde::{Deserialize, Serialize};

use crate::table::TextTable;

/// One curve of Fig 3.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Curve {
    /// Curve label as in the paper's legend.
    pub label: String,
    /// The sampled distribution (FO4 units).
    pub distribution: ChipDelayDistribution,
}

/// Full Fig 3 result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Curves in the paper's legend order.
    pub curves: Vec<Fig3Curve>,
}

/// Regenerate Fig 3 on an explicit executor.
///
/// Each curve owns a labelled counter stream; the four 128-wide curves
/// share one stream so the same chips are re-evaluated at every voltage
/// (common random numbers).
#[must_use]
pub fn run_with(samples: usize, seed: u64, exec: Executor) -> Fig3Result {
    let tech = TechModel::new(TechNode::Gp90);
    let full = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let one_lane = DatapathEngine::new(&tech, DatapathConfig::new(1, 100, 50));
    let base = CounterRng::new(seed, "fig3");

    let mut curves = Vec::new();
    curves.push(Fig3Curve {
        label: "critical path @1V".to_owned(),
        distribution: full.path_delay_distribution(Volts(1.0), samples, &base.stream("path"), exec),
    });
    curves.push(Fig3Curve {
        label: "1-wide @1V".to_owned(),
        distribution: one_lane.chip_delay_distribution(
            Volts(1.0),
            samples,
            &base.stream("1wide"),
            exec,
        ),
    });
    let wide = base.stream("128wide");
    for vdd in [1.0, 0.6, 0.55, 0.5] {
        curves.push(Fig3Curve {
            label: format!("128-wide @{vdd:.2}V"),
            distribution: full.chip_delay_distribution(Volts(vdd), samples, &wide, exec),
        });
    }
    Fig3Result { curves }
}

impl std::fmt::Display for Fig3Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig 3 — delay distributions in FO4 units, 90nm GP")?;
        let mut t = TextTable::new(&["curve", "median", "q99", "min", "max"]);
        for c in &self.curves {
            let q = &c.distribution.fo4_quantiles;
            t.row(&[
                c.label.clone(),
                format!("{:.2}", q.median()),
                format!("{:.2}", q.q99()),
                format!("{:.2}", q.min()),
                format!("{:.2}", q.max()),
            ]);
        }
        writeln!(f, "{t}")?;
        for c in &self.curves {
            writeln!(f, "{} (FO4 units):", c.label)?;
            writeln!(f, "{}", c.distribution.histogram(30).render_ascii(40))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_order_as_in_paper() {
        let r = run_with(1500, 5, Executor::default());
        assert_eq!(r.curves.len(), 6);
        let median = |i: usize| r.curves[i].distribution.fo4_quantiles.median();
        // Path@1V < 1-wide@1V < 128-wide@1V (max statistics shift right).
        assert!(median(0) < median(1));
        assert!(median(1) < median(2));
        // 128-wide curves drift right as voltage drops.
        assert!(median(2) < median(3)); // 1.0V < 0.6V
        assert!(median(3) < median(4)); // 0.6V < 0.55V
        assert!(median(4) < median(5)); // 0.55V < 0.5V
                                        // The critical path centres near 50 FO4.
        assert!((median(0) - 50.0).abs() < 1.5);
    }

    #[test]
    fn display_lists_every_curve() {
        let text = run_with(300, 6, Executor::default()).to_string();
        assert!(text.contains("critical path @1V"));
        assert!(text.contains("128-wide @0.50V"));
    }
}
