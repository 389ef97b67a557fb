//! Technique comparison: duplication vs voltage margining (Fig 7).
//!
//! Both techniques reach the same target (nominal-level variation at the
//! NTV operating point); the question is which costs less power. The paper
//! finds duplication wins in the high-NTV band (0.60–0.70 V) where very few
//! spares suffice, while margining wins as technology scales and voltage
//! drops — a small ΔV buys an exponential delay reduction, whereas the
//! spare count explodes.

use ntv_units::Volts;
use serde::{Deserialize, Serialize};

use crate::duplication::DuplicationStudy;
use crate::engine::DatapathEngine;
use crate::exec::Executor;
use crate::margining::MarginStudy;
use crate::quantile::Evaluation;

/// Which mitigation technique a comparison favours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Technique {
    /// Structural duplication (spare lanes).
    Duplication,
    /// Supply-voltage margining.
    VoltageMargining,
}

impl std::fmt::Display for Technique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Technique::Duplication => f.write_str("structural duplication"),
            Technique::VoltageMargining => f.write_str("voltage margining"),
        }
    }
}

/// One voltage point of a Fig 7 panel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComparisonPoint {
    /// Supply voltage.
    pub vdd: Volts,
    /// Spares required, if within budget (`None` ⇒ Table 1's ">128").
    pub spares: Option<u32>,
    /// Duplication power overhead, if solvable.
    pub duplication_power: Option<f64>,
    /// Required voltage margin.
    pub margin: Volts,
    /// Margining power overhead.
    pub margining_power: f64,
}

impl ComparisonPoint {
    /// The cheaper technique at this point (margining wins ties and
    /// unsolvable duplication).
    #[must_use]
    pub fn preferred(&self) -> Technique {
        match self.duplication_power {
            Some(dup) if dup < self.margining_power => Technique::Duplication,
            _ => Technique::VoltageMargining,
        }
    }
}

/// Compare both techniques at one operating point. With
/// [`Evaluation::Analytic`] the solves are exact and `samples`/`seed` are
/// ignored; [`Evaluation::MonteCarlo`] reproduces the historical outputs.
#[must_use]
pub fn compare_at(
    engine: &DatapathEngine<'_>,
    vdd: Volts,
    max_spares: u32,
    samples: usize,
    seed: u64,
    exec: Executor,
    evaluation: Evaluation,
) -> ComparisonPoint {
    let dup = DuplicationStudy::new(engine)
        .with_executor(exec)
        .with_evaluation(evaluation)
        .solve(vdd, max_spares, samples, seed);
    let margin = MarginStudy::new(engine)
        .with_executor(exec)
        .with_evaluation(evaluation)
        .solve(vdd, samples, seed);
    ComparisonPoint {
        vdd,
        spares: dup.as_ref().ok().map(|s| s.spares),
        duplication_power: dup.ok().map(|s| s.power_overhead),
        margin: margin.margin,
        margining_power: margin.power_overhead,
    }
}

/// One Fig 7 panel with an explicit [`Evaluation`]. The sweep's operating
/// points are prefetched in parallel first, so even the analytic path
/// never pays a Gauss–Hermite build inside its solve loops.
#[must_use]
pub fn compare_sweep_with(
    engine: &DatapathEngine<'_>,
    voltages: &[Volts],
    max_spares: u32,
    samples: usize,
    seed: u64,
    exec: Executor,
    evaluation: Evaluation,
) -> Vec<ComparisonPoint> {
    engine.prefetch(voltages, exec);
    voltages
        .iter()
        .map(|&v| compare_at(engine, v, max_spares, samples, seed, exec, evaluation))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatapathConfig;
    use ntv_device::{TechModel, TechNode};

    const SAMPLES: usize = 1500;

    #[test]
    fn duplication_wins_high_ntv_at_90nm() {
        // Fig 7(a): in 90 nm at 0.60-0.70 V one or two spares are cheaper
        // than any voltage margin.
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let p = compare_at(
            &engine,
            Volts(0.65),
            128,
            SAMPLES,
            1,
            Executor::default(),
            Evaluation::MonteCarlo,
        );
        assert_eq!(p.preferred(), Technique::Duplication, "{p:?}");
    }

    #[test]
    fn margining_wins_at_scaled_nodes_low_voltage() {
        // Fig 7(b)/§4.4: in 45 nm at 0.5-0.6 V margining is cheaper.
        let tech = TechModel::new(TechNode::Gp45);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let p = compare_at(
            &engine,
            Volts(0.55),
            128,
            SAMPLES,
            2,
            Executor::default(),
            Evaluation::MonteCarlo,
        );
        assert_eq!(p.preferred(), Technique::VoltageMargining, "{p:?}");
    }

    #[test]
    fn unsolvable_duplication_defers_to_margining() {
        let tech = TechModel::new(TechNode::PtmHp22);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let p = compare_at(
            &engine,
            Volts(0.50),
            128,
            1000,
            3,
            Executor::default(),
            Evaluation::MonteCarlo,
        );
        assert!(p.duplication_power.is_none(), "{p:?}");
        assert_eq!(p.preferred(), Technique::VoltageMargining);
    }

    #[test]
    fn sweep_produces_one_point_per_voltage() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let pts = compare_sweep_with(
            &engine,
            &[Volts(0.6), Volts(0.65), Volts(0.7)],
            64,
            800,
            4,
            Executor::default(),
            Evaluation::MonteCarlo,
        );
        assert_eq!(pts.len(), 3);
        for (p, v) in pts.iter().zip([Volts(0.6), Volts(0.65), Volts(0.7)]) {
            assert_eq!(p.vdd, v);
        }
    }

    #[test]
    fn analytic_comparison_reaches_same_verdicts() {
        let tech90 = TechModel::new(TechNode::Gp90);
        let engine90 = DatapathEngine::new(&tech90, DatapathConfig::paper_default());
        let hi = compare_at(
            &engine90,
            Volts(0.65),
            128,
            0,
            0,
            Executor::default(),
            Evaluation::Analytic,
        );
        assert_eq!(hi.preferred(), Technique::Duplication, "{hi:?}");
        let tech45 = TechModel::new(TechNode::Gp45);
        let engine45 = DatapathEngine::new(&tech45, DatapathConfig::paper_default());
        let lo = compare_sweep_with(
            &engine45,
            &[Volts(0.55)],
            128,
            0,
            0,
            Executor::default(),
            Evaluation::Analytic,
        );
        assert_eq!(lo[0].preferred(), Technique::VoltageMargining, "{lo:?}");
    }

    #[test]
    fn display_names() {
        assert_eq!(Technique::Duplication.to_string(), "structural duplication");
        assert_eq!(Technique::VoltageMargining.to_string(), "voltage margining");
    }
}
