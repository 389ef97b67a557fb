//! Fig 5: delay distributions of SIMD duplicated systems
//! (128-wide + α spares) at 0.55 V in 90 nm GP, against the 128-wide @1 V
//! baseline whose 99 % point the duplication must match.

use ntv_core::duplication::DuplicationStudy;
use ntv_core::{ChipDelayDistribution, DatapathConfig, DatapathEngine, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_mc::CounterRng;
use ntv_units::Volts;

use crate::table::TextTable;

/// One duplicated-system curve.
#[derive(Debug, Clone)]
pub struct Fig5Curve {
    /// Number of spare lanes.
    pub spares: u32,
    /// Chip-delay distribution (FO4 units) of 128 used lanes out of
    /// `128 + spares`.
    pub distribution: ChipDelayDistribution,
}

/// Full Fig 5 result.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// NTV operating voltage.
    pub vdd: f64,
    /// Baseline 99 % point: 128-wide at nominal voltage (FO4 units).
    pub baseline_q99_fo4: f64,
    /// Curves for increasing spare counts.
    pub curves: Vec<Fig5Curve>,
    /// The spare count whose 99 % point first meets the baseline.
    pub matching_spares: Option<u32>,
}

/// Regenerate Fig 5 on an explicit executor.
#[must_use]
pub fn run_with(samples: usize, seed: u64, exec: Executor) -> Fig5Result {
    let vdd = 0.55;
    let tech = TechModel::new(TechNode::Gp90);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let study = DuplicationStudy::new(&engine).with_executor(exec);

    let stream = CounterRng::new(seed, "fig5-baseline");
    let baseline = engine
        .chip_delay_distribution(tech.nominal_vdd(), samples, &stream, exec)
        .q99_fo4();

    let matrix = study.sample_matrix(Volts(vdd), 32, samples, seed);
    let spare_counts = [0u32, 2, 4, 6, 10, 16, 32];
    let curves: Vec<Fig5Curve> = spare_counts
        .iter()
        .map(|&spares| Fig5Curve {
            spares,
            distribution: matrix.chip_delay_with_spares(spares),
        })
        .collect();
    let matching_spares = study.required_spares(&matrix, baseline).ok();

    Fig5Result {
        vdd,
        baseline_q99_fo4: baseline,
        curves,
        matching_spares,
    }
}

impl std::fmt::Display for Fig5Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 5 — duplicated systems (128-wide + alpha spares) @{:.2} V, 90nm GP",
            self.vdd
        )?;
        writeln!(
            f,
            "baseline (128-wide @1V) q99 = {:.2} FO4; matching spares = {} (paper: 6)",
            self.baseline_q99_fo4,
            self.matching_spares
                .map_or_else(|| ">32".to_owned(), |s| s.to_string())
        )?;
        let mut t = TextTable::new(&["spares", "median", "q99", "q99 - baseline"]);
        for c in &self.curves {
            let q = &c.distribution.fo4_quantiles;
            t.row(&[
                c.spares.to_string(),
                format!("{:.2}", q.median()),
                format!("{:.2}", q.q99()),
                format!("{:+.2}", q.q99() - self.baseline_q99_fo4),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spares_shift_left_and_match_baseline() {
        let r = run_with(3000, 9, Executor::default());
        // q99 monotone decreasing with spares.
        for w in r.curves.windows(2) {
            assert!(w[1].distribution.q99_fo4() <= w[0].distribution.q99_fo4() + 1e-9);
        }
        // Paper needs 6 spares; accept 3..=14.
        let m = r.matching_spares.expect("matchable at 0.55 V");
        assert!((3..=14).contains(&m), "matching spares {m}");
        // The spread also tightens (Fig 5's visual).
        let spread = |c: &Fig5Curve| {
            let q = &c.distribution.fo4_quantiles;
            q.quantile(0.99) - q.quantile(0.01)
        };
        assert!(spread(r.curves.last().expect("curves")) < spread(&r.curves[0]));
    }

    #[test]
    fn display_mentions_baseline() {
        let text = run_with(500, 10, Executor::default()).to_string();
        assert!(text.contains("baseline"));
        assert!(text.contains("spares"));
    }
}
