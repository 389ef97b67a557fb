//! Fig 6: delay distributions of the 128-wide datapath at 600–620 mV, and
//! of duplicated systems at 600 mV, against the target delay — 45 nm GP.
//!
//! This is the figure that motivates combining the two techniques: moving
//! up the voltage ladder or along the spare axis both walk the 99 % point
//! toward the target.

use ntv_core::duplication::DuplicationStudy;
use ntv_core::perf;
use ntv_core::{ChipDelayDistribution, DatapathConfig, DatapathEngine, Evaluation, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_mc::CounterRng;
use ntv_units::Volts;

use crate::table::TextTable;

/// A labelled distribution of Fig 6.
#[derive(Debug, Clone)]
pub struct Fig6Curve {
    /// Legend label.
    pub label: String,
    /// 99 % chip delay in nanoseconds.
    pub q99_ns: f64,
    /// The distribution itself (FO4 units at its own voltage).
    pub distribution: ChipDelayDistribution,
}

/// Full Fig 6 result.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Base NTV voltage (0.6 V).
    pub vdd: f64,
    /// Target delay (ns) per §4.2's normalization.
    pub target_ns: f64,
    /// Voltage-margin curves (600–620 mV).
    pub voltage_curves: Vec<Fig6Curve>,
    /// Duplication curves at 600 mV.
    pub spare_curves: Vec<Fig6Curve>,
}

/// Regenerate Fig 6 on an explicit executor.
///
/// All five voltage-margin curves share one index-addressed stream, so
/// they walk the *same* chips up the voltage ladder (common random
/// numbers) — exactly the paper's framing of margining.
#[must_use]
pub fn run_with(samples: usize, seed: u64, exec: Executor) -> Fig6Result {
    let vdd = 0.60;
    let tech = TechModel::new(TechNode::Gp45);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let target_ns = perf::target_delay_ns(
        &engine,
        Evaluation::MonteCarlo,
        Volts(vdd),
        samples,
        seed,
        exec,
    );

    let stream = CounterRng::new(seed, "fig6-v");
    let mut voltage_curves = Vec::new();
    for step in 0..5 {
        let v = vdd + f64::from(step) * 0.005;
        let distribution = engine.chip_delay_distribution(Volts(v), samples, &stream, exec);
        voltage_curves.push(Fig6Curve {
            label: format!("128-wide @{:.0} mV", v * 1000.0),
            q99_ns: distribution.q99_ns(),
            distribution,
        });
    }

    let dup_study = DuplicationStudy::new(&engine).with_executor(exec);
    let matrix = dup_study.sample_matrix(Volts(vdd), 32, samples, seed);
    let spare_curves = [0u32, 4, 8, 16, 32]
        .iter()
        .map(|&spares| {
            let distribution = matrix.chip_delay_with_spares(spares);
            Fig6Curve {
                label: format!("128+{spares}-spare @600 mV"),
                q99_ns: distribution.q99_ns(),
                distribution,
            }
        })
        .collect();

    Fig6Result {
        vdd,
        target_ns,
        voltage_curves,
        spare_curves,
    }
}

impl std::fmt::Display for Fig6Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig 6 — 45nm GP, 128-wide @600 mV; target delay = {:.3} ns",
            self.target_ns
        )?;
        let mut t = TextTable::new(&["curve", "q99 (ns)", "meets target"]);
        for c in self.voltage_curves.iter().chain(&self.spare_curves) {
            t.row(&[
                c.label.clone(),
                format!("{:.3}", c.q99_ns),
                if c.q99_ns <= self.target_ns {
                    "yes"
                } else {
                    "no"
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
    fn walking_either_axis_approaches_target() {
        let r = run_with(2500, 11, Executor::default());
        // Monotone decreasing q99 along both axes.
        for w in r.voltage_curves.windows(2) {
            assert!(w[1].q99_ns < w[0].q99_ns);
        }
        for w in r.spare_curves.windows(2) {
            assert!(w[1].q99_ns <= w[0].q99_ns + 1e-9);
        }
        // The unmitigated system misses the target; the top of the voltage
        // ladder meets it (paper: 615 mV suffices).
        assert!(r.voltage_curves[0].q99_ns > r.target_ns);
        assert!(r.voltage_curves.last().expect("curves").q99_ns <= r.target_ns);
    }

    #[test]
    fn display_shows_target() {
        let text = run_with(400, 12, Executor::default()).to_string();
        assert!(text.contains("target delay"));
        assert!(text.contains("615 mV"));
    }
}
