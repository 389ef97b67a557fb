//! Performance drop at near-threshold voltages (Fig 4).
//!
//! The paper's definition (§3.2): with `fo4chipd` the 99 % point of the
//! FO4-normalized chip-delay distribution,
//!
//! ```text
//! drop(V) = (fo4chipd@V − fo4chipd@FV) / fo4chipd@FV
//! ```
//!
//! where FV is the node's nominal voltage. Because both operands are in FO4
//! units, the raw slowdown of low-voltage operation divides out and only
//! the *variation-induced* degradation remains.

use ntv_mc::CounterRng;
use ntv_units::Volts;
use serde::{Deserialize, Serialize};

use crate::engine::DatapathEngine;
use crate::exec::Executor;
use crate::quantile::{ChipQuantileSolver, Evaluation};

/// One point of the Fig 4 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PerfDropPoint {
    /// Supply voltage.
    pub vdd: Volts,
    /// fo4chipd: 99 % chip delay in FO4 units at `vdd`.
    pub q99_fo4: f64,
    /// Variation-induced performance drop vs nominal (fraction).
    pub drop: f64,
}

/// The nominal-voltage baseline fo4chipd for `engine`.
#[must_use]
pub fn baseline_q99_fo4(
    engine: &DatapathEngine<'_>,
    samples: usize,
    seed: u64,
    exec: Executor,
) -> f64 {
    let stream = CounterRng::new(seed, "perf-baseline");
    engine
        .chip_delay_distribution(engine.tech().nominal_vdd(), samples, &stream, exec)
        .q99_fo4()
}

/// Analytic nominal-voltage baseline fo4chipd: the exact q99 from
/// [`ChipQuantileSolver`], noise-free and sample-count-independent. The
/// Monte-Carlo [`baseline_q99_fo4`] converges to this value.
#[must_use]
pub fn baseline_q99_fo4_analytic(engine: &DatapathEngine<'_>) -> f64 {
    ChipQuantileSolver::new(engine).q99_fo4(engine.tech().nominal_vdd())
}

/// The nominal-voltage baseline fo4chipd under `evaluation`:
/// [`baseline_q99_fo4`] or [`baseline_q99_fo4_analytic`] (which ignores
/// `samples`, `seed` and `exec`).
pub(crate) fn baseline_q99_fo4_with(
    engine: &DatapathEngine<'_>,
    evaluation: Evaluation,
    samples: usize,
    seed: u64,
    exec: Executor,
) -> f64 {
    match evaluation {
        Evaluation::MonteCarlo => baseline_q99_fo4(engine, samples, seed, exec),
        Evaluation::Analytic => baseline_q99_fo4_analytic(engine),
    }
}

/// The target chip delay (ns) of NTV operation at `vdd` (paper §4.2):
/// `fo4chipd@FV × FO4(vdd)`, the delay the chip would reach at `vdd` if
/// its variation were no worse than at nominal. The margin, DSE and
/// Table 4 studies all measure against it.
#[must_use]
pub fn target_delay_ns(
    engine: &DatapathEngine<'_>,
    evaluation: Evaluation,
    vdd: Volts,
    samples: usize,
    seed: u64,
    exec: Executor,
) -> f64 {
    baseline_q99_fo4_with(engine, evaluation, samples, seed, exec) * engine.tech().fo4_delay_ps(vdd)
        / 1000.0
}

/// Performance drop at a single voltage: the one-voltage
/// [`performance_drop_sweep`].
///
/// Common random numbers by construction: chip `i` of the NTV run is
/// addressed as `(seed, "perf-ntv", i)` regardless of voltage or thread
/// count, so repeated calls are bit-reproducible.
#[must_use]
pub fn performance_drop(
    engine: &DatapathEngine<'_>,
    vdd: Volts,
    samples: usize,
    seed: u64,
    exec: Executor,
) -> PerfDropPoint {
    performance_drop_sweep(engine, &[vdd], samples, seed, exec)[0]
}

/// Performance-drop sweep over several voltages (one Fig 4 curve).
///
/// The baseline is computed once; every voltage reuses the same
/// index-addressed chip draws (common random numbers), making the curve
/// smooth in `vdd`.
#[must_use]
pub fn performance_drop_sweep(
    engine: &DatapathEngine<'_>,
    voltages: &[Volts],
    samples: usize,
    seed: u64,
    exec: Executor,
) -> Vec<PerfDropPoint> {
    let base = baseline_q99_fo4(engine, samples, seed, exec);
    let stream = CounterRng::new(seed, "perf-ntv");
    voltages
        .iter()
        .map(|&vdd| {
            let q99 = engine
                .chip_delay_distribution(vdd, samples, &stream, exec)
                .q99_fo4();
            PerfDropPoint {
                vdd,
                q99_fo4: q99,
                drop: q99 / base - 1.0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatapathConfig;
    use ntv_device::{TechModel, TechNode};

    const SAMPLES: usize = 3000;

    #[test]
    fn drop_matches_fig4_90nm() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let exec = Executor::default();
        // Paper: 5% @0.5V, 2.5% @0.55V, 1.5% @0.6V.
        let d05 = performance_drop(&engine, Volts(0.50), SAMPLES, 1, exec).drop;
        let d055 = performance_drop(&engine, Volts(0.55), SAMPLES, 1, exec).drop;
        let d06 = performance_drop(&engine, Volts(0.60), SAMPLES, 1, exec).drop;
        assert!((0.03..0.08).contains(&d05), "0.50V: {d05}");
        assert!((0.015..0.045).contains(&d055), "0.55V: {d055}");
        assert!((0.008..0.03).contains(&d06), "0.60V: {d06}");
        assert!(d05 > d055 && d055 > d06);
    }

    #[test]
    fn drop_matches_fig4_22nm() {
        let tech = TechModel::new(TechNode::PtmHp22);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let d05 = performance_drop(&engine, Volts(0.50), SAMPLES, 2, Executor::default()).drop;
        // Paper: climbs to ~18-20% at 0.5 V.
        assert!((0.12..0.28).contains(&d05), "22nm 0.5V: {d05}");
    }

    #[test]
    fn drop_at_nominal_is_zero() {
        let tech = TechModel::new(TechNode::Gp45);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let d = performance_drop(&engine, Volts(1.0), SAMPLES, 3, Executor::default()).drop;
        // Same voltage, different random streams: only MC noise remains.
        assert!(d.abs() < 0.01, "drop at nominal: {d}");
    }

    #[test]
    fn sweep_is_monotone_decreasing_in_v() {
        let tech = TechModel::new(TechNode::PtmHp32);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let pts = performance_drop_sweep(
            &engine,
            &[Volts(0.5), Volts(0.55), Volts(0.6), Volts(0.65), Volts(0.7)],
            SAMPLES,
            4,
            Executor::default(),
        );
        for w in pts.windows(2) {
            assert!(w[0].drop > w[1].drop, "{:?}", pts);
        }
    }

    #[test]
    fn scaled_nodes_drop_more() {
        let samples = 2000;
        let drops: Vec<f64> = TechNode::ALL
            .iter()
            .map(|&n| {
                let tech = TechModel::new(n);
                let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
                performance_drop(&engine, Volts(0.5), samples, 5, Executor::default()).drop
            })
            .collect();
        // 90nm smallest, 22nm largest (Fig 4).
        assert!(
            drops[0] < drops[1] && drops[0] < drops[2] && drops[3] > drops[2],
            "{drops:?}"
        );
    }

    #[test]
    fn analytic_baseline_agrees_with_mc() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let mc = baseline_q99_fo4(&engine, 20_000, 7, Executor::default());
        let an = baseline_q99_fo4_analytic(&engine);
        assert!((mc / an - 1.0).abs() < 0.01, "mc {mc} analytic {an}");
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let serial = performance_drop(&engine, Volts(0.55), 1000, 6, Executor::serial());
        let par = performance_drop(&engine, Volts(0.55), 1000, 6, Executor::new(8));
        assert_eq!(serial.q99_fo4.to_bits(), par.q99_fo4.to_bits());
        assert_eq!(serial.drop.to_bits(), par.drop.to_bits());
    }
}
