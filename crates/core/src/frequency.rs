//! Frequency margining (paper §4.3, Appendix E, Table 4).
//!
//! Instead of adding spares or millivolts, the clock period can simply be
//! stretched to cover the variation tail. Table 4 compares the *designed*
//! clock period `Tclk` (the ideally-scaled nominal design: baseline
//! fo4chipd × FO4(V), the Monte-Carlo [`perf::target_delay_ns`]) with the
//! *variation-aware* period `Tva-clk` (the q99 chip delay at V). Their
//! ratio minus one is the throughput loss — the same quantity as Fig 4's
//! performance drop, here expressed in nanoseconds. The paper's
//! conclusion: at advanced nodes the required margin approaches 20 %, and
//! because the SIMD clock must stay an integer multiple of the memory
//! clock, frequency margining alone is unattractive.

use ntv_mc::CounterRng;
use ntv_units::Volts;

use crate::engine::DatapathEngine;
use crate::exec::Executor;
use crate::perf;
use crate::quantile::Evaluation;

/// One row of Table 4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyRow {
    /// Supply voltage.
    pub vdd: Volts,
    /// Designed clock period (ns): nominal-variation design scaled to `vdd`.
    pub t_clk_ns: f64,
    /// Variation-aware clock period (ns): q99 chip delay at `vdd`.
    pub t_va_clk_ns: f64,
    /// Throughput loss `t_va_clk / t_clk − 1`.
    pub perf_drop: f64,
}

/// Compute one Table 4 row.
#[must_use]
pub fn frequency_margining(
    engine: &DatapathEngine<'_>,
    vdd: Volts,
    samples: usize,
    seed: u64,
    exec: Executor,
) -> FrequencyRow {
    let t_clk_ns = perf::target_delay_ns(engine, Evaluation::MonteCarlo, vdd, samples, seed, exec);
    let stream = CounterRng::new(seed, "freq-margin");
    let t_va_clk_ns = engine
        .chip_delay_distribution(vdd, samples, &stream, exec)
        .q99_ns();
    FrequencyRow {
        vdd,
        t_clk_ns,
        t_va_clk_ns,
        perf_drop: t_va_clk_ns / t_clk_ns - 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DatapathConfig;
    use ntv_device::{TechModel, TechNode};

    const SAMPLES: usize = 2000;

    #[test]
    fn margin_grows_as_voltage_drops() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let r05 = frequency_margining(&engine, Volts(0.5), SAMPLES, 1, Executor::default());
        let r06 = frequency_margining(&engine, Volts(0.6), SAMPLES, 1, Executor::default());
        let r07 = frequency_margining(&engine, Volts(0.7), SAMPLES, 1, Executor::default());
        assert!(r05.perf_drop > r06.perf_drop && r06.perf_drop > r07.perf_drop);
        // Variation-aware clock is always the slower one.
        for r in [r05, r06, r07] {
            assert!(r.t_va_clk_ns > r.t_clk_ns);
        }
    }

    #[test]
    fn advanced_nodes_need_nearly_20_percent() {
        // Appendix E: "required delay margins reach almost 20%".
        let tech = TechModel::new(TechNode::PtmHp22);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let r = frequency_margining(&engine, Volts(0.5), SAMPLES, 2, Executor::default());
        assert!(r.perf_drop > 0.12 && r.perf_drop < 0.30, "{}", r.perf_drop);
    }

    #[test]
    fn period_scale_is_tens_of_ns_at_half_volt() {
        let tech = TechModel::new(TechNode::Gp90);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let r = frequency_margining(&engine, Volts(0.5), SAMPLES, 3, Executor::default());
        // ~50 FO4 x 441 ps = 22 ns design period.
        assert!(r.t_clk_ns > 18.0 && r.t_clk_ns < 28.0, "{}", r.t_clk_ns);
    }
}
