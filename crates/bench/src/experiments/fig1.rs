//! Fig 1: delay distributions of a single inverter and a chain of 50 FO4
//! inverters at 0.5–1.0 V, 90 nm GP, 1000 samples each.

use ntv_circuit::chain::ChainMc;
use ntv_core::Executor;
use ntv_device::calib;
use ntv_device::{TechModel, TechNode};
use ntv_mc::{CounterRng, Histogram, Summary};
use ntv_units::Volts;

use crate::table::TextTable;

/// One voltage point of Fig 1.
#[derive(Debug, Clone)]
pub struct Fig1Row {
    /// Supply voltage (V).
    pub vdd: f64,
    /// Measured single-inverter 3σ/μ.
    pub single_3s: f64,
    /// Paper's single-inverter 3σ/μ.
    pub single_paper: f64,
    /// Measured chain-of-50 3σ/μ.
    pub chain_3s: f64,
    /// Paper's chain-of-50 3σ/μ.
    pub chain_paper: f64,
    /// Mean chain delay (ns).
    pub chain_mean_ns: f64,
}

/// Full Fig 1 result.
#[derive(Debug, Clone)]
pub struct Fig1Result {
    /// Per-voltage rows, nominal voltage first (paper order).
    pub rows: Vec<Fig1Row>,
    /// Single-inverter delay histogram at 0.5 V (the widest case).
    pub single_hist_05v: Histogram,
    /// Chain-of-50 delay histogram at 0.5 V.
    pub chain_hist_05v: Histogram,
}

/// Regenerate Fig 1 on an explicit executor.
///
/// Chip `i` is addressed as `(seed, label, i)`, so every voltage row reuses
/// the same chips (common random numbers) and the result is bit-identical
/// for any thread count.
#[must_use]
pub fn run_with(samples: usize, seed: u64, exec: Executor) -> Fig1Result {
    let tech = TechModel::new(TechNode::Gp90);
    let single = ChainMc::new(&tech, 1);
    let chain = ChainMc::new(&tech, 50);
    let base = CounterRng::new(seed, "fig1");
    let single_stream = base.stream("single");
    let chain_stream = base.stream("chain");

    let mut rows = Vec::new();
    for (i, &(vdd, single_paper)) in calib::FIG1_SINGLE_INVERTER_90NM.iter().enumerate() {
        let chain_paper = calib::FIG1_CHAIN50_90NM[i].1;
        let s_single: Summary = exec
            .map_indexed(samples as u64, |j| {
                single.sample_ps(Volts(vdd), &mut single_stream.at(j))
            })
            .into_iter()
            .collect();
        let chain_samples = exec.map_indexed(samples as u64, |j| {
            chain.sample_ps(Volts(vdd), &mut chain_stream.at(j))
        });
        let s_chain: Summary = chain_samples.iter().copied().collect();
        rows.push(Fig1Row {
            vdd,
            single_3s: s_single.three_sigma_over_mu(),
            single_paper,
            chain_3s: s_chain.three_sigma_over_mu(),
            chain_paper,
            chain_mean_ns: s_chain.mean() / 1000.0,
        });
    }

    let hist = base.stream("hist");
    let (hist_single, hist_chain) = (hist.stream("single"), hist.stream("chain"));
    let single_05 = exec.map_indexed(samples as u64, |j| {
        single.sample_ps(Volts(0.5), &mut hist_single.at(j))
    });
    let chain_05 = exec.map_indexed(samples as u64, |j| {
        chain.sample_ps(Volts(0.5), &mut hist_chain.at(j))
    });

    Fig1Result {
        rows,
        single_hist_05v: Histogram::from_samples(&single_05, 40),
        chain_hist_05v: Histogram::from_samples(&chain_05, 40),
    }
}

impl std::fmt::Display for Fig1Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig 1 — delay variation (3sigma/mu), 90nm GP")?;
        let mut t = TextTable::new(&[
            "Vdd (V)",
            "inv model",
            "inv paper",
            "chain-50 model",
            "chain-50 paper",
            "chain mean (ns)",
        ]);
        for r in &self.rows {
            t.row(&[
                format!("{:.2}", r.vdd),
                format!("{:.2}%", r.single_3s * 100.0),
                format!("{:.2}%", r.single_paper * 100.0),
                format!("{:.2}%", r.chain_3s * 100.0),
                format!("{:.2}%", r.chain_paper * 100.0),
                format!("{:.2}", r.chain_mean_ns),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(f, "single-inverter delay histogram @0.5 V (ps):")?;
        writeln!(f, "{}", self.single_hist_05v.render_ascii(50))?;
        writeln!(f, "chain-of-50 delay histogram @0.5 V (ps):")?;
        writeln!(f, "{}", self.chain_hist_05v.render_ascii(50))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_within_tolerance() {
        let result = run_with(600, 1, Executor::default());
        assert_eq!(result.rows.len(), 6);
        for r in &result.rows {
            assert!(
                calib::relative_error(r.single_3s, r.single_paper) < 0.35,
                "single at {} V: {} vs {}",
                r.vdd,
                r.single_3s,
                r.single_paper
            );
            assert!(
                calib::relative_error(r.chain_3s, r.chain_paper) < 0.35,
                "chain at {} V: {} vs {}",
                r.vdd,
                r.chain_3s,
                r.chain_paper
            );
        }
        // Absolute chain delay at 0.5 V ~ 22 ns.
        let r05 = result
            .rows
            .iter()
            .find(|r| r.vdd == 0.5)
            .expect("0.5 V row");
        assert!((r05.chain_mean_ns - 22.05).abs() < 2.0);
        // Histograms carry all samples.
        assert_eq!(result.single_hist_05v.total(), 600);
    }

    #[test]
    fn display_prints_all_rows() {
        let result = run_with(100, 2, Executor::default());
        let text = result.to_string();
        assert!(text.contains("Fig 1"));
        assert!(text.contains("0.50"));
        assert!(text.contains("histogram"));
    }
}
