//! Variance decomposition: which variation source drives the chip delay?
//!
//! The device model carries four σ components — random ΔVth (RDF/LER),
//! random current factor, systematic ΔVth and systematic current factor.
//! This module answers "what fraction of the q99 excess comes from each?"
//! by **source freezing**: re-evaluating the chip-delay distribution with
//! one component zeroed at a time and attributing the q99 shift. The
//! paper's mitigation story depends on this decomposition — duplication
//! only trims what varies *between* lanes, margining compresses
//! everything.

use ntv_device::{DeviceParams, TechModel};
use ntv_mc::CounterRng;
use ntv_units::Volts;

use crate::config::DatapathConfig;
use crate::engine::{DatapathEngine, VariationMode};
use crate::exec::Executor;

/// One variation source of the device model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VariationSource {
    /// Per-device random threshold variation (RDF + LER).
    RandomVth,
    /// Per-device random current-factor variation.
    RandomCurrentFactor,
    /// Per-chip systematic threshold variation.
    SystematicVth,
    /// Per-chip systematic current-factor variation.
    SystematicCurrentFactor,
}

impl VariationSource {
    /// All four sources.
    pub const ALL: [VariationSource; 4] = [
        VariationSource::RandomVth,
        VariationSource::RandomCurrentFactor,
        VariationSource::SystematicVth,
        VariationSource::SystematicCurrentFactor,
    ];

    /// Parameters with this source zeroed.
    #[must_use]
    pub fn frozen(self, params: &DeviceParams) -> DeviceParams {
        let mut p = *params;
        match self {
            VariationSource::RandomVth => p.sigma_vth_random = Volts::ZERO,
            VariationSource::RandomCurrentFactor => p.sigma_k_random = 0.0,
            VariationSource::SystematicVth => p.sigma_vth_systematic = Volts::ZERO,
            VariationSource::SystematicCurrentFactor => p.sigma_k_systematic = 0.0,
        }
        p
    }
}

impl std::fmt::Display for VariationSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VariationSource::RandomVth => "random Vth (RDF/LER)",
            VariationSource::RandomCurrentFactor => "random current factor",
            VariationSource::SystematicVth => "systematic Vth",
            VariationSource::SystematicCurrentFactor => "systematic current factor",
        };
        f.write_str(s)
    }
}

/// One source's attribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SourceContribution {
    /// The frozen source.
    pub source: VariationSource,
    /// q99 excess (FO4 over the 50-FO4 ideal) with the source frozen.
    pub frozen_excess_fo4: f64,
    /// Share of the full-model q99 excess removed by freezing this source.
    pub share: f64,
}

/// Full decomposition at one operating point.
#[derive(Debug, Clone)]
pub struct SensitivityReport {
    /// Operating voltage.
    pub vdd: Volts,
    /// q99 excess of the full model (FO4 above the ideal path).
    pub full_excess_fo4: f64,
    /// Per-source contributions, largest share first.
    pub contributions: Vec<SourceContribution>,
}

/// Decompose the q99 chip-delay excess at `vdd` by source freezing.
///
/// Shares are normalized freeze-deltas; with interacting nonlinear sources
/// they need not sum to exactly one, which is itself informative and
/// reported as-is.
#[must_use]
pub fn decompose(
    tech: &TechModel,
    config: DatapathConfig,
    vdd: Volts,
    samples: usize,
    seed: u64,
    exec: Executor,
) -> SensitivityReport {
    let ideal = config.path_length as f64;
    let q99_excess = |params: DeviceParams| -> f64 {
        let frozen_tech = TechModel::from_params(params);
        let engine = DatapathEngine::with_mode(&frozen_tech, config, VariationMode::PaperNormal);
        let stream = CounterRng::new(seed, "sensitivity");
        engine
            .chip_delay_distribution(vdd, samples, &stream, exec)
            .q99_fo4()
            - ideal
    };

    let full = q99_excess(*tech.params());
    let mut contributions: Vec<SourceContribution> = VariationSource::ALL
        .iter()
        .map(|&source| {
            let frozen = q99_excess(source.frozen(tech.params()));
            SourceContribution {
                source,
                frozen_excess_fo4: frozen,
                share: if full > 0.0 {
                    (full - frozen) / full
                } else {
                    0.0
                },
            }
        })
        .collect();
    contributions.sort_by(|a, b| b.share.total_cmp(&a.share));

    SensitivityReport {
        vdd,
        full_excess_fo4: full,
        contributions,
    }
}

impl std::fmt::Display for SensitivityReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "q99 excess at {:.2}: {:.2} FO4; contribution by source:",
            self.vdd, self.full_excess_fo4
        )?;
        for c in &self.contributions {
            writeln!(
                f,
                "  {:<26} {:>5.1}%  (frozen excess {:.2} FO4)",
                c.source.to_string(),
                c.share * 100.0,
                c.frozen_excess_fo4
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntv_device::TechNode;

    #[test]
    fn freezing_everything_removes_the_excess() {
        let tech = TechModel::new(TechNode::Gp90);
        let mut p = *tech.params();
        p.sigma_vth_random = Volts::ZERO;
        p.sigma_k_random = 0.0;
        p.sigma_vth_systematic = Volts::ZERO;
        p.sigma_k_systematic = 0.0;
        let frozen = TechModel::from_params(p);
        let engine = DatapathEngine::new(&frozen, DatapathConfig::paper_default());
        let stream = CounterRng::new(1, "sensitivity-test");
        let q = engine
            .chip_delay_distribution(Volts(0.55), 500, &stream, Executor::default())
            .q99_fo4();
        // The mixture variance collapses to numerical dust when every
        // sigma is zero; allow for that cancellation noise.
        assert!((q - 50.0).abs() < 1e-3, "deterministic chip: {q}");
    }

    #[test]
    fn vth_sources_dominate_near_threshold() {
        // At 0.5 V the Vth sensitivity explodes, so the threshold-voltage
        // components (systematic + RDF/LER) carry the bulk of the
        // chip-delay excess, far ahead of the current-factor components.
        let tech = TechModel::new(TechNode::PtmHp22);
        let r = decompose(
            &tech,
            DatapathConfig::paper_default(),
            Volts(0.5),
            2_000,
            2,
            Executor::default(),
        );
        assert!(r.full_excess_fo4 > 2.0);
        let share = |src: VariationSource| {
            r.contributions
                .iter()
                .find(|c| c.source == src)
                .expect("present")
                .share
        };
        let vth = share(VariationSource::SystematicVth) + share(VariationSource::RandomVth);
        let k = share(VariationSource::SystematicCurrentFactor)
            + share(VariationSource::RandomCurrentFactor);
        assert!(vth > 2.0 * k.max(0.01), "vth {vth} vs k {k}\n{r}");
        assert!(matches!(
            r.contributions[0].source,
            VariationSource::SystematicVth | VariationSource::RandomVth
        ));
    }

    #[test]
    fn shares_are_ordered_and_plausible() {
        let tech = TechModel::new(TechNode::Gp90);
        let r = decompose(
            &tech,
            DatapathConfig::paper_default(),
            Volts(0.55),
            2_000,
            3,
            Executor::default(),
        );
        for w in r.contributions.windows(2) {
            assert!(w[0].share >= w[1].share);
        }
        for c in &r.contributions {
            assert!(c.share > -0.1 && c.share < 1.1, "{c:?}");
            assert!(c.frozen_excess_fo4 >= 0.0);
            assert!(c.frozen_excess_fo4 <= r.full_excess_fo4 + 0.05);
        }
    }

    #[test]
    fn display_lists_all_sources() {
        let tech = TechModel::new(TechNode::Gp45);
        let text = decompose(
            &tech,
            DatapathConfig::paper_default(),
            Volts(0.6),
            800,
            4,
            Executor::default(),
        )
        .to_string();
        for s in VariationSource::ALL {
            assert!(text.contains(&s.to_string()), "{text}");
        }
    }
}
