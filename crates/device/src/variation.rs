//! Process-variation sampling.
//!
//! The paper's variation sources (§3.1): random dopant fluctuation (RDF) —
//! the dominant on-current variation source in near-threshold operation —
//! and line-edge roughness (LER), significant at advanced nodes. Both are
//! represented, as in the paper, by **normal distributions** on threshold
//! voltage, plus a log-normal current-factor term capturing
//! mobility/geometry variation that does not act through Vth.
//!
//! Two correlation scopes matter:
//!
//! * **per-chip systematic** ([`ChipSample`]) — shared by every gate on one
//!   die (die-to-die + long-range within-die correlation). This is what
//!   stops the chain-of-50 variance from shrinking with 1/N forever
//!   (Fig 1b vs Fig 1a, Fig 11).
//! * **per-device random** ([`GateSample`]) — independent per gate; averages
//!   out along a logic chain.

use ntv_mc::CounterDraws;
use ntv_units::Volts;

use crate::params::DeviceParams;

/// Regional (per-lane) variation draw: the part of within-die systematic
/// variation that differs between SIMD lanes (spatial correlation falls off
/// with distance, so a lane — a compact column of the array — shares one
/// regional offset, while different lanes see different ones).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RegionSample {
    /// Regional threshold-voltage shift ΔVth.
    pub dvth: Volts,
    /// Regional log current-factor shift.
    pub ln_k: f64,
}

/// Systematic (per-chip) variation draw, shared by all gates on a die.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChipSample {
    /// Systematic threshold-voltage shift ΔVth.
    pub dvth: Volts,
    /// Systematic log current-factor shift.
    pub ln_k: f64,
}

impl ChipSample {
    /// The variation-free chip (all shifts zero).
    #[must_use]
    pub fn nominal() -> Self {
        Self::default()
    }
}

/// Random (per-device) variation draw, independent for each gate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GateSample {
    /// Random threshold-voltage shift ΔVth.
    pub dvth: Volts,
    /// Random log current-factor shift.
    pub ln_k: f64,
}

impl GateSample {
    /// The variation-free gate (all shifts zero).
    #[must_use]
    pub fn nominal() -> Self {
        Self::default()
    }
}

/// Draw one chip's *total* systematic variation (chip-global plus one
/// regional offset) — what a single-region circuit such as an inverter
/// chain or an adder experiences. Cross-chip Monte Carlo over chains
/// (Fig 1/2) uses this.
pub fn sample_chip(params: &DeviceParams, rng: &mut CounterDraws) -> ChipSample {
    ChipSample {
        dvth: Volts(rng.normal(0.0, params.sigma_vth_systematic.get())),
        ln_k: rng.normal(0.0, params.sigma_k_systematic),
    }
}

/// Draw the chip-global share of systematic variation (variance fraction
/// `1 − lane_fraction`). Combine with per-lane [`sample_region`] draws to
/// model a multi-lane die.
pub fn sample_chip_global(params: &DeviceParams, rng: &mut CounterDraws) -> ChipSample {
    let f = (1.0 - params.lane_fraction).sqrt();
    ChipSample {
        dvth: Volts(rng.normal(0.0, params.sigma_vth_systematic.get() * f)),
        ln_k: rng.normal(0.0, params.sigma_k_systematic * f),
    }
}

/// Draw one lane's regional offset (variance fraction `lane_fraction` of
/// the systematic budget).
pub fn sample_region(params: &DeviceParams, rng: &mut CounterDraws) -> RegionSample {
    let f = params.lane_fraction.sqrt();
    RegionSample {
        dvth: Volts(rng.normal(0.0, params.sigma_vth_systematic.get() * f)),
        ln_k: rng.normal(0.0, params.sigma_k_systematic * f),
    }
}

/// Draw one device's random variation.
pub fn sample_gate(params: &DeviceParams, rng: &mut CounterDraws) -> GateSample {
    GateSample {
        dvth: Volts(rng.normal(0.0, params.sigma_vth_random.get())),
        ln_k: rng.normal(0.0, params.sigma_k_random),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::TechNode;
    use ntv_mc::{CounterRng, Summary};

    #[test]
    fn nominal_samples_are_zero() {
        assert_eq!(ChipSample::nominal().dvth, Volts::ZERO);
        assert_eq!(GateSample::nominal().ln_k, 0.0);
    }

    #[test]
    fn sampled_sigmas_match_parameters() {
        let params = DeviceParams::for_node(TechNode::PtmHp22);
        let mut rng = CounterRng::new(8, "sampled_sigmas_match_parameters").at(0);
        let chips: Summary = (0..50_000)
            .map(|_| sample_chip(&params, &mut rng).dvth.get())
            .collect();
        let gates: Summary = (0..50_000)
            .map(|_| sample_gate(&params, &mut rng).dvth.get())
            .collect();
        assert!(
            (chips.std_dev() - params.sigma_vth_systematic.get()).abs()
                < 0.05 * params.sigma_vth_systematic.get() + 1e-6
        );
        assert!(
            (gates.std_dev() - params.sigma_vth_random.get()).abs()
                < 0.05 * params.sigma_vth_random.get() + 1e-6
        );
        assert!(chips.mean().abs() < 1e-4);
        assert!(gates.mean().abs() < 1e-3);
    }

    #[test]
    fn global_and_regional_variances_partition_the_systematic_budget() {
        let params = DeviceParams::for_node(TechNode::Gp45);
        let mut rng = CounterRng::new(
            4,
            "global_and_regional_variances_partition_the_systematic_budget",
        )
        .at(0);
        let combined: Summary = (0..50_000)
            .map(|_| {
                (sample_chip_global(&params, &mut rng).dvth + sample_region(&params, &mut rng).dvth)
                    .get()
            })
            .collect();
        assert!(
            (combined.std_dev() - params.sigma_vth_systematic.get()).abs()
                < 0.05 * params.sigma_vth_systematic.get()
        );
    }

    #[test]
    fn zero_sigma_params_give_deterministic_samples() {
        let params = DeviceParams::for_node(TechNode::Gp90).with_sigma_scale(0.0);
        let mut rng = CounterRng::new(3, "zero_sigma_params_give_deterministic_samples").at(0);
        for _ in 0..10 {
            assert_eq!(sample_chip(&params, &mut rng), ChipSample::nominal());
            assert_eq!(sample_gate(&params, &mut rng), GateSample::nominal());
        }
    }
}
