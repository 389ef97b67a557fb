//! The chain of FO4 inverters — the paper's canonical test circuit.
//!
//! §3.2: *"a chain of 50 FO4 inverters is used to emulate a critical path of
//! the SIMD datapath because they are similar in terms of average delay and
//! variation at all voltages."* This module is the exact gate-level
//! Monte-Carlo engine behind Figs 1, 2 and 11: every sample draws a fresh
//! chip (systematic variation) and a fresh random variation for each of the
//! `N` inverters.

use ntv_device::{ChipSample, TechModel};
use ntv_mc::{CounterDraws, CounterRng, Summary};
use ntv_units::Volts;

/// Gate-level Monte-Carlo engine for an `N`-stage FO4 inverter chain.
///
/// # Example
///
/// ```
/// use ntv_circuit::chain::ChainMc;
/// use ntv_device::{TechModel, TechNode};
/// use ntv_mc::CounterRng;
/// use ntv_units::Volts;
///
/// let tech = TechModel::new(TechNode::Gp90);
/// let single = ChainMc::new(&tech, 1);
/// let chain = ChainMc::new(&tech, 50);
/// let stream = CounterRng::new(3, "example");
/// let s1 = single.summary(Volts(0.5), 400, &stream);
/// let s50 = chain.summary(Volts(0.5), 400, &stream);
/// // Uncorrelated per-gate variation averages out along the chain (Fig 1).
/// assert!(s50.three_sigma_over_mu() < 0.6 * s1.three_sigma_over_mu());
/// ```
#[derive(Debug, Clone)]
pub struct ChainMc<'a> {
    tech: &'a TechModel,
    length: usize,
}

impl<'a> ChainMc<'a> {
    /// A chain of `length` FO4 inverters in technology `tech`.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0`.
    #[must_use]
    pub fn new(tech: &'a TechModel, length: usize) -> Self {
        assert!(length > 0, "a chain needs at least one stage");
        Self { tech, length }
    }

    /// The technology model in use.
    #[must_use]
    pub fn tech(&self) -> &TechModel {
        self.tech
    }

    /// Sample the chain delay (ps) on an already-drawn chip.
    ///
    /// SoA batch form: all per-gate random offsets are drawn first (same
    /// draw order as the old per-stage loop — delay evaluation consumes no
    /// randomness), the whole delay vector is evaluated with one
    /// [`TechModel::gate_delay_ps_batch`] call, and the chain sum keeps
    /// the stage order. Bit-identical to the draw-evaluate-accumulate
    /// loop it replaced (pinned by test).
    pub fn sample_on_chip_ps(&self, vdd: Volts, chip: &ChipSample, rng: &mut CounterDraws) -> f64 {
        let mut dvth = Vec::with_capacity(self.length);
        let mut ln_k = Vec::with_capacity(self.length);
        for _ in 0..self.length {
            let gate = self.tech.sample_gate(rng);
            dvth.push(gate.dvth);
            ln_k.push(gate.ln_k);
        }
        let mut delays = vec![0.0; self.length];
        self.tech
            .gate_delay_ps_batch(vdd, chip, &dvth, &ln_k, &mut delays);
        ntv_mc::reduce::sum_ordered(delays.iter().copied())
    }

    /// Sample the chain delay (ps), drawing a fresh chip (cross-chip
    /// Monte Carlo, as in Fig 1).
    pub fn sample_ps(&self, vdd: Volts, rng: &mut CounterDraws) -> f64 {
        let chip = self.tech.sample_chip(rng);
        self.sample_on_chip_ps(vdd, &chip, rng)
    }

    /// Draw `samples` cross-chip delays (ps), chip `i` from `stream.at(i)`,
    /// so calls that share a stream see the same chips.
    #[must_use]
    pub fn distribution_ps(&self, vdd: Volts, samples: usize, stream: &CounterRng) -> Vec<f64> {
        (0..samples as u64)
            .map(|i| self.sample_ps(vdd, &mut stream.at(i)))
            .collect()
    }

    /// Summary statistics of [`Self::distribution_ps`].
    #[must_use]
    pub fn summary(&self, vdd: Volts, samples: usize, stream: &CounterRng) -> Summary {
        self.distribution_ps(vdd, samples, stream)
            .into_iter()
            .collect()
    }

    /// The paper's variation metric 3σ/μ for this chain at `vdd`, over
    /// chips `0..samples` of `stream`.
    #[must_use]
    pub fn three_sigma_over_mu(&self, vdd: Volts, samples: usize, stream: &CounterRng) -> f64 {
        self.summary(vdd, samples, stream).three_sigma_over_mu()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntv_device::TechNode;

    #[test]
    fn mean_tracks_nominal_delay() {
        let tech = TechModel::new(TechNode::Gp90);
        let chain = ChainMc::new(&tech, 50);
        let stream = CounterRng::new(21, "mean_tracks_nominal_delay");
        let s = chain.summary(Volts(0.7), 2000, &stream);
        // The nonlinear Vth dependence introduces a small positive bias;
        // the mean must stay within a few percent of nominal.
        let nominal = 50.0 * tech.fo4_delay_ps(Volts(0.7));
        assert!(
            (s.mean() / nominal - 1.0).abs() < 0.05,
            "mean {} nominal {nominal}",
            s.mean()
        );
    }

    #[test]
    fn variation_shrinks_with_chain_length_at_fixed_voltage() {
        // Fig 11: 3 sigma/mu falls with N (with diminishing returns).
        let tech = TechModel::new(TechNode::Gp90);
        let stream = CounterRng::new(5, "variation_shrinks_with_chain_length_at_fixed_voltage");
        let v = Volts(0.55);
        let s1 = ChainMc::new(&tech, 1).three_sigma_over_mu(v, 3000, &stream);
        let s10 = ChainMc::new(&tech, 10).three_sigma_over_mu(v, 3000, &stream);
        let s100 = ChainMc::new(&tech, 100).three_sigma_over_mu(v, 1500, &stream);
        assert!(s1 > s10, "{s1} vs {s10}");
        assert!(s10 > s100, "{s10} vs {s100}");
        // ...but not with the 1/sqrt(N) of a purely random model: the
        // systematic floor keeps s100 well above s1/10.
        assert!(s100 > s1 / 10.0);
    }

    #[test]
    fn variation_grows_as_voltage_drops() {
        let tech = TechModel::new(TechNode::PtmHp22);
        let chain = ChainMc::new(&tech, 50);
        let stream = CounterRng::new(6, "variation_grows_as_voltage_drops");
        let hi = chain.three_sigma_over_mu(Volts(0.8), 2000, &stream);
        let lo = chain.three_sigma_over_mu(Volts(0.5), 2000, &stream);
        assert!(lo > 1.5 * hi, "0.5V: {lo}, 0.8V: {hi}");
    }

    #[test]
    fn distribution_is_right_skewed_at_low_voltage() {
        // Fig 1a histograms at 0.5 V have a long right tail.
        let tech = TechModel::new(TechNode::Gp90);
        let chain = ChainMc::new(&tech, 1);
        let stream = CounterRng::new(9, "distribution_is_right_skewed_at_low_voltage");
        let s = chain.summary(Volts(0.5), 4000, &stream);
        assert!(s.skewness() > 0.2, "skewness {}", s.skewness());
    }

    #[test]
    fn deterministic_given_seed() {
        let tech = TechModel::new(TechNode::Gp90);
        let chain = ChainMc::new(&tech, 5);
        let a = chain.distribution_ps(
            Volts(0.6),
            10,
            &CounterRng::new(1, "deterministic_given_seed"),
        );
        let b = chain.distribution_ps(
            Volts(0.6),
            10,
            &CounterRng::new(1, "deterministic_given_seed"),
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_length_rejected() {
        let tech = TechModel::new(TechNode::Gp90);
        let _ = ChainMc::new(&tech, 0);
    }

    /// The SoA rewrite (draw all gates, batch-evaluate, ordered sum) must
    /// reproduce the legacy draw-evaluate-accumulate loop bit for bit.
    #[test]
    fn soa_sampling_matches_legacy_interleaved_loop_bitwise() {
        let tech = TechModel::new(TechNode::Gp45);
        let chain = ChainMc::new(&tech, 50);
        let vdd = Volts(0.55);
        let mut rng_soa =
            CounterRng::new(77, "soa_sampling_matches_legacy_interleaved_loop_bitwise").at(0);
        let mut rng_legacy =
            CounterRng::new(77, "soa_sampling_matches_legacy_interleaved_loop_bitwise").at(0);
        for _ in 0..20 {
            let batch = chain.sample_ps(vdd, &mut rng_soa);
            // Legacy formulation: draw chip, then per stage draw a gate and
            // immediately evaluate its delay, accumulating left to right.
            let chip = tech.sample_chip(&mut rng_legacy);
            let legacy = ntv_mc::reduce::sum_ordered((0..50).map(|_| {
                let gate = tech.sample_gate(&mut rng_legacy);
                tech.gate_delay_ps(vdd, &chip, &gate)
            }));
            assert_eq!(batch.to_bits(), legacy.to_bits());
        }
    }
}
