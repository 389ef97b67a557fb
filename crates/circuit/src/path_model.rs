//! Closed-form critical-path delay model.
//!
//! The architecture study needs the delay distribution of **12 800+
//! critical paths per chip sample** (128 lanes × 100 paths) over 10 000
//! chips. Simulating every one of the 50 gates per path is ~10⁹ device
//! evaluations per experiment; this module replaces the inner loop with a
//! two-moment closed form:
//!
//! 1. **Conditional gate moments.** Given the chip's systematic variation,
//!    a gate's delay is `D₀(Vth0 + ΔVth_sys + δv) · exp(−ln_k_sys − ε)` with
//!    `δv ~ N(0, σ_vr)` and `ε ~ N(0, σ_kr)` independent. The ε factor has
//!    exact log-normal moments; the δv expectation is evaluated with a
//!    16-point Gauss–Hermite rule. Cost: 16 delay-model calls per chip.
//! 2. **CLT over the chain.** A critical path is the sum of `L = 50`
//!    i.i.d. (conditionally) gate delays, so it is asymptotically
//!    `Normal(L·μ_g, L·σ_g²)`. At `L = 50` the normal approximation is
//!    excellent (validated against the exact gate-level engine in this
//!    module's tests and in `tests/engines_agree.rs`).
//!
//! Path delays then live in a conditional-normal world where lane maxima
//! can be sampled in O(1) via [`ntv_mc::order::sample_max_normal`].

use ntv_device::{ChipSample, TechModel};
use ntv_mc::GaussHermite;
use ntv_units::Volts;

/// Conditional mean/σ of a critical-path delay given one chip's systematic
/// variation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathMoments {
    /// Conditional mean path delay (ps).
    pub mean_ps: f64,
    /// Conditional standard deviation (ps).
    pub std_ps: f64,
}

/// Closed-form conditional path-delay model for a chain-shaped critical
/// path of `length` gates.
///
/// # Example
///
/// ```
/// use ntv_circuit::path_model::PathModel;
/// use ntv_device::{ChipSample, TechModel, TechNode};
/// use ntv_units::Volts;
///
/// let tech = TechModel::new(TechNode::Gp90);
/// let model = PathModel::new(&tech, 50);
/// let m = model.conditional_moments(Volts(0.55), &ChipSample::nominal());
/// // Mean is close to 50 nominal FO4 delays; variation adds a small bias.
/// let nominal = 50.0 * tech.fo4_delay_ps(Volts(0.55));
/// assert!((m.mean_ps / nominal - 1.0).abs() < 0.1);
/// assert!(m.std_ps > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct PathModel<'a> {
    tech: &'a TechModel,
    length: usize,
    quadrature: &'static GaussHermite,
}

impl<'a> PathModel<'a> {
    /// Default Gauss–Hermite order; 16 points integrate the delay-vs-Vth
    /// nonlinearity to well below Monte-Carlo noise.
    pub const DEFAULT_QUADRATURE_ORDER: usize = 16;

    /// Model for a path of `length` FO4 stages.
    ///
    /// # Panics
    ///
    /// Panics if `length == 0`.
    #[must_use]
    pub fn new(tech: &'a TechModel, length: usize) -> Self {
        assert!(length > 0, "a path needs at least one stage");
        Self {
            tech,
            length,
            quadrature: GaussHermite::shared(Self::DEFAULT_QUADRATURE_ORDER),
        }
    }

    /// The technology model in use.
    #[must_use]
    pub fn tech(&self) -> &TechModel {
        self.tech
    }

    /// Conditional mean and σ of a *single gate's* delay (ps) given `chip`.
    #[must_use]
    pub fn conditional_gate_moments(&self, vdd: Volts, chip: &ChipSample) -> (f64, f64) {
        let p = self.tech.params();
        // Quadrature over the random Vth deviation with kappa factored out.
        let (q1, qvar) = self
            .quadrature
            .moments_normal(0.0, p.sigma_vth_random.get(), |dv| {
                self.tech.gate_delay_ps_at(vdd, chip, Volts(dv), 0.0)
            });
        let q2 = qvar + q1 * q1; // E[D0^2]

        // Log-normal moments of exp(-eps), eps ~ N(0, sigma_kr).
        let s2 = p.sigma_k_random * p.sigma_k_random;
        let e_k = (0.5 * s2).exp(); // E[exp(-eps)]
        let e_k2 = (2.0 * s2).exp(); // E[exp(-2 eps)]
        let mean = q1 * e_k;
        let var = (q2 * e_k2 - mean * mean).max(0.0);
        (mean, var.sqrt())
    }

    /// Conditional path moments given `chip`: `Normal(L·μ_g, L·σ_g²)`.
    #[must_use]
    pub fn conditional_moments(&self, vdd: Volts, chip: &ChipSample) -> PathMoments {
        let (mu, sigma) = self.conditional_gate_moments(vdd, chip);
        PathMoments {
            mean_ps: self.length as f64 * mu,
            std_ps: (self.length as f64).sqrt() * sigma,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::ChainMc;
    use ntv_device::TechNode;
    use ntv_mc::{CounterRng, Summary};

    #[test]
    fn gate_moments_match_direct_monte_carlo() {
        let tech = TechModel::new(TechNode::Gp90);
        let model = PathModel::new(&tech, 1);
        let mut rng = CounterRng::new(17, "gate_moments_match_direct_monte_carlo").at(0);
        let chip = tech.sample_chip(&mut rng);
        for vdd in [Volts(0.5), Volts(0.7), Volts(1.0)] {
            let (mu, sigma) = model.conditional_gate_moments(vdd, &chip);
            let mc: Summary = (0..100_000)
                .map(|_| {
                    let g = tech.sample_gate(&mut rng);
                    tech.gate_delay_ps(vdd, &chip, &g)
                })
                .collect();
            assert!(
                (mc.mean() / mu - 1.0).abs() < 0.01,
                "{vdd}: MC mean {} vs quadrature {mu}",
                mc.mean()
            );
            assert!(
                (mc.std_dev() / sigma - 1.0).abs() < 0.03,
                "{vdd}: MC sigma {} vs quadrature {sigma}",
                mc.std_dev()
            );
        }
    }

    #[test]
    fn path_distribution_matches_gate_level_chain() {
        // Compare full cross-chip distributions: closed form (sample chip,
        // then normal) vs exact gate-level chain.
        let tech = TechModel::new(TechNode::Gp45);
        let model = PathModel::new(&tech, 50);
        let chain = ChainMc::new(&tech, 50);
        let vdd = Volts(0.55);
        let n = 4000;

        let mut rng_fast = CounterRng::new(100, "path_distribution_matches_gate_level_chain").at(0);
        let fast: Summary = (0..n)
            .map(|_| {
                let chip = tech.sample_chip(&mut rng_fast);
                let m = model.conditional_moments(vdd, &chip);
                rng_fast.normal(m.mean_ps, m.std_ps)
            })
            .collect();

        let slow_stream = CounterRng::new(200, "path_distribution_matches_gate_level_chain");
        let slow = chain.summary(vdd, n, &slow_stream);

        assert!(
            (fast.mean() / slow.mean() - 1.0).abs() < 0.01,
            "mean: fast {} slow {}",
            fast.mean(),
            slow.mean()
        );
        assert!(
            (fast.std_dev() / slow.std_dev() - 1.0).abs() < 0.08,
            "sigma: fast {} slow {}",
            fast.std_dev(),
            slow.std_dev()
        );
    }

    #[test]
    fn systematically_slow_chip_has_larger_mean() {
        let tech = TechModel::new(TechNode::PtmHp22);
        let model = PathModel::new(&tech, 50);
        let nominal = model.conditional_moments(Volts(0.55), &ChipSample::nominal());
        let slow_chip = ChipSample {
            dvth: 2.0 * tech.params().sigma_vth_systematic,
            ln_k: -2.0 * tech.params().sigma_k_systematic,
        };
        let slow = model.conditional_moments(Volts(0.55), &slow_chip);
        assert!(slow.mean_ps > nominal.mean_ps);
    }

    #[test]
    fn sigma_shrinks_relative_to_mean_with_length() {
        let tech = TechModel::new(TechNode::Gp90);
        let short =
            PathModel::new(&tech, 10).conditional_moments(Volts(0.55), &ChipSample::nominal());
        let long =
            PathModel::new(&tech, 100).conditional_moments(Volts(0.55), &ChipSample::nominal());
        assert!(long.std_ps / long.mean_ps < short.std_ps / short.mean_ps);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_length_rejected() {
        let tech = TechModel::new(TechNode::Gp90);
        let _ = PathModel::new(&tech, 0);
    }
}
