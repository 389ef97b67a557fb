//! Per-node device-model parameters and their calibration provenance.
//!
//! The paper ran HSPICE Monte Carlo on commercial 90/45 nm GP decks and
//! 32/22 nm PTM HP decks. We do not have those decks, so each node carries
//! an analytical parameter set calibrated against the numbers the paper
//! itself publishes:
//!
//! * The **delay scale** (`delay_scale_ps`) and **threshold/slope** values
//!   are set so the variation-free FO4 delay reproduces the paper's
//!   chain-of-50 absolute delays for 90 nm (22.05 ns @0.5 V and 8.99 ns
//!   @0.6 V ⇒ FO4 = 441 ps and ≈180 ps, §3.2) and plausible published FO4
//!   delays at nominal voltage for the other nodes.
//! * The **variation σ values** are fitted to Fig 1 (90 nm single-inverter
//!   and chain-of-50 3σ/μ at 1.0 V and 0.5 V) and Fig 2 (chain-of-50 3σ/μ
//!   at each node's nominal voltage and at 0.5 V, plus the stated 2.5×
//!   90-vs-22 nm ratio at 0.55 V). The split between per-chip systematic and
//!   per-device random components is pinned down by the paper's own
//!   single-gate vs chain-of-50 ratios (2.7×–3.8×, far below the √50 ≈ 7.07×
//!   a purely random model would give).
//!
//! Fitting uses the first-order sensitivity `S(V) = −∂lnD/∂Vth` of the
//! transregional current model; the Monte-Carlo engines then see the full
//! nonlinear model (which also produces the right-skewed histograms of
//! Fig 1).

use ntv_units::Volts;

use crate::node::TechNode;

/// Thermal voltage kT/q at the calibrated parameter sets' reference junction
/// temperature, 300 K.
pub const THERMAL_VOLTAGE: Volts = Volts(0.02585);

/// Complete analytical device model for one technology node.
///
/// Construct via [`DeviceParams::for_node`] for the calibrated paper nodes,
/// or derive a custom value from one (the fields are public, and
/// [`DeviceParams::with_sigma_scale`] scales the variation) for what-if
/// studies; [`DeviceParams::validate`] checks it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Which node this parameter set describes.
    pub node: TechNode,
    /// Nominal supply voltage.
    pub vdd_nominal: Volts,
    /// Nominal threshold voltage Vth0.
    pub vth0: Volts,
    /// Sub-threshold slope factor `n` (I ∝ exp((V−Vth)/(n·φt)) below Vth).
    pub slope_n: f64,
    /// Velocity-saturation exponent α of the strong-inversion power law
    /// (I ∝ (V−Vth)^α; α = 2 would be the long-channel square law).
    pub alpha: f64,
    /// Delay prefactor (ps · normalized-current): FO4 delay =
    /// `delay_scale_ps · Vdd / I_on(Vdd, Vth)`.
    pub delay_scale_ps: f64,
    /// Per-device random σ(Vth) (RDF, plus LER at 32/22 nm).
    pub sigma_vth_random: Volts,
    /// Per-chip systematic σ(Vth).
    pub sigma_vth_systematic: Volts,
    /// Per-device random σ of the log current factor (dimensionless).
    pub sigma_k_random: f64,
    /// Per-chip systematic σ of the log current factor (dimensionless).
    pub sigma_k_systematic: f64,
    /// Share of the *systematic variance* that is regional (correlated
    /// within one SIMD lane but varying lane-to-lane across the die) rather
    /// than chip-global. Spatially-correlated within-die variation is what
    /// makes structural duplication effective: dropping the slowest lanes
    /// trims the regional tail (Table 1 / Fig 5). A chain or adder sits in
    /// a single region and therefore sees the full systematic σ.
    pub lane_fraction: f64,
    /// Normalized leakage prefactor for the energy model, in the same units
    /// as the on-current. Folds the `exp(−Vth/(n·φt))` off-state factor and
    /// the idle-device width multiplier; calibrated so the minimum-energy
    /// point lands in the sub-threshold region (Fig 9) with a few percent
    /// leakage share at nominal voltage.
    pub leak_i0: f64,
    /// DIBL coefficient η (V/V): leakage ∝ exp((η·Vdd − Vth)/(n·φt)).
    pub dibl: f64,
    /// Effective switching capacitance energy scale (fJ/V² per FO4 op).
    pub switch_cap_fj: f64,
}

impl DeviceParams {
    /// The calibrated parameter set for one of the paper's nodes.
    ///
    /// # Example
    ///
    /// ```
    /// use ntv_device::{DeviceParams, TechNode};
    /// use ntv_units::Volts;
    /// let p = DeviceParams::for_node(TechNode::Gp90);
    /// assert_eq!(p.vdd_nominal, Volts(1.0));
    /// ```
    #[must_use]
    pub fn for_node(node: TechNode) -> Self {
        match node {
            // Fitted to Fig 1 (15.58 %@1.0 V → 35.49 %@0.5 V single gate;
            // 5.76 % → 9.43 % chain-50) and the 441 ps / ~180 ps FO4 delays.
            TechNode::Gp90 => Self {
                node,
                vdd_nominal: Volts(1.0),
                vth0: Volts(0.43),
                slope_n: 1.30,
                alpha: 1.35,
                delay_scale_ps: 1848.0,
                sigma_vth_random: Volts(7.6e-3),
                sigma_vth_systematic: Volts(1.42e-3),
                sigma_k_random: 0.0487,
                sigma_k_systematic: 0.0174,
                lane_fraction: 0.5,
                leak_i0: 6.0e-3,
                dibl: 0.10,
                switch_cap_fj: 1.0,
            },
            // Commercial 45 nm GP: larger random dopant fluctuation than
            // 90 nm; chain-50 targets ~7 %@1.0 V -> ~20 %@0.5 V (between the
            // 32 nm PTM and 22 nm curves of Fig 2 — the commercial 45 nm
            // deck is *more* variable than predictive 32 nm, as implied by
            // the larger Table 2 voltage margins: 19.6 mV vs 12.1 mV).
            TechNode::Gp45 => Self {
                node,
                vdd_nominal: Volts(1.0),
                vth0: Volts(0.40),
                slope_n: 1.30,
                alpha: 1.32,
                delay_scale_ps: 715.0,
                sigma_vth_random: Volts(17.6e-3),
                sigma_vth_systematic: Volts(4.97e-3),
                sigma_k_random: 0.0625,
                sigma_k_systematic: 0.0178,
                lane_fraction: 0.5,
                leak_i0: 6.0e-3,
                dibl: 0.12,
                switch_cap_fj: 0.42,
            },
            // 32 nm PTM HP (predictive — optimistic vs commercial 45 nm):
            // chain-50 targets ~5.5 %@0.9 V → ~14 %@0.5 V.
            TechNode::PtmHp32 => Self {
                node,
                vdd_nominal: Volts(0.9),
                vth0: Volts(0.40),
                slope_n: 1.28,
                alpha: 1.30,
                delay_scale_ps: 459.0,
                sigma_vth_random: Volts(12.3e-3),
                sigma_vth_systematic: Volts(3.47e-3),
                sigma_k_random: 0.0484,
                sigma_k_systematic: 0.0137,
                lane_fraction: 0.5,
                leak_i0: 7.0e-3,
                dibl: 0.13,
                switch_cap_fj: 0.26,
            },
            // 22 nm PTM HP: LER becomes significant (paper §3.1); chain-50
            // targets 11 %@0.8 V → 25 %@0.5 V and 2.5× the 90 nm value at
            // 0.55 V (both stated in the paper).
            TechNode::PtmHp22 => Self {
                node,
                vdd_nominal: Volts(0.8),
                vth0: Volts(0.41),
                slope_n: 1.30,
                alpha: 1.28,
                delay_scale_ps: 288.0,
                sigma_vth_random: Volts(20.4e-3),
                sigma_vth_systematic: Volts(5.75e-3),
                sigma_k_random: 0.0939,
                sigma_k_systematic: 0.0266,
                lane_fraction: 0.5,
                leak_i0: 6.0e-3,
                dibl: 0.15,
                switch_cap_fj: 0.16,
            },
        }
    }

    /// These parameters with all four variation σ components scaled by
    /// `factor`, for what-if studies of the variation magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    ///
    /// # Example
    ///
    /// ```
    /// use ntv_device::{DeviceParams, TechNode};
    /// let base = DeviceParams::for_node(TechNode::Gp90);
    /// let params = base.with_sigma_scale(2.0);
    /// assert!(params.sigma_vth_random > base.sigma_vth_random);
    /// assert!(params.validate().is_ok());
    /// ```
    #[must_use]
    // ntv:allow(test-only-api): tests/props.rs::sigma_scale_scales_measured_variation, op_cache's private-cache tests and variation's zero-σ test build their custom parameter sets with it
    pub fn with_sigma_scale(mut self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "sigma scale must be finite and >= 0"
        );
        self.sigma_vth_random *= factor;
        self.sigma_vth_systematic *= factor;
        self.sigma_k_random *= factor;
        self.sigma_k_systematic *= factor;
        self
    }

    /// Validate physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), InvalidDeviceParams> {
        fn check(ok: bool, what: &'static str) -> Result<(), InvalidDeviceParams> {
            if ok {
                Ok(())
            } else {
                Err(InvalidDeviceParams { what })
            }
        }
        check(
            self.vdd_nominal > Volts::ZERO && self.vdd_nominal < Volts(2.0),
            "nominal Vdd out of range",
        )?;
        check(
            self.vth0 > Volts::ZERO && self.vth0 < self.vdd_nominal,
            "Vth0 out of range",
        )?;
        check(
            self.slope_n >= 1.0 && self.slope_n < 3.0,
            "slope factor out of range",
        )?;
        check(self.alpha > 1.0 && self.alpha <= 2.0, "alpha out of range")?;
        check(self.delay_scale_ps > 0.0, "delay scale must be positive")?;
        check(
            self.sigma_vth_random >= Volts::ZERO
                && self.sigma_vth_systematic >= Volts::ZERO
                && self.sigma_k_random >= 0.0
                && self.sigma_k_systematic >= 0.0,
            "variation sigmas must be non-negative",
        )?;
        check(
            (0.0..=1.0).contains(&self.lane_fraction),
            "lane fraction must lie in [0, 1]",
        )?;
        check(
            self.leak_i0 >= 0.0,
            "leakage prefactor must be non-negative",
        )?;
        check(
            (0.0..1.0).contains(&self.dibl),
            "DIBL coefficient out of range",
        )?;
        check(
            self.switch_cap_fj > 0.0,
            "switching capacitance must be positive",
        )?;
        Ok(())
    }
}

/// Error describing an invalid [`DeviceParams`] field combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidDeviceParams {
    what: &'static str,
}

impl std::fmt::Display for InvalidDeviceParams {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid device parameters: {}", self.what)
    }
}

impl std::error::Error for InvalidDeviceParams {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_calibrated_nodes_validate() {
        for node in TechNode::ALL {
            DeviceParams::for_node(node)
                .validate()
                .expect("calibrated params are valid");
        }
    }

    #[test]
    fn nominal_vdd_agrees_with_node() {
        for node in TechNode::ALL {
            assert_eq!(DeviceParams::for_node(node).vdd_nominal, node.nominal_vdd());
        }
    }

    #[test]
    fn variation_grows_with_scaling_for_random_vth() {
        let sigmas: Vec<Volts> = TechNode::ALL
            .iter()
            .map(|&n| DeviceParams::for_node(n).sigma_vth_random)
            .collect();
        // 90 < 45, 45 < 22, 32 < 22 (45 nm commercial exceeds 32 nm PTM).
        assert!(sigmas[0] < sigmas[1]);
        assert!(sigmas[1] < sigmas[3]);
        assert!(sigmas[2] < sigmas[3]);
    }

    #[test]
    fn validate_names_the_violated_field() {
        let mut p = DeviceParams::for_node(TechNode::Gp45);
        p.vth0 = Volts(1.5);
        let bad = p.validate();
        assert!(bad.is_err());
        assert!(bad.unwrap_err().to_string().contains("Vth0"));
    }

    #[test]
    fn sigma_scale_zero_gives_deterministic_device() {
        let p = DeviceParams::for_node(TechNode::Gp90).with_sigma_scale(0.0);
        assert_eq!(p.sigma_vth_random, Volts::ZERO);
        assert_eq!(p.sigma_k_systematic, 0.0);
    }

    #[test]
    fn validate_rejects_boundary_voltages() {
        // Both ends of the Vdd range are open intervals: exactly 0 V and
        // exactly 2 V are rejected, values strictly inside are accepted.
        let mut p = DeviceParams::for_node(TechNode::Gp90);
        p.vdd_nominal = Volts::ZERO;
        assert!(p.validate().is_err());
        p.vdd_nominal = Volts(2.0);
        assert!(p.validate().is_err());
        p.vdd_nominal = Volts(1.999);
        assert!(p.validate().is_ok());

        // Vth0 must be strictly below the nominal supply.
        let mut p = DeviceParams::for_node(TechNode::Gp90);
        p.vth0 = p.vdd_nominal;
        assert!(p.validate().is_err());
        p.vth0 = p.vdd_nominal - Volts(1e-9);
        assert!(p.validate().is_ok());
        p.vth0 = Volts::ZERO;
        assert!(p.validate().is_err());
    }

    #[test]
    fn systematic_is_smaller_than_random() {
        // The chain-of-50 averaging in Fig 1 requires the systematic
        // component to be a minority share of single-gate variance.
        for node in TechNode::ALL {
            let p = DeviceParams::for_node(node);
            assert!(p.sigma_vth_systematic < p.sigma_vth_random);
            assert!(p.sigma_k_systematic < p.sigma_k_random);
        }
    }
}
