//! The technology model: transregional current and FO4 delay.

use ntv_mc::CounterDraws;
use ntv_units::Volts;

use crate::node::TechNode;
use crate::params::{DeviceParams, THERMAL_VOLTAGE};
use crate::variation::{self, ChipSample, GateSample, RegionSample};

/// Operating-voltage region (paper §2 and Fig 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperatingRegion {
    /// `Vdd` well below `Vth`: exponential delay, leakage-energy dominated.
    SubThreshold,
    /// `Vdd ≈ Vth`: the paper's sweet spot — ~10× energy reduction for
    /// ~10× performance loss relative to nominal.
    NearThreshold,
    /// `Vdd` well above `Vth`: switching-energy dominated.
    SuperThreshold,
}

impl std::fmt::Display for OperatingRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            OperatingRegion::SubThreshold => "sub-threshold",
            OperatingRegion::NearThreshold => "near-threshold",
            OperatingRegion::SuperThreshold => "super-threshold",
        };
        f.write_str(s)
    }
}

/// Analytical stand-in for an HSPICE technology deck: current, delay and
/// variation sampling for one node.
///
/// The on-current uses a generalized EKV interpolation
///
/// ```text
/// I(V, Vth) = [ ln(1 + exp((V − Vth) / (α·n·φt))) ]^α
/// ```
///
/// which is `exp((V − Vth)/(n·φt))` in deep sub-threshold (slope factor `n`)
/// and `((V − Vth)/(α·n·φt))^α` in strong inversion (velocity-saturation
/// exponent `α`), with a smooth near-threshold transition — exactly the
/// regime structure the paper's analysis relies on. The FO4 delay is
/// `delay_scale · V / I`, and a varied device divides the current by a
/// log-normal factor `exp(ln_k)` and shifts `Vth` by the sampled ΔVth.
///
/// # Example
///
/// ```
/// use ntv_device::{TechModel, TechNode};
/// use ntv_units::Volts;
/// let tech = TechModel::new(TechNode::Gp90);
/// // Chain-of-50 delay at 0.5 V is ≈ 22 ns in the paper (§3.2).
/// let chain_ns = 50.0 * tech.fo4_delay_ps(Volts(0.5)) / 1000.0;
/// assert!((chain_ns - 22.05).abs() < 1.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TechModel {
    params: DeviceParams,
}

impl TechModel {
    /// Model with the calibrated parameters for `node`.
    #[must_use]
    pub fn new(node: TechNode) -> Self {
        Self {
            params: DeviceParams::for_node(node),
        }
    }

    /// Model from explicit (already validated) parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`DeviceParams::validate`]; call it first to
    /// check custom parameters.
    #[must_use]
    pub fn from_params(params: DeviceParams) -> Self {
        // ntv:allow(panic-path): documented panic (see `# Panics`); `DeviceParams::validate` is the checked path
        params.validate().expect("device parameters must be valid");
        Self { params }
    }

    /// The parameter set in use.
    #[must_use]
    pub fn params(&self) -> &DeviceParams {
        &self.params
    }

    /// The technology node.
    #[must_use]
    pub fn node(&self) -> TechNode {
        self.params.node
    }

    /// Nominal (full) supply voltage.
    #[must_use]
    pub fn nominal_vdd(&self) -> Volts {
        self.params.vdd_nominal
    }

    fn assert_voltage(&self, vdd: Volts) {
        assert!(
            vdd.is_finite() && vdd > Volts(0.05) && vdd < Volts(2.0),
            "supply voltage {vdd} outside the supported range (0.05 V, 2.0 V)"
        );
    }

    /// Normalized on-current at supply `vdd` for effective threshold `vth`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is outside the supported `(0.05, 2.0)` V range.
    #[must_use]
    pub fn on_current(&self, vdd: Volts, vth: Volts) -> f64 {
        self.assert_voltage(vdd);
        let p = &self.params;
        let x = (vdd - vth) / (p.alpha * p.slope_n * THERMAL_VOLTAGE);
        softplus(x).powf(p.alpha)
    }

    /// Variation-free FO4 inverter delay at `vdd`, in picoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is outside the supported range.
    #[must_use]
    pub fn fo4_delay_ps(&self, vdd: Volts) -> f64 {
        self.params.delay_scale_ps * vdd.get() / self.on_current(vdd, self.params.vth0)
    }

    /// FO4 delay (ps) of one varied device on one varied chip.
    ///
    /// The chip's systematic ΔVth/ln-k and the gate's random ΔVth/ln-k
    /// compose additively (in Vth and log-current respectively).
    #[must_use]
    pub fn gate_delay_ps(&self, vdd: Volts, chip: &ChipSample, gate: &GateSample) -> f64 {
        let vth = self.params.vth0 + chip.dvth + gate.dvth;
        let kappa = (chip.ln_k + gate.ln_k).exp();
        self.params.delay_scale_ps * vdd.get() / (self.on_current(vdd, vth) * kappa)
    }

    /// [`gate_delay_ps`](TechModel::gate_delay_ps) over per-gate variation
    /// vectors: `out[i]` is the delay of the gate with random offsets
    /// `(dvth[i], ln_k[i])` on chip `chip`.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, or if they are non-empty and
    /// `vdd` is outside the supported range.
    pub fn gate_delay_ps_batch(
        &self,
        vdd: Volts,
        chip: &ChipSample,
        dvth: &[Volts],
        ln_k: &[f64],
        out: &mut [f64],
    ) {
        assert_eq!(dvth.len(), out.len(), "batch kernel length mismatch");
        assert_eq!(ln_k.len(), out.len(), "batch kernel length mismatch");
        for ((o, &dvth), &ln_k) in out.iter_mut().zip(dvth).zip(ln_k) {
            *o = self.gate_delay_ps(vdd, chip, &GateSample { dvth, ln_k });
        }
    }

    /// Delay of a varied device given an explicit conditioning chip and a
    /// *specific* random ΔVth / ln-k pair. Used by the quadrature engine.
    #[must_use]
    pub fn gate_delay_ps_at(
        &self,
        vdd: Volts,
        chip: &ChipSample,
        dvth_rand: Volts,
        ln_k_rand: f64,
    ) -> f64 {
        self.gate_delay_ps(
            vdd,
            chip,
            &GateSample {
                dvth: dvth_rand,
                ln_k: ln_k_rand,
            },
        )
    }

    /// First-order delay sensitivity `S(V) = −∂ ln D / ∂ Vth` (1/V) at the
    /// nominal threshold.
    ///
    /// Grows steeply as `vdd` approaches `Vth` — the root cause of
    /// near-threshold delay variability (paper §3).
    #[must_use]
    // ntv:allow(bare-unit): the return is a log-sensitivity in 1/V, not a voltage
    pub fn delay_vth_sensitivity(&self, vdd: Volts) -> f64 {
        self.assert_voltage(vdd);
        let p = &self.params;
        let denom = p.alpha * p.slope_n * THERMAL_VOLTAGE;
        let x = (vdd - p.vth0) / denom;
        // d lnD/dVth = α/denom · sigmoid(x)/softplus(x)
        let sig = 1.0 / (1.0 + (-x).exp());
        p.alpha / denom.get() * (sig / softplus(x))
    }

    /// Which operating region `vdd` falls in for this node.
    ///
    /// Near-threshold is taken as `Vth − 50 mV .. Vth + 250 mV`, matching
    /// the 0.4–0.65 V band the paper treats as NTV for these nodes.
    #[must_use]
    pub fn region(&self, vdd: Volts) -> OperatingRegion {
        self.assert_voltage(vdd);
        if vdd < self.params.vth0 - Volts(0.05) {
            OperatingRegion::SubThreshold
        } else if vdd < self.params.vth0 + Volts(0.25) {
            OperatingRegion::NearThreshold
        } else {
            OperatingRegion::SuperThreshold
        }
    }

    /// Draw one chip's total systematic variation (what a single-region
    /// circuit such as a chain or adder experiences).
    pub fn sample_chip(&self, rng: &mut CounterDraws) -> ChipSample {
        variation::sample_chip(&self.params, rng)
    }

    /// Draw the chip-global share of systematic variation (see
    /// [`crate::variation::sample_chip_global`]).
    pub fn sample_chip_global(&self, rng: &mut CounterDraws) -> ChipSample {
        variation::sample_chip_global(&self.params, rng)
    }

    /// Draw one lane's regional variation offset.
    pub fn sample_region(&self, rng: &mut CounterDraws) -> RegionSample {
        variation::sample_region(&self.params, rng)
    }

    /// Draw one device's random variation.
    pub fn sample_gate(&self, rng: &mut CounterDraws) -> GateSample {
        variation::sample_gate(&self.params, rng)
    }

    /// First-order delay multiplier for a lane with regional offset
    /// `region`: `exp(S(vdd)·ΔVth − ln_k)`.
    ///
    /// Regional offsets are a fraction of the (already small) systematic σ,
    /// so the linearized exponent is accurate to well below Monte-Carlo
    /// noise; it lets the architecture engine scale conditional path
    /// moments per lane without re-running quadrature.
    #[must_use]
    pub fn region_delay_factor(&self, vdd: Volts, region: &RegionSample) -> f64 {
        (self.delay_vth_sensitivity(vdd) * region.dvth.get() - region.ln_k).exp()
    }
}

/// Numerically-stable `ln(1 + eˣ)`.
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else if x < -30.0 {
        x.exp()
    } else {
        x.exp().ln_1p()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softplus_limits() {
        assert!((softplus(40.0) - 40.0).abs() < 1e-12);
        assert!(softplus(-40.0) > 0.0);
        assert!((softplus(0.0) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn delay_decreases_with_voltage() {
        for node in TechNode::ALL {
            let tech = TechModel::new(node);
            let mut prev = f64::INFINITY;
            let mut v = 0.35;
            while v <= tech.nominal_vdd().get() + 1e-9 {
                let d = tech.fo4_delay_ps(Volts(v));
                assert!(d < prev, "{node}: delay not monotone at {v} V");
                prev = d;
                v += 0.05;
            }
        }
    }

    #[test]
    fn chain_delay_matches_paper_90nm() {
        let tech = TechModel::new(TechNode::Gp90);
        let chain_ns_05 = 50.0 * tech.fo4_delay_ps(Volts(0.5)) / 1000.0;
        let chain_ns_06 = 50.0 * tech.fo4_delay_ps(Volts(0.6)) / 1000.0;
        // Paper §3.2: 22.05 ns @0.5 V, 8.99 ns @0.6 V. Allow ±15 %.
        assert!(
            (chain_ns_05 / 22.05 - 1.0).abs() < 0.15,
            "0.5 V: {chain_ns_05} ns"
        );
        assert!(
            (chain_ns_06 / 8.99 - 1.0).abs() < 0.15,
            "0.6 V: {chain_ns_06} ns"
        );
    }

    #[test]
    fn sensitivity_explodes_near_threshold() {
        for node in TechNode::ALL {
            let tech = TechModel::new(node);
            let s_nom = tech.delay_vth_sensitivity(tech.nominal_vdd());
            let s_ntv = tech.delay_vth_sensitivity(Volts(0.5));
            assert!(s_ntv > 3.0 * s_nom, "{node}: {s_ntv} vs {s_nom}");
        }
    }

    #[test]
    fn sensitivity_matches_finite_difference() {
        let tech = TechModel::new(TechNode::Gp90);
        for &v in &[0.5, 0.6, 0.8, 1.0] {
            let h = 1e-6;
            let v = Volts(v);
            let d0 = tech.params().delay_scale_ps * v.get()
                / tech.on_current(v, tech.params().vth0 - Volts(h));
            let d1 = tech.params().delay_scale_ps * v.get()
                / tech.on_current(v, tech.params().vth0 + Volts(h));
            let num = (d1.ln() - d0.ln()) / (2.0 * h);
            let ana = tech.delay_vth_sensitivity(v);
            assert!((num - ana).abs() / ana < 1e-5, "v={v}: {num} vs {ana}");
        }
    }

    #[test]
    fn higher_vth_means_slower_gate() {
        let tech = TechModel::new(TechNode::Gp45);
        let chip = ChipSample::nominal();
        let slow = GateSample {
            dvth: Volts(0.03),
            ln_k: 0.0,
        };
        let fast = GateSample {
            dvth: Volts(-0.03),
            ln_k: 0.0,
        };
        let d_slow = tech.gate_delay_ps(Volts(0.55), &chip, &slow);
        let d_fast = tech.gate_delay_ps(Volts(0.55), &chip, &fast);
        let d_nom = tech.gate_delay_ps(Volts(0.55), &chip, &GateSample::nominal());
        assert!(d_slow > d_nom && d_nom > d_fast);
        assert!((d_nom - tech.fo4_delay_ps(Volts(0.55))).abs() < 1e-9);
    }

    #[test]
    fn current_factor_scales_delay_exactly() {
        let tech = TechModel::new(TechNode::PtmHp32);
        let chip = ChipSample::nominal();
        let g = GateSample {
            dvth: Volts::ZERO,
            ln_k: 0.2,
        };
        let ratio = tech.gate_delay_ps(Volts(0.6), &chip, &g) / tech.fo4_delay_ps(Volts(0.6));
        assert!((ratio - (-0.2_f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn regions_are_ordered() {
        let tech = TechModel::new(TechNode::Gp90);
        assert_eq!(tech.region(Volts(0.3)), OperatingRegion::SubThreshold);
        assert_eq!(tech.region(Volts(0.5)), OperatingRegion::NearThreshold);
        assert_eq!(tech.region(Volts(1.0)), OperatingRegion::SuperThreshold);
    }

    #[test]
    fn nominal_fo4_delays_are_plausible() {
        // FO4 at nominal voltage should be tens of ps and shrink with node.
        let d: Vec<f64> = TechNode::ALL
            .iter()
            .map(|&n| {
                let t = TechModel::new(n);
                t.fo4_delay_ps(t.nominal_vdd())
            })
            .collect();
        assert!(d[0] > d[1] && d[1] > d[2] && d[2] > d[3], "{d:?}");
        assert!(d[0] < 100.0 && d[3] > 5.0);
    }

    #[test]
    #[should_panic(expected = "batch kernel length mismatch")]
    fn batch_kernels_reject_length_mismatch() {
        let tech = TechModel::new(TechNode::Gp90);
        let mut out = [0.0; 2];
        tech.gate_delay_ps_batch(
            Volts(0.5),
            &ChipSample::nominal(),
            &[Volts(0.01)],
            &[0.0],
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "outside the supported range")]
    fn absurd_voltage_rejected() {
        let tech = TechModel::new(TechNode::Gp90);
        let _ = tech.fo4_delay_ps(Volts(5.0));
    }
}
