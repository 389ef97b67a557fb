//! Switching + leakage energy model (paper §2, Appendix A / Fig 9).
//!
//! Energy per operation at supply `V` is modelled as
//!
//! ```text
//! E(V) = E_switch(V) + E_leak(V)
//!      = C_sw · V²  +  I_leak(V) · V · D_op(V)
//!      = C_sw · V² · (1 + I_leak(V) / I_on(V))
//! ```
//!
//! where the second form follows because the operation delay is
//! `D_op ∝ V / I_on(V)`. The leakage current `I_leak ∝ exp(η·V/(n·φt))`
//! (sub-threshold off-current with DIBL; the `exp(−Vth/(n·φt))` factor and
//! the idle-device width multiplier are folded into the `leak_i0`
//! calibration constant). Because `I_on` collapses exponentially below
//! threshold while `I_leak` only shrinks slowly, the leakage *energy* rises
//! near-exponentially in deep sub-threshold, producing the energy
//! **minimum** of Fig 9 below `Vth`; near-threshold operation sits just
//! above it, trading ≈2× energy for ≈10× performance versus the
//! minimum-energy point.

use ntv_units::Volts;

use crate::model::TechModel;
use crate::params::THERMAL_VOLTAGE;

/// Number of FO4 stages in the reference operation (the paper's critical
/// path: a chain of 50 FO4 inverters).
pub const OP_CHAIN_LENGTH: usize = 50;

/// One point of an energy/delay sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyPoint {
    /// Supply voltage.
    pub vdd: Volts,
    /// Switching energy per op (fJ).
    pub switching_fj: f64,
    /// Leakage energy per op (fJ).
    pub leakage_fj: f64,
    /// Total energy per op (fJ).
    pub total_fj: f64,
    /// Operation delay (ns).
    pub delay_ns: f64,
}

/// Energy queries on a [`TechModel`].
///
/// # Example
///
/// ```
/// use ntv_device::{TechModel, TechNode};
/// use ntv_device::energy::EnergyModel;
/// use ntv_units::Volts;
///
/// let tech = TechModel::new(TechNode::Gp90);
/// let energy = EnergyModel::new(&tech);
/// // Near-threshold operation saves substantial energy vs nominal.
/// let nominal = energy.point(Volts(1.0)).total_fj;
/// let ntv = energy.point(Volts(0.5)).total_fj;
/// assert!(nominal / ntv > 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyModel<'a> {
    tech: &'a TechModel,
}

impl<'a> EnergyModel<'a> {
    /// Attach an energy model to a technology model.
    #[must_use]
    pub fn new(tech: &'a TechModel) -> Self {
        Self { tech }
    }

    /// Normalized leakage current at supply `vdd` (same units as
    /// [`TechModel::on_current`]; the `exp(−Vth/(n·φt))` off-state factor and
    /// the idle-width multiplier are folded into `leak_i0`).
    #[must_use]
    pub fn leakage_current(&self, vdd: Volts) -> f64 {
        let p = self.tech.params();
        p.leak_i0 * (p.dibl * vdd / (p.slope_n * THERMAL_VOLTAGE)).exp()
    }

    /// Per-operation delay (ns): the 50-stage reference critical path.
    #[must_use]
    pub fn op_delay_ns(&self, vdd: Volts) -> f64 {
        OP_CHAIN_LENGTH as f64 * self.tech.fo4_delay_ps(vdd) / 1000.0
    }

    /// Full energy breakdown at `vdd`.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is outside the supported `(0.05, 2.0)` V range.
    #[must_use]
    pub fn point(&self, vdd: Volts) -> EnergyPoint {
        let p = self.tech.params();
        let switching_fj = p.switch_cap_fj * vdd.get() * vdd.get() * OP_CHAIN_LENGTH as f64;
        let delay_ns = self.op_delay_ns(vdd);
        // I_leak·V·D_op in the same fJ units as switching: D_op ∝ V/I_on
        // with the C/I scale already inside switch_cap_fj, so
        // E_leak = E_switch · I_leak/I_on.
        let i_on = self.tech.on_current(vdd, p.vth0);
        let leakage_fj = switching_fj * self.leakage_current(vdd) / i_on;
        EnergyPoint {
            vdd,
            switching_fj,
            leakage_fj,
            total_fj: switching_fj + leakage_fj,
            delay_ns,
        }
    }

    /// Sweep `[v_lo, v_hi]` in `steps` uniform increments (Fig 9 series).
    ///
    /// # Panics
    ///
    /// Panics if `steps < 2` or the range is empty/invalid.
    #[must_use]
    pub fn sweep(&self, v_lo: Volts, v_hi: Volts, steps: usize) -> Vec<EnergyPoint> {
        assert!(steps >= 2, "a sweep needs at least two points");
        assert!(v_lo < v_hi, "invalid sweep range [{v_lo}, {v_hi}]");
        (0..steps)
            .map(|i| {
                let v = v_lo + (v_hi - v_lo) * i as f64 / (steps - 1) as f64;
                self.point(v)
            })
            .collect()
    }

    /// The minimum-energy operating point, found by golden-section search
    /// over `[0.1 V, nominal]`.
    ///
    /// Lands in the sub-threshold region for every calibrated node, as in
    /// Fig 9.
    #[must_use]
    pub fn minimum_energy_point(&self) -> EnergyPoint {
        let (mut a, mut b) = (Volts(0.1), self.tech.nominal_vdd());
        const PHI: f64 = 0.618_033_988_749_895;
        let mut c = b - PHI * (b - a);
        let mut d = a + PHI * (b - a);
        for _ in 0..80 {
            if self.point(c).total_fj < self.point(d).total_fj {
                b = d;
            } else {
                a = c;
            }
            c = b - PHI * (b - a);
            d = a + PHI * (b - a);
        }
        self.point(0.5 * (a + b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::OperatingRegion;
    use crate::node::TechNode;

    #[test]
    fn energy_minimum_is_subthreshold() {
        for node in TechNode::ALL {
            let tech = TechModel::new(node);
            let e = EnergyModel::new(&tech);
            let min = e.minimum_energy_point();
            assert!(
                min.vdd < tech.params().vth0,
                "{node}: Emin at {} but Vth = {}",
                min.vdd,
                tech.params().vth0
            );
            assert_eq!(tech.region(min.vdd), OperatingRegion::SubThreshold);
        }
    }

    #[test]
    fn near_threshold_energy_tradeoff_matches_fig9() {
        // Paper: scaling from sub-threshold minimum up to NTV costs ~2x
        // energy but buys ~6-10x performance; NTV vs nominal saves large
        // energy at ~10x performance cost.
        let tech = TechModel::new(TechNode::Gp90);
        let e = EnergyModel::new(&tech);
        let min = e.minimum_energy_point();
        let ntv = e.point(Volts(0.5));
        let nominal = e.point(Volts(1.0));

        let energy_ratio_ntv_vs_min = ntv.total_fj / min.total_fj;
        assert!(
            energy_ratio_ntv_vs_min > 1.0 && energy_ratio_ntv_vs_min < 3.5,
            "NTV/min energy ratio {energy_ratio_ntv_vs_min}"
        );
        let speedup_ntv_vs_min = min.delay_ns / ntv.delay_ns;
        assert!(
            speedup_ntv_vs_min > 4.0,
            "NTV vs min speedup {speedup_ntv_vs_min}"
        );

        let energy_saving = nominal.total_fj / ntv.total_fj;
        assert!(energy_saving > 3.0, "nominal/NTV energy {energy_saving}");
        let slowdown = ntv.delay_ns / nominal.delay_ns;
        assert!(slowdown > 4.0 && slowdown < 25.0, "NTV slowdown {slowdown}");
    }

    #[test]
    fn switching_energy_is_quadratic_in_v() {
        let tech = TechModel::new(TechNode::Gp45);
        let e = EnergyModel::new(&tech);
        let r = e.point(Volts(1.0)).switching_fj / e.point(Volts(0.5)).switching_fj;
        assert!((r - 4.0).abs() < 1e-9);
    }

    #[test]
    fn leakage_energy_dominates_in_deep_subthreshold() {
        let tech = TechModel::new(TechNode::PtmHp22);
        let e = EnergyModel::new(&tech);
        let deep = e.point(Volts(0.18));
        assert!(deep.leakage_fj > deep.switching_fj);
        let nominal = e.point(tech.nominal_vdd());
        assert!(nominal.switching_fj > nominal.leakage_fj);
    }

    #[test]
    fn sweep_is_ordered_and_consistent() {
        let tech = TechModel::new(TechNode::Gp90);
        let e = EnergyModel::new(&tech);
        let pts = e.sweep(Volts(0.2), Volts(1.0), 17);
        assert_eq!(pts.len(), 17);
        for w in pts.windows(2) {
            assert!(w[1].vdd > w[0].vdd);
            // Delay decreases monotonically with voltage.
            assert!(w[1].delay_ns < w[0].delay_ns);
        }
        for p in &pts {
            assert!((p.total_fj - p.switching_fj - p.leakage_fj).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn sweep_rejects_single_point() {
        let tech = TechModel::new(TechNode::Gp90);
        let _ = EnergyModel::new(&tech).sweep(Volts(0.2), Volts(1.0), 1);
    }
}
