//! Batch EKV kernels: structure-of-arrays evaluation of gate delay over
//! per-gate variation vectors and voltage grids.
//!
//! Every kernel in this module is a *loop-interchanged* form of the scalar
//! methods on [`TechModel`]: loop-invariant pure subexpressions (the EKV
//! slope denominator, the composed chip threshold, the current factor
//! `exp(ln k)`, the delay numerator) are hoisted — computing the same
//! value by the same operations once instead of per element — and the
//! remaining per-element work runs in a fixed-stride loop with no
//! cross-element dependence. Division stays division and no sums are
//! reassociated, so every output is **bit-identical** to the scalar call
//! it replaces; the tests in this module pin that by `to_bits`.
//!
//! The slices are plain `f64`-width lanes (`Volts` is a transparent f64
//! newtype), so the loops are amenable to autovectorization;
//! transcendentals (`powf`, `exp`) dominate them and stay scalar per
//! element.

use ntv_units::Volts;

use crate::model::{softplus, TechModel};
use crate::params::THERMAL_VOLTAGE;
use crate::variation::{ChipSample, GateSample};

impl TechModel {
    /// Batch [`gate_delay_ps`](TechModel::gate_delay_ps) over per-gate
    /// variation vectors (SoA): `out[i]` is the delay of the gate with
    /// random offsets `(dvth[i], ln_k[i])` on chip `chip`, bit-identical
    /// to the scalar call per gate.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is outside the supported range or the slices differ
    /// in length.
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
        self.assert_voltage(vdd);
        let p = self.params();
        let denom = p.alpha * p.slope_n * THERMAL_VOLTAGE;
        let vth_chip = p.vth0 + chip.dvth;
        let num = p.delay_scale_ps * vdd.get();
        for i in 0..out.len() {
            let vth = vth_chip + dvth[i];
            let kappa = (chip.ln_k + ln_k[i]).exp();
            let x = (vdd - vth) / denom;
            out[i] = num / (softplus(x).powf(p.alpha) * kappa);
        }
    }

    /// Batch [`gate_delay_ps_at`](TechModel::gate_delay_ps_at) over a
    /// random-ΔVth vector with one shared random ln-k:
    /// `out[i] = self.gate_delay_ps_at(vdd, chip, dvth_rand[i], ln_k_rand)`,
    /// bit-identical. This is the quadrature engine's shape — Gauss–Hermite
    /// nodes sweep ΔVth while ln-k is integrated analytically.
    ///
    /// # Panics
    ///
    /// Panics if `vdd` is outside the supported range or the slices differ
    /// in length.
    pub fn gate_delay_ps_dvth_batch(
        &self,
        vdd: Volts,
        chip: &ChipSample,
        dvth_rand: &[Volts],
        ln_k_rand: f64,
        out: &mut [f64],
    ) {
        assert_eq!(dvth_rand.len(), out.len(), "batch kernel length mismatch");
        self.assert_voltage(vdd);
        let p = self.params();
        let denom = p.alpha * p.slope_n * THERMAL_VOLTAGE;
        let vth_chip = p.vth0 + chip.dvth;
        let kappa = (chip.ln_k + ln_k_rand).exp();
        let num = p.delay_scale_ps * vdd.get();
        for (o, &dv) in out.iter_mut().zip(dvth_rand) {
            let vth = vth_chip + dv;
            let x = (vdd - vth) / denom;
            *o = num / (softplus(x).powf(p.alpha) * kappa);
        }
    }

    /// Batch [`gate_delay_ps`](TechModel::gate_delay_ps) over a voltage
    /// grid for one fixed gate: `out[i] = self.gate_delay_ps(vdds[i],
    /// chip, gate)`, bit-identical. This is the operating-point
    /// prefetch shape — one conditioning sample, many supply voltages.
    ///
    /// # Panics
    ///
    /// Panics if any voltage is outside the supported range or the slices
    /// differ in length.
    pub fn gate_delay_ps_grid(
        &self,
        vdds: &[Volts],
        chip: &ChipSample,
        gate: &GateSample,
        out: &mut [f64],
    ) {
        assert_eq!(vdds.len(), out.len(), "batch kernel length mismatch");
        let p = self.params();
        let denom = p.alpha * p.slope_n * THERMAL_VOLTAGE;
        let vth = p.vth0 + chip.dvth + gate.dvth;
        let kappa = (chip.ln_k + gate.ln_k).exp();
        for (o, &vdd) in out.iter_mut().zip(vdds) {
            self.assert_voltage(vdd);
            let x = (vdd - vth) / denom;
            *o = p.delay_scale_ps * vdd.get() / (softplus(x).powf(p.alpha) * kappa);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::node::TechNode;
    use crate::variation::{ChipSample, GateSample};
    use crate::TechModel;
    use ntv_units::Volts;

    fn chips() -> Vec<ChipSample> {
        vec![
            ChipSample::nominal(),
            ChipSample {
                dvth: Volts(0.017),
                ln_k: -0.08,
            },
            ChipSample {
                dvth: Volts(-0.009),
                ln_k: 0.05,
            },
        ]
    }

    #[test]
    fn gate_delay_batches_match_scalar_bitwise() {
        for node in [TechNode::Gp90, TechNode::PtmHp22] {
            let tech = TechModel::new(node);
            for chip in &chips() {
                let dvth: Vec<Volts> = (0..17)
                    .map(|i| Volts(0.012 * f64::from(i - 8) / 8.0))
                    .collect();
                let ln_k: Vec<f64> = (0..17).map(|i| 0.07 * f64::from(i - 5) / 5.0).collect();
                let vdd = Volts(0.5);

                let mut out = vec![0.0; dvth.len()];
                tech.gate_delay_ps_batch(vdd, chip, &dvth, &ln_k, &mut out);
                for i in 0..dvth.len() {
                    let gate = GateSample {
                        dvth: dvth[i],
                        ln_k: ln_k[i],
                    };
                    assert_eq!(
                        out[i].to_bits(),
                        tech.gate_delay_ps(vdd, chip, &gate).to_bits(),
                        "{node} SoA i={i}"
                    );
                }

                tech.gate_delay_ps_dvth_batch(vdd, chip, &dvth, 0.0, &mut out);
                for i in 0..dvth.len() {
                    assert_eq!(
                        out[i].to_bits(),
                        tech.gate_delay_ps_at(vdd, chip, dvth[i], 0.0).to_bits(),
                        "{node} dvth i={i}"
                    );
                }
            }
        }
    }

    #[test]
    fn voltage_grid_kernels_match_scalar_bitwise() {
        let tech = TechModel::new(TechNode::PtmHp32);
        let chip = ChipSample {
            dvth: Volts(0.011),
            ln_k: -0.03,
        };
        let gate = GateSample {
            dvth: Volts(-0.006),
            ln_k: 0.02,
        };
        let vdds: Vec<Volts> = (0..29).map(|i| Volts(0.4 + 0.02 * f64::from(i))).collect();
        let mut out = vec![0.0; vdds.len()];

        tech.gate_delay_ps_grid(&vdds, &chip, &gate, &mut out);
        for (i, &v) in vdds.iter().enumerate() {
            assert_eq!(
                out[i].to_bits(),
                tech.gate_delay_ps(v, &chip, &gate).to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "batch kernel length mismatch")]
    fn batch_kernels_reject_length_mismatch() {
        let tech = TechModel::new(TechNode::Gp90);
        let mut out = [0.0; 2];
        tech.gate_delay_ps_dvth_batch(
            Volts(0.5),
            &ChipSample::nominal(),
            &[Volts(0.01)],
            0.0,
            &mut out,
        );
    }

    #[test]
    #[should_panic(expected = "outside the supported range")]
    fn grid_kernels_validate_every_voltage() {
        let tech = TechModel::new(TechNode::Gp90);
        let mut out = [0.0; 2];
        tech.gate_delay_ps_grid(
            &[Volts(0.5), Volts(3.0)],
            &ChipSample::nominal(),
            &GateSample::nominal(),
            &mut out,
        );
    }
}
