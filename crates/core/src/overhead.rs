//! Diet SODA area/power budget for overhead accounting.
//!
//! The paper reports overheads "based on Diet SODA \[4\]" without printing
//! the underlying budget, but Tables 1–2 let us back-derive it:
//!
//! * **FU array area fraction 0.578** — Table 1 caps area overhead at
//!   ">57.8 %" for >128 spares (i.e. doubling the FU array) and lists
//!   2.6 % / 0.9 % / 0.4 % for 6 / 2 / 1 spares, all equal to
//!   `0.578·α/128`.
//! * **Duplication power = 9.1 %·(α/128) + 5.3 %·((1+α/128)² − 1)** — a
//!   linear routing term plus a quadratic SIMD-shuffle-network (crossbar)
//!   term; fits Table 1's 4.6 % @28, 1.0 % @6, 0.3 % @2 and the 25 % cap
//!   at α = 128.
//! * **NTV-domain power fraction 0.43** — every Table 2 entry matches
//!   `0.43·((1+Vm/V)² − 1)` to ≤0.2 pp: only the near-threshold voltage
//!   domain (SIMD datapath; ~43 % of PE power) pays the margin, the
//!   full-voltage memory system does not.

use ntv_units::Volts;

/// Area/power budget of the Diet SODA processing element.
///
/// # Example
///
/// ```
/// use ntv_units::Volts;
///
/// let budget = ntv_core::DietSodaBudget::paper();
/// // Table 1, 90nm @0.55V: 6 spares -> 2.6% area, 1.0% power.
/// assert!((budget.duplication_area_overhead(6) - 0.026).abs() < 0.002);
/// assert!((budget.duplication_power_overhead(6) - 0.010).abs() < 0.002);
/// // Table 2, 90nm @0.50V: 5.8mV margin -> 1.0% power.
/// assert!((budget.margin_power_overhead(Volts(0.5), Volts(5.8e-3)) - 0.010).abs() < 0.002);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DietSodaBudget {
    /// Fraction of PE area occupied by the SIMD FU array.
    pub fu_area_fraction: f64,
    /// Power fraction of lane-proportional routing (linear in spares).
    pub routing_power_fraction: f64,
    /// Power fraction of the SIMD shuffle network (quadratic in width).
    pub ssn_power_fraction: f64,
    /// Fraction of PE power drawn by the near-threshold voltage domain.
    pub ntv_power_fraction: f64,
    /// Baseline lane count the fractions are normalized to.
    pub baseline_lanes: usize,
}

impl DietSodaBudget {
    /// The budget back-derived from the paper's Tables 1–2.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            fu_area_fraction: 0.578,
            routing_power_fraction: 0.091,
            ssn_power_fraction: 0.053,
            ntv_power_fraction: 0.43,
            baseline_lanes: 128,
        }
    }

    /// Area overhead of α spare lanes (fraction of PE area).
    #[must_use]
    pub fn duplication_area_overhead(&self, spares: u32) -> f64 {
        self.fu_area_fraction * f64::from(spares) / self.baseline_lanes as f64
    }

    /// Power overhead of α spare lanes (fraction of PE power).
    ///
    /// Spare FUs are power-gated at run time (they were identified faulty at
    /// test time), so the cost is enlarged routing (linear) plus the wider
    /// XRAM shuffle network operating at nominal voltage (quadratic).
    #[must_use]
    pub fn duplication_power_overhead(&self, spares: u32) -> f64 {
        let r = f64::from(spares) / self.baseline_lanes as f64;
        self.routing_power_fraction * r + self.ssn_power_fraction * ((1.0 + r).powi(2) - 1.0)
    }

    /// Power overhead of raising the NTV-domain supply from `vdd` to
    /// `vdd + margin` (fraction of PE power).
    ///
    /// # Panics
    ///
    /// Panics if `vdd <= 0` or `margin < 0`.
    #[must_use]
    pub fn margin_power_overhead(&self, vdd: Volts, margin: Volts) -> f64 {
        assert!(vdd > Volts::ZERO, "supply voltage must be positive");
        assert!(margin >= Volts::ZERO, "voltage margin cannot be negative");
        let ratio = (vdd + margin) / vdd;
        self.ntv_power_fraction * (ratio * ratio - 1.0)
    }

    /// Combined overhead of α spares plus a voltage margin (Table 3 rows).
    #[must_use]
    pub fn combined_power_overhead(&self, spares: u32, vdd: Volts, margin: Volts) -> f64 {
        self.duplication_power_overhead(spares) + self.margin_power_overhead(vdd, margin)
    }
}

impl Default for DietSodaBudget {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_area_entries_reproduce() {
        let b = DietSodaBudget::paper();
        // (spares, paper area overhead)
        for (s, want) in [(28, 0.126), (6, 0.026), (2, 0.009), (1, 0.004)] {
            let got = b.duplication_area_overhead(s);
            assert!((got - want).abs() < 0.002, "{s} spares: {got} vs {want}");
        }
        // >128 spares -> >57.8%.
        assert!((b.duplication_area_overhead(128) - 0.578).abs() < 1e-12);
    }

    #[test]
    fn table1_power_entries_reproduce() {
        let b = DietSodaBudget::paper();
        for (s, want) in [(28u32, 0.046), (6, 0.010), (2, 0.003), (1, 0.002)] {
            let got = b.duplication_power_overhead(s);
            assert!((got - want).abs() < 0.002, "{s} spares: {got} vs {want}");
        }
        // 128 spares -> ~25%.
        assert!((b.duplication_power_overhead(128) - 0.25).abs() < 0.01);
    }

    #[test]
    fn table2_power_entries_reproduce() {
        let b = DietSodaBudget::paper();
        // (vdd, margin mV, paper power overhead) across all four nodes.
        let cases = [
            (0.50, 5.8, 0.010),
            (0.50, 19.6, 0.033),
            (0.50, 12.1, 0.020),
            (0.50, 16.4, 0.028),
            (0.60, 2.9, 0.004),
            (0.70, 12.8, 0.015),
            (0.65, 8.9, 0.011),
        ];
        for (vdd, mv, want) in cases {
            let got = b.margin_power_overhead(Volts(vdd), Volts(mv / 1000.0));
            assert!(
                (got - want).abs() < 0.003,
                "{vdd}V +{mv}mV: {got} vs {want}"
            );
        }
    }

    #[test]
    fn overheads_are_monotone() {
        let b = DietSodaBudget::paper();
        for s in 1..200 {
            assert!(b.duplication_power_overhead(s) > b.duplication_power_overhead(s - 1));
            assert!(b.duplication_area_overhead(s) > b.duplication_area_overhead(s - 1));
        }
        assert!(
            b.margin_power_overhead(Volts(0.6), Volts(0.02))
                > b.margin_power_overhead(Volts(0.6), Volts(0.01))
        );
    }

    #[test]
    fn zero_mitigation_costs_nothing() {
        let b = DietSodaBudget::paper();
        assert_eq!(b.duplication_area_overhead(0), 0.0);
        assert_eq!(b.duplication_power_overhead(0), 0.0);
        assert_eq!(b.margin_power_overhead(Volts(0.6), Volts::ZERO), 0.0);
        assert_eq!(b.combined_power_overhead(0, Volts(0.6), Volts::ZERO), 0.0);
    }

    #[test]
    fn combined_is_sum() {
        let b = DietSodaBudget::paper();
        let got = b.combined_power_overhead(2, Volts(0.6), Volts(0.010));
        let want =
            b.duplication_power_overhead(2) + b.margin_power_overhead(Volts(0.6), Volts(0.010));
        assert!((got - want).abs() < 1e-12);
    }
}
