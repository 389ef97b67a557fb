//! Calibration targets published in the paper.
//!
//! These constants are the numbers the paper prints in Fig 1/2 and §3, used
//! by calibration tests (with generous tolerances — our device model is an
//! analytical surrogate, and the reproduction brief is *shape*, not
//! decimals) and by the `ntv-bench` EXPERIMENTS report, which records
//! paper-vs-measured side by side.

use crate::node::TechNode;

/// A `(vdd, three_sigma_over_mu)` pair; the ratio is a fraction (0.3549 =
/// "35.49 %" in the paper's annotation).
pub type VariationTarget = (f64, f64);

/// Fig 1(a): single 90 nm GP inverter, cross-chip delay variation.
pub const FIG1_SINGLE_INVERTER_90NM: [VariationTarget; 6] = [
    (1.0, 0.1558),
    (0.9, 0.1570),
    (0.8, 0.1629),
    (0.7, 0.1774),
    (0.6, 0.2225),
    (0.5, 0.3549),
];

/// Fig 1(b): chain of 50 FO4 inverters, 90 nm GP.
pub const FIG1_CHAIN50_90NM: [VariationTarget; 6] = [
    (1.0, 0.0576),
    (0.9, 0.0584),
    (0.8, 0.0596),
    (0.7, 0.0617),
    (0.6, 0.0681),
    (0.5, 0.0943),
];

/// §3.2: absolute delay of the 50-FO4 chain at 0.5 V (ns), 90 nm GP.
pub const CHAIN50_DELAY_NS_90NM_05V: f64 = 22.05;

/// §3.2: absolute delay of the 50-FO4 chain at 0.6 V (ns), 90 nm GP.
pub const CHAIN50_DELAY_NS_90NM_06V: f64 = 8.99;

/// Fig 2 (as stated in §3.1 prose): chain-of-50 3σ/μ for 22 nm PTM HP at
/// its nominal 0.8 V and at 0.5 V.
pub const FIG2_CHAIN50_22NM: [VariationTarget; 2] = [(0.8, 0.11), (0.5, 0.25)];

/// §3.1: the 22 nm chain-of-50 variation at 0.55 V is ≈2.5× the 90 nm one.
pub const CHAIN50_22NM_OVER_90NM_AT_055V: f64 = 2.5;

/// §3.1 (citing Drego et al. \[7\]): a 64-bit Kogge–Stone adder shows ≈8.4 %
/// delay variation (3σ/μ) at 0.5 V — same order as the chain of 50.
pub const KOGGE_STONE_64B_3SIGMA_05V: f64 = 0.084;

/// Fig 4 (90 nm GP): 128-wide performance drop at 0.5/0.55/0.6 V.
pub const FIG4_PERF_DROP_90NM: [(f64, f64); 3] = [(0.5, 0.05), (0.55, 0.025), (0.6, 0.015)];

/// Fig 4 / §3.2 prose: 22 nm PTM HP performance drop at 0.5 V (≈18–20 %).
pub const FIG4_PERF_DROP_22NM_05V: f64 = 0.18;

/// Table 1 (90 nm GP): required spares at 0.50–0.70 V.
pub const TABLE1_SPARES_90NM: [(f64, u32); 5] =
    [(0.50, 28), (0.55, 6), (0.60, 2), (0.65, 1), (0.70, 1)];

/// Table 2: required voltage margin (mV) per node at 0.50–0.70 V.
///
/// Rows are voltages 0.50, 0.55, 0.60, 0.65, 0.70; columns the margin in
/// millivolts for (90 nm, 45 nm, 32 nm, 22 nm).
pub const TABLE2_MARGIN_MV: [(f64, [f64; 4]); 5] = [
    (0.50, [5.8, 19.6, 12.1, 16.4]),
    (0.55, [4.1, 18.2, 11.1, 17.6]),
    (0.60, [2.9, 16.2, 10.4, 11.1]),
    (0.65, [2.2, 14.0, 8.9, 11.5]),
    (0.70, [1.7, 12.8, 7.7, 9.6]),
];

/// Table 3 (45 nm, 128-wide @600 mV): (spares, margin mV, power overhead).
pub const TABLE3_DESIGN_CHOICES: [(u32, f64, f64); 5] = [
    (26, 0.0, 0.043),
    (8, 5.0, 0.020),
    (2, 10.0, 0.017),
    (1, 15.0, 0.023),
    (0, 17.0, 0.024),
];

/// Index of a node in per-node target arrays (paper column order).
#[must_use]
pub fn node_index(node: TechNode) -> usize {
    match node {
        TechNode::Gp90 => 0,
        TechNode::Gp45 => 1,
        TechNode::PtmHp32 => 2,
        TechNode::PtmHp22 => 3,
    }
}

/// Relative error `|got − want| / want`.
///
/// # Panics
///
/// Panics if `want == 0`.
#[must_use]
// ntv:allow(test-only-api): crates/circuit/tests/calibration.rs and fig1's unit tests score measured values against these targets with it
pub fn relative_error(got: f64, want: f64) -> f64 {
    assert!(
        want != 0.0,
        "relative error against zero target is undefined"
    );
    (got - want).abs() / want.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_are_internally_consistent() {
        // Chain variation is always far below single-gate variation.
        for (a, b) in FIG1_SINGLE_INVERTER_90NM.iter().zip(&FIG1_CHAIN50_90NM) {
            assert_eq!(a.0, b.0);
            assert!(a.1 > 2.0 * b.1);
        }
        // Variation increases monotonically as voltage drops.
        for w in FIG1_SINGLE_INVERTER_90NM.windows(2) {
            assert!(w[1].1 > w[0].1);
        }
    }

    #[test]
    fn node_index_covers_all() {
        let mut seen = [false; 4];
        for node in TechNode::ALL {
            seen[node_index(node)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn relative_error_basics() {
        assert!((relative_error(11.0, 10.0) - 0.1).abs() < 1e-12);
        assert_eq!(relative_error(10.0, 10.0), 0.0);
    }
}
