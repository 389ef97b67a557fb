//! One module per paper table/figure.
//!
//! Each Monte-Carlo module exposes one entry point,
//! `run_with(samples, seed, exec) -> …Result`, returning structured data;
//! the [`ntv_core::Executor`] sets the thread count, and the output is
//! bit-identical for any choice. The sample-free experiments take only
//! what they vary: `fig9::run_for(node)`, `placement::run(seed)` and
//! `policies::run(chips, seed)`. The result
//! type implements `Display` to print the paper-style rows. Paper reference
//! values (where the paper prints them) are carried alongside the measured
//! values so the output doubles as the EXPERIMENTS.md evidence.

pub mod extensions;
pub mod fig1;
pub mod fig11;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod placement;
pub mod policies;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

use ntv_device::TechNode;

/// The paper's NTV voltage grid for Tables 1, 2 and 4.
pub const TABLE_VOLTAGES: [f64; 5] = [0.50, 0.55, 0.60, 0.65, 0.70];

/// Voltage grid for a node's figures: 0.5 V up to the node's nominal
/// voltage in 50 mV steps.
#[must_use]
pub fn voltage_grid(node: TechNode) -> Vec<f64> {
    let mut v = 0.5;
    let mut out = Vec::new();
    while v <= node.nominal_vdd().get() + 1e-9 {
        out.push((v * 1000.0_f64).round() / 1000.0);
        v += 0.05;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn voltage_grid_spans_to_nominal() {
        let g90 = voltage_grid(TechNode::Gp90);
        assert_eq!(g90.first(), Some(&0.5));
        assert_eq!(g90.last(), Some(&1.0));
        assert_eq!(g90.len(), 11);
        let g22 = voltage_grid(TechNode::PtmHp22);
        assert_eq!(g22.last(), Some(&0.8));
        assert_eq!(g22.len(), 7);
    }
}
