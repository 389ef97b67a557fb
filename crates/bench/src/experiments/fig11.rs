//! Fig 11 (Appendix C): delay variation (3σ/μ) at 0.55 V as a function of
//! the FO4 chain length, for all four nodes — showing the diminishing
//! returns of "just make the logic chains longer".

use ntv_circuit::chain::ChainMc;
use ntv_core::Executor;
use ntv_device::{TechModel, TechNode};
use ntv_mc::{CounterRng, Summary};
use ntv_units::Volts;

use crate::table::TextTable;

/// Chain lengths swept (the paper's x-axis reaches a few hundred stages).
pub const CHAIN_LENGTHS: [usize; 9] = [1, 2, 5, 10, 20, 50, 100, 200, 400];

/// The study voltage.
pub const VDD: f64 = 0.55;

/// One node's curve.
#[derive(Debug, Clone)]
pub struct Fig11Curve {
    /// Technology node.
    pub node: TechNode,
    /// `(chain length, 3σ/μ)` points.
    pub points: Vec<(usize, f64)>,
}

/// Full Fig 11 result.
#[derive(Debug, Clone)]
pub struct Fig11Result {
    /// One curve per node, paper order.
    pub curves: Vec<Fig11Curve>,
}

/// Regenerate Fig 11 on an explicit executor.
#[must_use]
pub fn run_with(samples: usize, seed: u64, exec: Executor) -> Fig11Result {
    let stream = CounterRng::new(seed, "fig11");
    let curves = TechNode::ALL
        .iter()
        .map(|&node| {
            let tech = TechModel::new(node);
            let points = CHAIN_LENGTHS
                .iter()
                .map(|&n| {
                    let chain = ChainMc::new(&tech, n);
                    // Budget the gate evaluations evenly across lengths.
                    let s = (samples * 50 / n).clamp(200, samples * 4);
                    let summary: Summary = exec
                        .map_indexed(s as u64, |i| chain.sample_ps(Volts(VDD), &mut stream.at(i)))
                        .into_iter()
                        .collect();
                    (n, summary.three_sigma_over_mu())
                })
                .collect();
            Fig11Curve { node, points }
        })
        .collect();
    Fig11Result { curves }
}

impl std::fmt::Display for Fig11Result {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig 11 — 3sigma/mu at {VDD} V vs chain length")?;
        let headers: Vec<String> = std::iter::once("N".to_owned())
            .chain(self.curves.iter().map(|c| c.node.to_string()))
            .collect();
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let mut t = TextTable::new(&header_refs);
        for (i, &n) in CHAIN_LENGTHS.iter().enumerate() {
            let mut cells = vec![n.to_string()];
            for c in &self.curves {
                cells.push(format!("{:.1}%", c.points[i].1 * 100.0));
            }
            t.row(&cells);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variation_falls_with_diminishing_returns() {
        let r = run_with(800, 17, Executor::default());
        for c in &r.curves {
            // Broadly decreasing...
            let first = c.points[0].1;
            let mid = c.points[5].1; // N = 50
            let last = c.points[8].1; // N = 400
            assert!(mid < 0.6 * first, "{:?}: {first} -> {mid}", c.node);
            // ...but the systematic floor stops the 1/sqrt(N) decay: going
            // from 50 to 400 stages buys far less than 1->50 did.
            let early_gain = first - mid;
            let late_gain = mid - last;
            assert!(late_gain < 0.5 * early_gain, "{:?}", c.node);
            assert!(last > 0.0);
        }
    }

    #[test]
    fn node_ordering_holds_at_055v() {
        let r = run_with(800, 18, Executor::default());
        // At N = 50, 22nm is ~2.5x 90nm (paper §3.1).
        let at = |node: TechNode| {
            r.curves
                .iter()
                .find(|c| c.node == node)
                .expect("node present")
                .points[5]
                .1
        };
        let ratio = at(TechNode::PtmHp22) / at(TechNode::Gp90);
        assert!((1.8..3.4).contains(&ratio), "22nm/90nm ratio {ratio}");
    }
}
