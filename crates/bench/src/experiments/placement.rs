//! Fig 12 / Appendix D: global vs local spare placement, and the XRAM
//! bypass demonstration.
//!
//! Local sparing (Synctium-style, one spare per 4-lane cluster) cannot
//! cover two faults in one cluster; a global pool behind the XRAM crossbar
//! covers any pattern up to the spare count. This experiment computes both
//! repair probabilities across lane-failure rates and runs the functional
//! bypass on the Diet SODA simulator.

use ntv_core::placement::{repair_probability, SparePlacement};
use ntv_mc::CounterRng;
use ntv_soda::isa::{Instr, VBinOp, VReg};
use ntv_soda::{ErrorPolicy, FaultModel, ProcessingElement, SIMD_WIDTH};

use crate::table::TextTable;

/// One failure-rate row of the comparison.
#[derive(Debug, Clone, Copy)]
pub struct PlacementRow {
    /// Per-lane failure probability.
    pub p_fail: f64,
    /// Repair probability with local sparing (1 spare per 4-lane cluster).
    pub local: f64,
    /// Repair probability with a global pool of the same 32 spares.
    pub global: f64,
}

/// Result of the functional XRAM bypass demo.
#[derive(Debug, Clone)]
pub struct BypassDemo {
    /// Physical lanes fabricated (128 + spares).
    pub physical_lanes: usize,
    /// Faulty physical lanes found at test time.
    pub faulty: Vec<usize>,
    /// Whether repair succeeded.
    pub repaired: bool,
    /// Whether the kernel output was bit-exact after repair.
    pub output_correct: bool,
}

/// Full placement study.
#[derive(Debug, Clone)]
pub struct PlacementResult {
    /// Analytic comparison rows.
    pub rows: Vec<PlacementRow>,
    /// Functional demonstration on the PE simulator.
    pub demo: BypassDemo,
}

/// Regenerate the placement study.
#[must_use]
pub fn run(seed: u64) -> PlacementResult {
    let local = SparePlacement::Local {
        cluster_size: 4,
        spares_per_cluster: 1,
    };
    let global = SparePlacement::Global { spares: 32 };
    let rows = [0.005, 0.01, 0.02, 0.05, 0.1, 0.15, 0.2]
        .iter()
        .map(|&p_fail| PlacementRow {
            p_fail,
            local: repair_probability(local, 128, p_fail),
            global: repair_probability(global, 128, p_fail),
        })
        .collect();

    // Functional demo: 128+8 physical lanes, a burst of adjacent faults
    // (which defeats 1-of-4 local sparing), repaired via the XRAM map.
    let spares = 8usize;
    let mut probs = vec![0.0; SIMD_WIDTH + spares];
    let faulty = vec![40, 41, 42, 77, 100];
    for &l in &faulty {
        probs[l] = 1.0;
    }
    let mut pe = ProcessingElement::new();
    pe.set_error_policy(ErrorPolicy::SpareRemap);
    pe.set_fault_model(
        FaultModel::from_probabilities(probs),
        CounterRng::new(seed, "placement-demo").at(0),
    );
    let repaired = pe.repair(0.5).is_ok();

    let (v0, v1, v2) = (VReg::new(0), VReg::new(1), VReg::new(2));
    let a: Vec<i16> = (0..SIMD_WIDTH as i16).collect();
    let b: Vec<i16> = (0..SIMD_WIDTH as i16).map(|i| 3 * i).collect();
    pe.set_vreg(v0, &a);
    pe.set_vreg(v1, &b);
    let output_correct = pe
        .execute(&Instr::VBin {
            op: VBinOp::Add,
            vd: v2,
            va: v0,
            vb: v1,
        })
        .is_ok()
        && pe
            .vreg(v2)
            .iter()
            .zip(a.iter().zip(&b))
            .all(|(&got, (&x, &y))| got == x.saturating_add(y));

    PlacementResult {
        rows,
        demo: BypassDemo {
            physical_lanes: SIMD_WIDTH + spares,
            faulty,
            repaired,
            output_correct,
        },
    }
}

impl std::fmt::Display for PlacementResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Appendix D — spare placement: repair probability, 128 lanes, 32 spares"
        )?;
        let mut t = TextTable::new(&["p_fail", "local (1 per 4)", "global pool"]);
        for r in &self.rows {
            t.row(&[
                format!("{:.3}", r.p_fail),
                format!("{:.4}", r.local),
                format!("{:.4}", r.global),
            ]);
        }
        writeln!(f, "{t}")?;
        writeln!(
            f,
            "XRAM bypass demo: {} physical lanes, faulty {:?} -> repaired: {}, output correct: {}",
            self.demo.physical_lanes,
            self.demo.faulty,
            self.demo.repaired,
            self.demo.output_correct
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_dominates_local_everywhere() {
        let r = run(33);
        for row in &r.rows {
            assert!(
                row.global >= row.local,
                "p={}: global {} < local {}",
                row.p_fail,
                row.global,
                row.local
            );
        }
        // At moderate failure rates the gap is decisive.
        let mid = r
            .rows
            .iter()
            .find(|r| (r.p_fail - 0.05).abs() < 1e-9)
            .expect("row");
        assert!(mid.global > mid.local + 0.2, "{mid:?}");
    }

    #[test]
    fn burst_faults_are_repaired_and_correct() {
        let r = run(34);
        assert!(r.demo.repaired);
        assert!(r.demo.output_correct);
        // The demo burst includes 3 adjacent faults, which a 1-per-4
        // cluster scheme could not absorb.
        assert!(r.demo.faulty.windows(3).any(|w| w[2] - w[0] == 2));
    }
}
