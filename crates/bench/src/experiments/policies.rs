//! Functional error-policy costs on the Diet SODA simulator (extension).
//!
//! The paper argues (§4) that per-operation recovery is uniquely painful
//! in wide SIMD — one bad lane stalls all 128 — while test-time spare
//! remapping removes faulty lanes for free at run time. This experiment
//! *runs* that argument: over a population of fabricated chips and a sweep
//! of clock aggressiveness, execute an FIR workload under each policy and
//! account cycles, energy, correctness and repairability.

use ntv_core::{ChipQuantileSolver, DatapathConfig, DatapathEngine};
use ntv_device::{TechModel, TechNode};
use ntv_mc::CounterRng;
use ntv_soda::kernels::{self, golden};
use ntv_soda::pe::ProcessingElement;
use ntv_soda::{ErrorPolicy, FaultModel};
use ntv_units::Volts;

use crate::table::TextTable;

/// Spares fabricated alongside the 128 lanes.
pub const SPARES: usize = 8;

/// One (clock, policy) cell.
#[derive(Debug, Clone, Copy)]
pub struct PolicyCell {
    /// Lane-delay quantile the clock was set at.
    pub clock_quantile: f64,
    /// Error-handling policy.
    pub policy: ErrorPolicy,
    /// Mean cycle overhead vs a fault-free run.
    pub cycle_overhead: f64,
    /// Mean energy overhead vs a fault-free run.
    pub energy_overhead: f64,
    /// Fraction of chips producing bit-exact results.
    pub correct_fraction: f64,
    /// Fraction of chips that could not be repaired (spare-remap only).
    pub unrepairable_fraction: f64,
}

/// Full policy study.
#[derive(Debug, Clone)]
pub struct PolicyResult {
    /// Technology node.
    pub node: TechNode,
    /// NTV operating voltage.
    pub vdd: f64,
    /// All cells, clock-major.
    pub cells: Vec<PolicyCell>,
}

fn workload(pe: &mut ProcessingElement) -> Vec<i16> {
    let signal: Vec<i16> = (0..256).map(|i| ((i * 31) % 157) as i16 - 78).collect();
    kernels::fir(pe, &signal, &[2, -3, 1, 4], 2).expect("fir runs")
}

fn golden_workload() -> Vec<i16> {
    let signal: Vec<i16> = (0..256).map(|i| ((i * 31) % 157) as i16 - 78).collect();
    golden::fir(&signal, &[2, -3, 1, 4], 2)
}

/// Run the policy study: `chips` fabricated chips per (clock, policy) cell.
#[must_use]
pub fn run(chips: usize, seed: u64) -> PolicyResult {
    let node = TechNode::Gp90;
    let vdd = 0.55;
    let tech = TechModel::new(node);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());

    // Baseline fault-free run.
    let mut clean = ProcessingElement::new();
    let golden_out = golden_workload();
    let clean_out = workload(&mut clean);
    assert_eq!(clean_out[..], golden_out[..clean_out.len()]);
    let clean_cycles = clean.stats().cycles as f64;
    let clean_energy = clean.stats().total_energy_pj();

    // Clock grid at exact lane-delay quantiles: a one-lane datapath's chip
    // delay is one lane's delay, so its chip quantile is the lane quantile.
    let lane = DatapathEngine::new(&tech, DatapathConfig::paper_default().with_lanes(1));
    let lane_q = ChipQuantileSolver::new(&lane);

    let mut cells = Vec::new();
    for &clock_quantile in &[0.95, 0.97, 0.999] {
        let t_clk_ns = lane_q.chip_quantile_ns(Volts(vdd), clock_quantile);
        for policy in [
            ErrorPolicy::Corrupt,
            ErrorPolicy::StallRetry,
            ErrorPolicy::SpareRemap,
        ] {
            let mut cycle_over = 0.0;
            let mut energy_over = 0.0;
            let mut correct = 0usize;
            let mut unrepairable = 0usize;
            let fab = CounterRng::new(seed, "policy-chips");
            let run = CounterRng::new(seed, "policy-run");
            for chip in 0..chips as u64 {
                let fault = FaultModel::from_engine(
                    &engine,
                    Volts(vdd),
                    t_clk_ns,
                    SPARES,
                    0.0,
                    &mut fab.at(chip),
                );
                let mut pe = ProcessingElement::new();
                pe.set_error_policy(policy);
                pe.set_fault_model(fault, run.at(chip));
                if policy == ErrorPolicy::SpareRemap && pe.repair(0.5).is_err() {
                    unrepairable += 1;
                    continue;
                }
                let out = workload(&mut pe);
                cycle_over += pe.stats().cycles as f64 / clean_cycles - 1.0;
                energy_over += pe.stats().total_energy_pj() / clean_energy - 1.0;
                if out[..] == golden_out[..out.len()] {
                    correct += 1;
                }
            }
            let ran = (chips - unrepairable).max(1) as f64;
            cells.push(PolicyCell {
                clock_quantile,
                policy,
                cycle_overhead: cycle_over / ran,
                energy_overhead: energy_over / ran,
                correct_fraction: correct as f64 / ran,
                unrepairable_fraction: unrepairable as f64 / chips as f64,
            });
        }
    }
    PolicyResult { node, vdd, cells }
}

#[cfg(test)]
impl PolicyResult {
    /// The cell for a quantile/policy pair, if computed.
    fn cell(&self, clock_quantile: f64, policy: ErrorPolicy) -> Option<&PolicyCell> {
        self.cells
            .iter()
            .find(|c| (c.clock_quantile - clock_quantile).abs() < 1e-9 && c.policy == policy)
    }
}

impl std::fmt::Display for PolicyResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Extension — error-policy costs on the PE simulator, {} @{:.2} V ({} spares)",
            self.node, self.vdd, SPARES
        )?;
        let mut t = TextTable::new(&[
            "clock q",
            "policy",
            "cycle ovhd",
            "energy ovhd",
            "correct",
            "unrepairable",
        ]);
        for c in &self.cells {
            t.row(&[
                format!("{:.3}", c.clock_quantile),
                c.policy.to_string(),
                format!("{:+.1}%", c.cycle_overhead * 100.0),
                format!("{:+.1}%", c.energy_overhead * 100.0),
                format!("{:.0}%", c.correct_fraction * 100.0),
                format!("{:.0}%", c.unrepairable_fraction * 100.0),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_economics_match_section_4() {
        let r = run(10, 50);
        // Aggressive clock (q0.95, ~6-7 faulty lanes per chip): remap stays
        // free and correct; retry is correct but pays heavily; corrupt pays
        // nothing and is wrong.
        let corrupt = r.cell(0.95, ErrorPolicy::Corrupt).expect("cell");
        let retry = r.cell(0.95, ErrorPolicy::StallRetry).expect("cell");
        let remap = r.cell(0.95, ErrorPolicy::SpareRemap).expect("cell");

        assert!(corrupt.correct_fraction < 0.5, "{corrupt:?}");
        assert!(corrupt.cycle_overhead.abs() < 1e-9);

        assert!((retry.correct_fraction - 1.0).abs() < 1e-9, "{retry:?}");
        assert!(retry.cycle_overhead > 0.5, "{retry:?}");
        assert!(retry.energy_overhead > 0.05, "{retry:?}");

        assert!(remap.correct_fraction > 0.99, "{remap:?}");
        assert!(remap.cycle_overhead.abs() < 1e-9, "{remap:?}");
        // At q0.95 some chips exceed 8 faulty lanes; a few may be
        // unrepairable, but most must survive.
        assert!(remap.unrepairable_fraction < 0.7, "{remap:?}");
    }

    #[test]
    fn conservative_clock_quiets_everything() {
        // At q0.999 a chip still has ~12.7 % odds of one faulty lane
        // (1 - 0.999^136), so a handful of chips cannot support a 0.7
        // correct-fraction bound — 8 chips fail it with ~5 % probability
        // per seed. 48 chips put the expected clean fraction (~0.87)
        // more than four sigma above the bound.
        let r = run(48, 51);
        for policy in [
            ErrorPolicy::Corrupt,
            ErrorPolicy::StallRetry,
            ErrorPolicy::SpareRemap,
        ] {
            let c = r.cell(0.999, policy).expect("cell");
            assert!(c.correct_fraction > 0.7, "{c:?}");
            // A rare faulty chip replays every FU op; averaged over the
            // population the overhead stays below one clean run.
            assert!(c.cycle_overhead < 0.9, "{c:?}");
        }
    }

    #[test]
    fn display_has_one_row_per_cell() {
        let r = run(4, 52);
        let text = r.to_string();
        assert_eq!(text.lines().count(), 2 + r.cells.len() + 1);
        assert!(text.contains("stall-retry"));
    }
}
