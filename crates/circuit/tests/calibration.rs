//! Calibration of the device model against the paper's published
//! circuit-level numbers (Fig 1, Fig 2, §3.1/§3.2).
//!
//! Tolerances are deliberately loose (the device model is an analytical
//! surrogate for HSPICE decks we do not have); the point is to pin the
//! *shape*: magnitudes within ~±30 %, correct orderings, correct trends.

use ntv_circuit::chain::ChainMc;
use ntv_device::calib;
use ntv_device::{TechModel, TechNode};
use ntv_mc::CounterRng;
use ntv_units::Volts;

const SAMPLES: usize = 4000;

fn chain_3s(tech: &TechModel, len: usize, vdd: f64, seed: u64) -> f64 {
    let chain = ChainMc::new(tech, len);
    let stream = CounterRng::new(seed, "calibration");
    chain.three_sigma_over_mu(Volts(vdd), SAMPLES, &stream)
}

#[test]
fn fig1a_single_inverter_90nm() {
    let tech = TechModel::new(TechNode::Gp90);
    println!("Fig 1(a) single inverter, 90nm GP (3sigma/mu %):");
    println!("{:>6} {:>8} {:>8} {:>7}", "Vdd", "paper", "model", "relerr");
    for &(vdd, want) in &calib::FIG1_SINGLE_INVERTER_90NM {
        let got = chain_3s(&tech, 1, vdd, 1);
        let rel = calib::relative_error(got, want);
        println!(
            "{vdd:>6.2} {:>8.2} {:>8.2} {rel:>7.2}",
            want * 100.0,
            got * 100.0
        );
        assert!(
            rel < 0.30,
            "single inverter at {vdd} V: {got} vs paper {want}"
        );
    }
}

#[test]
fn fig1b_chain50_90nm() {
    let tech = TechModel::new(TechNode::Gp90);
    println!("Fig 1(b) chain of 50 FO4, 90nm GP (3sigma/mu %):");
    println!("{:>6} {:>8} {:>8} {:>7}", "Vdd", "paper", "model", "relerr");
    for &(vdd, want) in &calib::FIG1_CHAIN50_90NM {
        let got = chain_3s(&tech, 50, vdd, 2);
        let rel = calib::relative_error(got, want);
        println!(
            "{vdd:>6.2} {:>8.2} {:>8.2} {rel:>7.2}",
            want * 100.0,
            got * 100.0
        );
        assert!(rel < 0.30, "chain-50 at {vdd} V: {got} vs paper {want}");
    }
}

#[test]
fn fig2_chain50_22nm_endpoints() {
    let tech = TechModel::new(TechNode::PtmHp22);
    for &(vdd, want) in &calib::FIG2_CHAIN50_22NM {
        let got = chain_3s(&tech, 50, vdd, 3);
        let rel = calib::relative_error(got, want);
        println!("22nm chain-50 @{vdd} V: paper {want:.3}, model {got:.3}");
        assert!(
            rel < 0.30,
            "22nm chain-50 at {vdd} V: {got} vs paper {want}"
        );
    }
}

#[test]
fn fig2_node_ordering_at_low_voltage() {
    // At 0.5 V the four curves of Fig 2 are ordered 90nm lowest, 22nm
    // highest, with 45nm GP above 32nm PTM (commercial pessimism).
    let v = 0.5;
    let s90 = chain_3s(&TechModel::new(TechNode::Gp90), 50, v, 4);
    let s45 = chain_3s(&TechModel::new(TechNode::Gp45), 50, v, 4);
    let s32 = chain_3s(&TechModel::new(TechNode::PtmHp32), 50, v, 4);
    let s22 = chain_3s(&TechModel::new(TechNode::PtmHp22), 50, v, 4);
    println!("chain-50 @0.5 V: 90nm {s90:.3} 45nm {s45:.3} 32nm {s32:.3} 22nm {s22:.3}");
    assert!(
        s90 < s32 && s32 < s45 && s45 < s22,
        "{s90} {s32} {s45} {s22}"
    );
}

#[test]
fn scaling_ratio_22_vs_90_at_055v() {
    let r = chain_3s(&TechModel::new(TechNode::PtmHp22), 50, 0.55, 5)
        / chain_3s(&TechModel::new(TechNode::Gp90), 50, 0.55, 5);
    println!("22nm / 90nm chain-50 ratio @0.55 V: {r:.2} (paper: 2.5)");
    assert!(
        (r / calib::CHAIN50_22NM_OVER_90NM_AT_055V - 1.0).abs() < 0.35,
        "ratio {r}"
    );
}

#[test]
fn absolute_chain_delays_90nm() {
    let tech = TechModel::new(TechNode::Gp90);
    // The variation-free chain delay: 50 FO4 stages.
    let d05 = 50.0 * tech.fo4_delay_ps(Volts(0.5)) / 1000.0;
    let d06 = 50.0 * tech.fo4_delay_ps(Volts(0.6)) / 1000.0;
    println!("chain-50 delay: {d05:.2} ns @0.5 V (paper 22.05), {d06:.2} ns @0.6 V (paper 8.99)");
    assert!(calib::relative_error(d05, calib::CHAIN50_DELAY_NS_90NM_05V) < 0.15);
    assert!(calib::relative_error(d06, calib::CHAIN50_DELAY_NS_90NM_06V) < 0.15);
}
