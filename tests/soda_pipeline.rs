//! Cross-crate integration: architecture-level variation model → fault
//! model → Diet SODA functional simulator, under all error policies.

use ntv_simd::core::{DatapathConfig, DatapathEngine};
use ntv_simd::device::{TechModel, TechNode};
use ntv_simd::mc::CounterRng;
use ntv_simd::soda::kernels::{self, golden};
use ntv_simd::soda::pe::{EnergyConfig, ProcessingElement};
use ntv_simd::soda::{ErrorPolicy, FaultModel, SIMD_WIDTH};
use ntv_simd::units::Volts;

/// Build a fault model for a chip that has a handful of hard-faulty lanes:
/// 90 nm at 0.55 V, clocked at the lane-delay quantile where ~3 of the
/// 128+spares lanes miss timing on a typical chip.
fn faulty_chip(spares: usize) -> FaultModel {
    let tech = TechModel::new(TechNode::Gp90);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let mut rng = CounterRng::new(17, "faulty_chip").at(0);
    let lanes = engine.sample_lane_delays_fo4(Volts(0.55), 4_000, &mut rng);
    let q = ntv_simd::mc::Quantiles::from_samples(lanes);
    let t_clk_fo4 = q.quantile(1.0 - 3.0 / (128.0 + spares as f64));
    let t_clk_ns = t_clk_fo4 * engine.fo4_unit_ps(Volts(0.55)) / 1000.0;
    loop {
        let f = FaultModel::from_engine(&engine, Volts(0.55), t_clk_ns, spares, 0.0, &mut rng);
        let faults = f.faulty_lanes(0.5).len();
        if faults >= 1 && faults <= spares {
            return f;
        }
    }
}

fn run_pipeline(pe: &mut ProcessingElement) -> (Vec<Vec<i16>>, Vec<i16>) {
    let image: Vec<Vec<i16>> = (0..5)
        .map(|r| {
            (0..128)
                .map(|c| ((r * 101 + c * 13) % 251) as i16 - 125)
                .collect()
        })
        .collect();
    let kernel = [[1, 0, -1], [2, 0, -2], [1, 0, -1]]; // Sobel-x
    let signal: Vec<i16> = (0..256).map(|i| ((i * 29) % 173) as i16 - 86).collect();
    let conv = kernels::conv2d_3x3(pe, &image, &kernel, 3).expect("conv runs");
    let fir = kernels::fir(pe, &signal, &[2, -3, 1], 1).expect("fir runs");
    (conv, fir)
}

fn golden_pipeline() -> (Vec<Vec<i16>>, Vec<i16>) {
    let image: Vec<Vec<i16>> = (0..5)
        .map(|r| {
            (0..128)
                .map(|c| ((r * 101 + c * 13) % 251) as i16 - 125)
                .collect()
        })
        .collect();
    let kernel = [[1, 0, -1], [2, 0, -2], [1, 0, -1]];
    let signal: Vec<i16> = (0..256).map(|i| ((i * 29) % 173) as i16 - 86).collect();
    (
        golden::conv2d_3x3(&image, &kernel, 3),
        golden::fir(&signal, &[2, -3, 1], 1),
    )
}

#[test]
fn corrupt_policy_produces_wrong_data_on_a_faulty_chip() {
    let fault = faulty_chip(8);
    let mut pe = ProcessingElement::new();
    pe.set_error_policy(ErrorPolicy::Corrupt);
    pe.set_fault_model(
        fault,
        CounterRng::new(1, "corrupt_policy_produces_wrong_data_on_a_faulty_chip").at(0),
    );
    let (conv, _) = run_pipeline(&mut pe);
    let (golden_conv, _) = golden_pipeline();
    assert_ne!(conv, golden_conv, "hard lane faults must corrupt results");
    assert!(pe.stats().corrupted_lanes > 0);
    assert_eq!(pe.stats().replays, 0);
}

#[test]
fn stall_retry_is_correct_but_expensive() {
    let fault = faulty_chip(8);

    let mut clean = ProcessingElement::new();
    let _ = run_pipeline(&mut clean);
    let baseline_cycles = clean.stats().cycles;
    let baseline_energy = clean.stats().total_energy_pj();

    let mut pe = ProcessingElement::new();
    pe.set_error_policy(ErrorPolicy::StallRetry);
    pe.set_fault_model(
        fault,
        CounterRng::new(2, "stall_retry_is_correct_but_expensive").at(0),
    );
    let (conv, fir) = run_pipeline(&mut pe);
    let (golden_conv, golden_fir) = golden_pipeline();
    assert_eq!(conv, golden_conv, "retry recovers correctness");
    assert_eq!(fir[..], golden_fir[..fir.len()]);
    // A hard-faulty lane errors on *every* FU op: the whole-array replay
    // penalty the paper warns about.
    assert!(pe.stats().replays > 0);
    assert!(
        pe.stats().cycles > baseline_cycles * 3 / 2,
        "cycles {} vs clean {baseline_cycles}",
        pe.stats().cycles
    );
    assert!(pe.stats().total_energy_pj() > 1.2 * baseline_energy);
}

#[test]
fn spare_remap_is_correct_and_free_at_runtime() {
    let fault = faulty_chip(8);
    let mut clean = ProcessingElement::new();
    let _ = run_pipeline(&mut clean);
    let baseline_cycles = clean.stats().cycles;

    let mut pe = ProcessingElement::new();
    pe.set_error_policy(ErrorPolicy::SpareRemap);
    pe.set_fault_model(
        fault,
        CounterRng::new(3, "spare_remap_is_correct_and_free_at_runtime").at(0),
    );
    let spares_used = pe.repair(0.5).expect("enough spares");
    assert!(spares_used >= 1);
    let (conv, fir) = run_pipeline(&mut pe);
    let (golden_conv, golden_fir) = golden_pipeline();
    assert_eq!(conv, golden_conv);
    assert_eq!(fir[..], golden_fir[..fir.len()]);
    assert_eq!(pe.stats().cycles, baseline_cycles, "no runtime penalty");
    assert_eq!(pe.stats().replays, 0);
    assert_eq!(pe.stats().lane_errors, 0);
}

#[test]
fn fft_survives_spare_remap() {
    let fault = faulty_chip(8);
    let tone: Vec<i16> = (0..SIMD_WIDTH)
        .map(|i| (8000.0 * (2.0 * std::f64::consts::PI * 5.0 * i as f64 / 128.0).cos()) as i16)
        .collect();
    let zeros = vec![0i16; SIMD_WIDTH];

    let mut clean = ProcessingElement::new();
    let want = kernels::fft128(&mut clean, &tone, &zeros).expect("runs");

    let mut pe = ProcessingElement::new();
    pe.set_error_policy(ErrorPolicy::SpareRemap);
    pe.set_fault_model(fault, CounterRng::new(4, "fft_survives_spare_remap").at(0));
    pe.repair(0.5).expect("repairable");
    let got = kernels::fft128(&mut pe, &tone, &zeros).expect("runs");
    assert_eq!(got, want, "remapped FFT is bit-exact vs the fault-free run");
}

#[test]
fn energy_config_tracks_voltage() {
    let tech = TechModel::new(TechNode::Gp90);
    let a: Vec<i16> = (0..128).collect();
    let b: Vec<i16> = (0..128).rev().collect();

    let run_at = |vdd: f64| {
        let mut pe = ProcessingElement::new();
        pe.set_energy_config(EnergyConfig::for_tech(&tech, Volts(vdd)));
        let _ = kernels::vector_add(&mut pe, &a, &b).expect("runs");
        pe.stats().fu_energy_pj
    };
    let ntv = run_at(0.5);
    let nominal = run_at(1.0);
    assert!(
        (nominal / ntv - 4.0).abs() < 1e-9,
        "CV^2 scaling: {nominal} vs {ntv}"
    );
}

#[test]
fn intermittent_faults_trigger_occasional_replays() {
    // A guard-band lane errs probabilistically: stall-retry pays sometimes.
    let mut probs = vec![0.0; SIMD_WIDTH];
    probs[11] = 0.25;
    let mut pe = ProcessingElement::new();
    pe.set_error_policy(ErrorPolicy::StallRetry);
    pe.set_fault_model(
        FaultModel::from_probabilities(probs),
        CounterRng::new(5, "intermittent_faults_trigger_occasional_replays").at(0),
    );
    let (conv, _) = run_pipeline(&mut pe);
    let (golden_conv, _) = golden_pipeline();
    assert_eq!(conv, golden_conv);
    let replays = pe.stats().replays;
    let fu_ops = pe.stats().fu_ops;
    assert!(replays > 0, "some ops should have replayed");
    assert!(replays < fu_ops / 2, "but not most: {replays}/{fu_ops}");
}
