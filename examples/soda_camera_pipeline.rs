//! Run a digital-camera-style kernel pipeline (2-D convolution + FIR +
//! FFT) on the Diet SODA simulator at a near-threshold operating point
//! with variation-induced timing faults, under all three error-handling
//! policies — the functional counterpart of the paper's §4 argument.
//!
//! ```text
//! cargo run --release --example soda_camera_pipeline
//! ```

use ntv_simd::core::{DatapathConfig, DatapathEngine};
use ntv_simd::device::{TechModel, TechNode};
use ntv_simd::mc::CounterRng;
use ntv_simd::soda::kernels::{self, golden};
use ntv_simd::soda::pe::{EnergyConfig, ProcessingElement};
use ntv_simd::soda::{ErrorPolicy, FaultModel};
use ntv_simd::units::Volts;

fn main() {
    let node = TechNode::Gp90;
    let vdd = 0.55;
    let spares = 6; // Table 1's 90nm @0.55V answer
    let tech = TechModel::new(node);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());

    // Clock the SIMD domain aggressively: at the lane-delay quantile where
    // ~2 of the 134 lanes on a typical chip miss timing.
    let mut rng = CounterRng::new(2012, "main").at(0);
    let lane_q = ntv_simd::mc::Quantiles::from_samples(engine.sample_lane_delays_fo4(
        Volts(vdd),
        4_000,
        &mut rng,
    ));
    let t_clk_ns = lane_q.quantile(1.0 - 2.0 / (128.0 + spares as f64))
        * engine.fo4_unit_ps(Volts(vdd))
        / 1000.0;
    // Sample fabricated chips until one has repairable faulty lanes, so the
    // policies have something to disagree about.
    let fault = loop {
        let f = FaultModel::from_engine(&engine, Volts(vdd), t_clk_ns, spares, 0.0, &mut rng);
        let faults = f.faulty_lanes(0.99).len();
        if faults >= 1 && faults <= spares {
            break f;
        }
    };
    println!(
        "{node} @{vdd} V, clock {t_clk_ns:.2} ns: fabricated chip has {} hard-faulty lanes\n",
        fault.faulty_lanes(0.99).len()
    );

    // Workload: 6-row 3x3 convolution + 5-tap FIR + 128-pt FFT.
    let image: Vec<Vec<i16>> = (0..6)
        .map(|r| {
            (0..128)
                .map(|c| ((r * 131 + c * 17) % 255) as i16 - 127)
                .collect()
        })
        .collect();
    let kernel = [[1, 2, 1], [2, 4, 2], [1, 2, 1]];
    let signal: Vec<i16> = (0..384).map(|i| ((i * 37) % 199) as i16 - 99).collect();
    let taps = [3, -1, 4, 1, -5];
    let tone: Vec<i16> = (0..128)
        .map(|i| (6000.0 * (2.0 * std::f64::consts::PI * 3.0 * f64::from(i) / 128.0).cos()) as i16)
        .collect();
    let zeros = vec![0i16; 128];

    let golden_conv = golden::conv2d_3x3(&image, &kernel, 4);
    let golden_fir = golden::fir(&signal, &taps, 2);

    println!(
        "{:<12} {:>8} {:>8} {:>10} {:>12} {:>14}",
        "policy", "cycles", "replays", "energy(pJ)", "conv correct", "fir correct"
    );
    for policy in [
        ErrorPolicy::Corrupt,
        ErrorPolicy::StallRetry,
        ErrorPolicy::SpareRemap,
    ] {
        let mut pe = ProcessingElement::new();
        pe.set_energy_config(EnergyConfig::for_tech(&tech, Volts(vdd)));
        pe.set_error_policy(policy);
        pe.set_fault_model(fault.clone(), CounterRng::new(99, "main").at(0));
        if policy == ErrorPolicy::SpareRemap {
            pe.repair(0.5).expect("enough spares for this chip");
        }

        let conv = kernels::conv2d_3x3(&mut pe, &image, &kernel, 4).expect("runs");
        let fir_out = kernels::fir(&mut pe, &signal, &taps, 2).expect("runs");
        let _ = kernels::fft128(&mut pe, &tone, &zeros).expect("runs");

        let conv_ok = conv == golden_conv;
        let fir_ok = fir_out[..] == golden_fir[..fir_out.len()];
        let stats = pe.stats();
        println!(
            "{:<12} {:>8} {:>8} {:>10.0} {:>12} {:>14}",
            policy.to_string(),
            stats.cycles,
            stats.replays,
            stats.total_energy_pj(),
            conv_ok,
            fir_ok
        );
    }

    println!("\nthe paper's point (§4): per-op recovery (stall-retry) keeps the data");
    println!("correct but pays cycles and energy on every error across all 128 lanes;");
    println!("test-time spare remapping through the XRAM crossbar removes the faulty");
    println!("lanes from the array entirely — same answers, no runtime penalty.");
}
