//! Property tests on the workspace's core data structures and invariants.
//!
//! Each property runs a fixed number of generated cases. Case `c` of
//! property `name` draws every input from `CounterRng::new(2012, name).at(c)`,
//! so runs are deterministic and a failure names the `(name, c)` pair that
//! replays it.

// Exact float equality is the property under test here: min/max/kth-element
// must return a bitwise copy of an input sample, not a recomputed value.
#![allow(clippy::float_cmp)]

use std::collections::BTreeSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ntv_simd::circuit::chain::ChainMc;
use ntv_simd::core::compare::{compare_at, Technique};
use ntv_simd::core::duplication::DuplicationStudy;
use ntv_simd::core::margining::MarginStudy;
use ntv_simd::core::perf::performance_drop;
use ntv_simd::core::placement::{binomial_cdf, repair_probability, SparePlacement};
use ntv_simd::core::{DatapathConfig, DatapathEngine};
use ntv_simd::device::{DeviceParams, TechModel, TechNode};
use ntv_simd::mc::{normal, order, CounterDraws, CounterRng, Quantiles, Summary};
use ntv_simd::soda::kernels::{self, golden};
use ntv_simd::soda::pe::ProcessingElement;
use ntv_simd::soda::xram::{LaneMap, ShuffleConfig};
use ntv_simd::units::Volts;

/// Run `property` on `cases` cases of test `name`, each on its own cursor.
#[expect(
    clippy::panic,
    reason = "a failed case fails the test, naming its stream"
)]
fn check(name: &str, cases: u64, property: impl Fn(&mut CounterDraws)) {
    let stream = CounterRng::new(2012, name);
    for c in 0..cases {
        if catch_unwind(AssertUnwindSafe(|| property(&mut stream.at(c)))).is_err() {
            panic!("property `{name}` failed at case {c}: CounterRng::new(2012, {name:?}).at({c})");
        }
    }
}

/// Uniform `f64` in `lo..hi`.
fn float(d: &mut CounterDraws, lo: f64, hi: f64) -> f64 {
    lo + d.uniform() * (hi - lo)
}

/// Uniform integer in `range`.
fn int(d: &mut CounterDraws, range: Range<usize>) -> usize {
    range.start + d.index(range.end - range.start)
}

fn finite_vec(d: &mut CounterDraws, len: Range<usize>) -> Vec<f64> {
    (0..int(d, len)).map(|_| float(d, -1.0e6, 1.0e6)).collect()
}

/// A node and two supply voltages `v1 < v2` in 0.40–1.20 V, at least
/// 5 mV apart: the inputs of the exact solves' metamorphic properties.
fn node_and_two_voltages(d: &mut CounterDraws) -> (TechModel, Volts, Volts) {
    let tech = TechModel::new(TechNode::ALL[int(d, 0..4)]);
    let v1 = float(d, 0.40, 1.195);
    let v2 = float(d, v1 + 0.005, 1.20);
    (tech, Volts(v1), Volts(v2))
}

fn samples_i16(d: &mut CounterDraws, n: usize, scale: f64, offset: f64) -> Vec<i16> {
    (0..n)
        .map(|_| (d.uniform() * scale - offset) as i16)
        .collect()
}

#[test]
fn normal_quantile_round_trips() {
    check("normal_quantile_round_trips", 64, |d| {
        let p = float(d, 1e-9, 1.0 - 1e-9);
        let x = normal::quantile(p);
        let back = normal::cdf(x);
        assert!((back - p).abs() < 1e-9, "p={p} x={x} back={back}");
    });
}

#[test]
fn quantiles_are_monotone_and_bounded() {
    check("quantiles_are_monotone_and_bounded", 64, |d| {
        let data = finite_vec(d, 1..200);
        let (a, b) = (float(d, 0.0, 1.0), float(d, 0.0, 1.0));
        let q = Quantiles::from_samples(data.clone());
        let (lo, hi) = (a.min(b), a.max(b));
        assert!(q.quantile(lo) <= q.quantile(hi) + 1e-12);
        assert!(q.quantile(0.0) <= q.quantile(1.0));
        let min = data.iter().copied().fold(f64::INFINITY, f64::min);
        let max = data.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(q.min(), min);
        assert_eq!(q.max(), max);
    });
}

#[test]
fn summary_merge_equals_sequential() {
    check("summary_merge_equals_sequential", 64, |d| {
        let data = finite_vec(d, 2..200);
        let split = int(d, 0..200).min(data.len());
        let whole: Summary = data.iter().copied().collect();
        let mut left: Summary = data[..split].iter().copied().collect();
        let right: Summary = data[split..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() <= 1e-6 * (1.0 + whole.mean().abs()));
        assert!((left.variance() - whole.variance()).abs() <= 1e-4 * (1.0 + whole.variance()));
    });
}

#[test]
fn kth_smallest_matches_sorting() {
    check("kth_smallest_matches_sorting", 64, |d| {
        let data = finite_vec(d, 1..100);
        let k = int(d, 0..100).min(data.len() - 1);
        let got = order::kth_smallest(&data, k);
        let mut sorted = data.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(got, sorted[k]);
    });
}

#[test]
fn rotation_shuffles_invert() {
    check("rotation_shuffles_invert", 64, |d| {
        let shift = int(d, 0..128);
        let data = samples_i16(d, 128, 100.0, 0.0);
        let fwd = ShuffleConfig::rotate(128, shift);
        let back = ShuffleConfig::rotate(128, (128 - shift % 128) % 128);
        let round = back.apply(&fwd.apply(&data));
        assert_eq!(round, data);
    });
}

#[test]
fn lane_map_is_injective_and_skips_faulty() {
    check("lane_map_is_injective_and_skips_faulty", 64, |d| {
        let faulty: BTreeSet<usize> = (0..int(d, 0..8)).map(|_| int(d, 0..136)).collect();
        let faulty: Vec<usize> = faulty.into_iter().collect();
        let map = LaneMap::with_faulty(128, 136, &faulty).expect("at most 8 faults fit 8 spares");
        let mut seen = std::collections::HashSet::new();
        for l in 0..128 {
            let p = map.physical(l);
            assert!(p < 136);
            assert!(!faulty.contains(&p), "logical {l} mapped to faulty {p}");
            assert!(seen.insert(p), "physical lane {p} used twice");
        }
    });
}

#[test]
fn binomial_cdf_is_monotone_in_k() {
    check("binomial_cdf_is_monotone_in_k", 64, |d| {
        let n = int(d, 1..200) as u32;
        let p = float(d, 0.0, 1.0);
        let mut prev = 0.0;
        for k in 0..=n.min(40) {
            let c = binomial_cdf(n, p, k);
            assert!((0.0..=1.0 + 1e-12).contains(&c));
            assert!(c >= prev - 1e-12);
            prev = c;
        }
    });
}

#[test]
fn global_sparing_never_loses_to_local() {
    check("global_sparing_never_loses_to_local", 64, |d| {
        let p_fail = float(d, 0.0, 0.5);
        let spares_per_cluster = int(d, 1..3) as u32;
        let cluster = SparePlacement::Local {
            cluster_size: 8,
            spares_per_cluster,
        };
        // The same spare budget, pooled: 16 clusters of 8 lanes.
        let global = SparePlacement::Global {
            spares: 128 / 8 * spares_per_cluster,
        };
        let pl = repair_probability(cluster, 128, p_fail);
        let pg = repair_probability(global, 128, p_fail);
        assert!(pg >= pl - 1e-12, "p={p_fail}: global {pg} < local {pl}");
    });
}

#[test]
fn vector_add_kernel_matches_golden() {
    check("vector_add_kernel_matches_golden", 64, |d| {
        let a = samples_i16(d, 128, 65535.0, 32768.0);
        let b = samples_i16(d, 128, 65535.0, 32768.0);
        let mut pe = ProcessingElement::new();
        let got = kernels::vector_add(&mut pe, &a, &b).expect("runs");
        assert_eq!(got, golden::vector_add(&a, &b));
    });
}

#[test]
fn fir_kernel_matches_golden() {
    check("fir_kernel_matches_golden", 64, |d| {
        let taps = int(d, 1..8);
        let signal = samples_i16(d, 256, 200.0, 100.0);
        let coeffs = samples_i16(d, taps, 10.0, 5.0);
        let mut pe = ProcessingElement::new();
        let got = kernels::fir(&mut pe, &signal, &coeffs, 2).expect("runs");
        let want = golden::fir(&signal, &coeffs, 2);
        assert_eq!(&got[..], &want[..got.len()]);
    });
}

#[test]
fn device_delay_monotone_in_voltage_and_vth() {
    check("device_delay_monotone_in_voltage_and_vth", 64, |d| {
        let tech = TechModel::new(TechNode::ALL[int(d, 0..4)]);
        let v_lo = float(d, 0.40, 0.70);
        let dv = float(d, 0.01, 0.10);
        // Delay falls with voltage...
        assert!(tech.fo4_delay_ps(Volts(v_lo + dv)) < tech.fo4_delay_ps(Volts(v_lo)));
        // ...and on-current falls with threshold voltage.
        let p = tech.params();
        assert!(
            tech.on_current(Volts(v_lo), p.vth0 + Volts(0.02))
                < tech.on_current(Volts(v_lo), p.vth0)
        );
    });
}

#[test]
fn sigma_scale_scales_measured_variation() {
    check("sigma_scale_scales_measured_variation", 64, |d| {
        let scale = float(d, 0.25, 2.0);
        let base = TechModel::new(TechNode::Gp90);
        let scaled =
            TechModel::from_params(DeviceParams::for_node(TechNode::Gp90).with_sigma_scale(scale));
        // Common random numbers: both chains see the same chips.
        let stream = CounterRng::new(d.next_word(), "sigma_scale_scales_measured_variation");
        let sa = ChainMc::new(&base, 10).summary(Volts(0.6), 800, &stream);
        let sb = ChainMc::new(&scaled, 10).summary(Volts(0.6), 800, &stream);
        let ratio = sb.cv() / sa.cv();
        // cv scales roughly linearly with sigma (first order).
        assert!(
            (ratio / scale - 1.0).abs() < 0.35,
            "scale {scale}: ratio {ratio}"
        );
    });
}

#[test]
fn sample_max_stochastically_dominates_in_n() {
    check("sample_max_stochastically_dominates_in_n", 64, |d| {
        let n = int(d, 2..500);
        // With common random numbers, max of n is >= max of 1 pathwise.
        let (mut rng_a, mut rng_b) = (d.clone(), d.clone());
        let one = order::sample_max_normal(&mut rng_a, 1, 0.0, 1.0);
        let many = order::sample_max_normal(&mut rng_b, n, 0.0, 1.0);
        assert!(many >= one - 1e-12);
    });
}

#[test]
fn path_distribution_quantile_survival_roundtrip() {
    use ntv_simd::core::engine::PathDistribution;
    check("path_distribution_quantile_survival_roundtrip", 32, |d| {
        let tech = TechModel::new(TechNode::ALL[int(d, 0..4)]);
        let vdd = float(d, 0.5, 0.8);
        let g_exp = float(d, 1.0, 6.0);
        let dist = PathDistribution::build(&tech, Volts(vdd), 50);
        // survival is monotone non-increasing and bounded.
        let m = dist.mean_ps();
        let mut prev = 1.0;
        for i in 0..20 {
            let x = m * (0.8 + 0.02 * f64::from(i));
            let s = dist.survival(x);
            assert!((0.0..=1.0).contains(&s));
            assert!(s <= prev + 1e-12);
            prev = s;
        }
        // A sampled max of 10^g_exp paths lies where its survival target says.
        let n = 10f64.powf(g_exp) as usize;
        let x = dist.sample_max(n.max(1), d);
        assert!(x.is_finite() && x > 0.0);
        assert!(dist.survival(x) <= 1.0);
    });
}

#[test]
fn histogram_conserves_every_sample() {
    use ntv_simd::mc::Histogram;
    check("histogram_conserves_every_sample", 32, |d| {
        let data: Vec<f64> = (0..int(d, 1..300))
            .map(|_| float(d, -1.0e3, 1.0e3))
            .collect();
        let bins = int(d, 1..40);
        let h = Histogram::from_samples(&data, bins);
        assert_eq!(h.total() as usize, data.len());
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    });
}

#[test]
fn memory_stage_unstage_roundtrip() {
    use ntv_simd::soda::memory::SimdMemory;
    check("memory_stage_unstage_roundtrip", 32, |d| {
        let rows = int(d, 1..8);
        let base = int(d, 0..200);
        let data = samples_i16(d, rows * 128, 65535.0, 32768.0);
        let mut mem = SimdMemory::new();
        if base + rows <= 256 {
            mem.stage(base, &data).expect("fits");
            assert_eq!(mem.unstage(base, rows).expect("fits"), data);
        } else {
            assert!(mem.stage(base, &data).is_err());
        }
    });
}

#[test]
fn shuffle_composition_is_associative() {
    check("shuffle_composition_is_associative", 32, |d| {
        let (s1, s2) = (int(d, 0..128), int(d, 0..128));
        let data = samples_i16(d, 128, 1000.0, 0.0);
        let a = ShuffleConfig::rotate(128, s1);
        let b = ShuffleConfig::rotate(128, s2);
        let combined = ShuffleConfig::rotate(128, (s1 + s2) % 128);
        assert_eq!(b.apply(&a.apply(&data)), combined.apply(&data));
    });
}

#[test]
fn fft_is_approximately_linear() {
    check("fft_is_approximately_linear", 32, |d| {
        let a = samples_i16(d, 128, 8000.0, 4000.0);
        let b = samples_i16(d, 128, 8000.0, 4000.0);
        let sum: Vec<i16> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| x.saturating_add(y))
            .collect();
        let zeros = vec![0i16; 128];

        let mut pe = ProcessingElement::new();
        let (fa, _) = kernels::fft128(&mut pe, &a, &zeros).expect("runs");
        let mut pe = ProcessingElement::new();
        let (fb, _) = kernels::fft128(&mut pe, &b, &zeros).expect("runs");
        let mut pe = ProcessingElement::new();
        let (fs, _) = kernels::fft128(&mut pe, &sum, &zeros).expect("runs");
        for k in 0..128 {
            let lin = i32::from(fa[k]) + i32::from(fb[k]);
            assert!(
                (lin - i32::from(fs[k])).abs() <= 24,
                "bin {}: {} + {} vs {}",
                k,
                fa[k],
                fb[k],
                fs[k]
            );
        }
    });
}

#[test]
fn corners_bracket_monte_carlo_systematics() {
    use ntv_simd::device::Corner;
    check("corners_bracket_monte_carlo_systematics", 32, |d| {
        let tech = TechModel::new(TechNode::ALL[int(d, 0..4)]);
        let vdd = float(d, 0.5, 0.9);
        let ff = Corner::FastFast.fo4_delay_ps(&tech, Volts(vdd));
        let ss = Corner::SlowSlow.fo4_delay_ps(&tech, Volts(vdd));
        // 3-sigma corners bracket virtually all sampled systematic chips.
        for _ in 0..100 {
            let chip = tech.sample_chip(d);
            let delay =
                tech.gate_delay_ps(Volts(vdd), &chip, &ntv_simd::device::GateSample::nominal());
            assert!(
                delay > ff * 0.98 && delay < ss * 1.02,
                "d={delay} outside [{ff}, {ss}]"
            );
        }
    });
}

#[test]
fn exact_spares_do_not_rise_with_vdd() {
    check("exact_spares_do_not_rise_with_vdd", 32, |d| {
        let (tech, v1, v2) = node_and_two_voltages(d);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = DuplicationStudy::new(&engine);
        // An unsolvable point (more than 128 spares) ranks above every count,
        // so a solvable point must stay solvable at the higher voltage.
        let spares = |v| study.solve(v, 128).map_or(u32::MAX, |s| s.spares);
        assert!(spares(v2) <= spares(v1), "{v1} -> {v2}");
    });
}

#[test]
fn default_margin_does_not_rise_with_vdd() {
    check("default_margin_does_not_rise_with_vdd", 32, |d| {
        let (tech, v1, v2) = node_and_two_voltages(d);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        let study = MarginStudy::new(&engine);
        let margin = |v| study.solve(v, 0, 0).margin;
        assert!(margin(v2) <= margin(v1), "{v1} -> {v2}");
    });
}

#[test]
fn exact_drop_is_zero_at_nominal_and_falls_with_vdd() {
    check(
        "exact_drop_is_zero_at_nominal_and_falls_with_vdd",
        32,
        |d| {
            let (tech, v1, v2) = node_and_two_voltages(d);
            let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
            assert_eq!(performance_drop(&engine, tech.nominal_vdd()).drop, 0.0);
            let drop = |v| performance_drop(&engine, v).drop;
            assert!(drop(v2) <= drop(v1), "{v1} -> {v2}");
        },
    );
}

#[test]
fn comparison_prefers_the_cheaper_technique() {
    check("comparison_prefers_the_cheaper_technique", 32, |d| {
        let (tech, v1, v2) = node_and_two_voltages(d);
        let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
        for v in [v1, v2] {
            let p = compare_at(&engine, v, 128);
            assert_eq!(p.spares.is_some(), p.duplication_power.is_some());
            let duplication_cheaper = p
                .duplication_power
                .is_some_and(|dup| dup < p.margining_power);
            let want = if duplication_cheaper {
                Technique::Duplication
            } else {
                Technique::VoltageMargining
            };
            assert_eq!(p.preferred(), want, "{p:?}");
        }
    });
}
