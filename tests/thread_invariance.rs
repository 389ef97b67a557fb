//! Thread-count invariance: parallelism must never change results.
//!
//! Every Monte-Carlo draw is index-addressed (sample *i* is a pure function
//! of `(seed, stream label, i)`), so the [`Executor`]'s chunk-and-merge
//! schedule produces bit-identical output for **any** worker count. This
//! file pins that contract end-to-end — raw sample batches, experiment
//! tables, solver outputs, the whole paper run at 1, 2 and 8 threads and
//! the extensions run at 1 and 8 — which is what makes `repro --threads N`
//! a pure speed knob.

use std::time::Instant;

use ntv_bench::experiments::{fig2, fig4, fig6, table1};
use ntv_bench::repro;
use ntv_mc::CounterRng;
use ntv_simd::core::margining::MarginStudy;
use ntv_simd::core::{DatapathConfig, DatapathEngine, Evaluation, Executor};
use ntv_simd::device::{TechModel, TechNode};
use ntv_simd::units::Volts;

const SAMPLES: usize = 600;
const THREADS: [usize; 3] = [1, 2, 8];

/// Exact float equality is intended here: the executor contract is
/// bit-identity, not tolerance.
fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

#[test]
fn raw_sample_batches_are_thread_invariant() {
    let tech = TechModel::new(TechNode::Gp45);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let stream = CounterRng::new(2012, "invariance");
    let reference = engine.sample_batch(Volts(0.55), &stream, 0..2_000, Executor::serial());
    for threads in THREADS {
        let batch = engine.sample_batch(Volts(0.55), &stream, 0..2_000, Executor::new(threads));
        assert_eq!(batch.len(), reference.len());
        for (i, (a, b)) in reference.iter().zip(&batch).enumerate() {
            assert_bits(*a, *b, &format!("sample {i} at {threads} threads"));
        }
    }
}

#[test]
fn fig2_curves_are_thread_invariant() {
    let reference = fig2::run_with(SAMPLES, 7, Executor::serial());
    for threads in THREADS {
        let run = fig2::run_with(SAMPLES, 7, Executor::new(threads));
        for (ca, cb) in reference.curves.iter().zip(&run.curves) {
            assert_eq!(ca.node, cb.node);
            for (&(va, sa), &(vb, sb)) in ca.points.iter().zip(&cb.points) {
                assert_bits(va, vb, "voltage grid");
                assert_bits(
                    sa,
                    sb,
                    &format!("fig2 {} @{va} V, {threads} threads", ca.node),
                );
            }
        }
    }
}

#[test]
fn fig4_performance_drops_are_thread_invariant() {
    let reference = fig4::run_with(SAMPLES, 7, Executor::serial());
    for threads in THREADS {
        let run = fig4::run_with(SAMPLES, 7, Executor::new(threads));
        for (ca, cb) in reference.curves.iter().zip(&run.curves) {
            for (pa, pb) in ca.points.iter().zip(&cb.points) {
                assert_bits(
                    pa.q99_fo4,
                    pb.q99_fo4,
                    &format!("fig4 {} q99 @{} V, {threads} threads", ca.node, pa.vdd),
                );
                assert_bits(pa.drop, pb.drop, "fig4 drop");
            }
        }
    }
}

#[test]
fn fig6_distributions_are_thread_invariant() {
    let reference = fig6::run_with(SAMPLES, 5, Executor::serial());
    for threads in THREADS {
        let run = fig6::run_with(SAMPLES, 5, Executor::new(threads));
        assert_bits(reference.target_ns, run.target_ns, "fig6 target");
        for (ca, cb) in reference
            .voltage_curves
            .iter()
            .chain(&reference.spare_curves)
            .zip(run.voltage_curves.iter().chain(&run.spare_curves))
        {
            assert_eq!(ca.label, cb.label);
            assert_bits(
                ca.q99_ns,
                cb.q99_ns,
                &format!("fig6 `{}` q99, {threads} threads", ca.label),
            );
        }
    }
}

#[test]
fn table1_spare_solutions_are_thread_invariant() {
    let reference = table1::run_with(SAMPLES, 11, Executor::serial());
    for threads in THREADS {
        let run = table1::run_with(SAMPLES, 11, Executor::new(threads));
        for (ca, cb) in reference.cells.iter().zip(&run.cells) {
            assert_eq!(
                ca.spares, cb.spares,
                "table1 {} @{} V, {threads} threads",
                ca.node, ca.vdd
            );
        }
    }
}

#[test]
fn margin_solver_bisection_is_thread_invariant() {
    // The bisection takes data-dependent branches, so this checks that
    // common random numbers (not just batch merging) survive parallelism.
    let tech = TechModel::new(TechNode::PtmHp22);
    let engine = DatapathEngine::new(&tech, DatapathConfig::paper_default());
    let solve = |exec| {
        MarginStudy::new(&engine)
            .with_executor(exec)
            .with_evaluation(Evaluation::MonteCarlo)
            .solve(Volts(0.55), SAMPLES, 3)
    };
    let reference = solve(Executor::serial());
    for threads in THREADS {
        let sol = solve(Executor::new(threads));
        assert_bits(
            reference.margin.get(),
            sol.margin.get(),
            &format!("margin at {threads} threads"),
        );
        assert_bits(reference.power_overhead, sol.power_overhead, "power");
    }
}

/// Digest of the paper run's 15 section titles, one per line, without
/// their `[t = …]` stamps. The golden digest drops the header lines with
/// their stamps, so this is what pins the titles.
const TITLES_DIGEST: &str = "ed21da09adf51fa0";

#[test]
fn paper_run_matches_the_golden_digest_at_any_thread_count() {
    let golden = include_str!("../perf/golden.txt")
        .lines()
        .find_map(|l| l.strip_prefix("repro stdout "))
        .and_then(|rest| rest.split_whitespace().last())
        .expect("perf/golden.txt has a `repro stdout` line");
    for threads in THREADS {
        let mut out = Vec::new();
        repro::write(&mut out, Executor::new(threads), Instant::now()).expect("a Vec accepts");
        let stdout = String::from_utf8(out).expect("the paper run prints UTF-8");
        assert_eq!(
            format!("{:016x}", repro::digest(&stdout)),
            golden,
            "paper run at {threads} threads"
        );
        let titles: Vec<&str> = stdout
            .lines()
            .filter_map(|l| l.split_once("  [t = ").map(|(title, _)| title))
            .collect();
        assert_eq!(titles.len(), repro::SECTIONS.len());
        assert_eq!(
            format!("{:016x}", repro::digest(&titles.join("\n"))),
            TITLES_DIGEST,
            "section titles at {threads} threads"
        );
    }
}

/// Digest of the `extensions` binary's stdout (`repro::write_extensions`)
/// under `repro::digest`'s rule. It moves only when an extension's printed
/// output changes on purpose.
const EXTENSIONS_DIGEST: &str = "9435e4ddf2586bd5";

#[test]
fn extensions_run_matches_its_golden_digest_at_1_and_8_threads() {
    for threads in [1, 8] {
        let mut out = Vec::new();
        repro::write_extensions(&mut out, Executor::new(threads)).expect("a Vec accepts");
        let stdout = String::from_utf8(out).expect("the extensions run prints UTF-8");
        assert_eq!(
            format!("{:016x}", repro::digest(&stdout)),
            EXTENSIONS_DIGEST,
            "extensions run at {threads} threads"
        );
    }
}
