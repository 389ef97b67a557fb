//! The paper run: every table and figure of the evaluation, in the order
//! and framing the `repro` binary prints them — the data behind
//! EXPERIMENTS.md.
//!
//! [`SECTIONS`] is the run, [`write()`] prints it, and [`digest`] is the
//! rule the behaviour contract pins it by (the `repro stdout` line of
//! `perf/golden.txt`). [`write_extensions`] prints the studies beyond the
//! paper, the `extensions` binary's output, which the same rule pins.

use std::io::{self, Write};
use std::time::Instant;

use ntv_core::{sensitivity, DatapathConfig, Executor};
use ntv_device::{TechModel, TechNode};
use ntv_units::Volts;

use crate::experiments::{
    extensions, fig1, fig11, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9, placement, policies,
    table1, table2, table3, table4,
};
use crate::{ARCH_SAMPLES as ARCH, CIRCUIT_SAMPLES as CIRCUIT, DEFAULT_SEED as SEED};

/// One section of the paper run: its title and its body at the default
/// sample counts and seed.
pub type Section = (&'static str, fn(Executor) -> String);

/// The body of a Monte-Carlo section: `$module::run_with` at `$samples`.
macro_rules! mc {
    ($module:ident, $samples:expr) => {
        |exec| $module::run_with($samples, SEED, exec).to_string()
    };
}

/// Every section of the paper run, in print order.
#[rustfmt::skip]
pub const SECTIONS: [Section; 15] = [
    ("Fig 1 — circuit-level delay variation (90nm)", mc!(fig1, CIRCUIT)),
    ("Fig 2 — chain-of-50 variation vs Vdd (4 nodes)", mc!(fig2, CIRCUIT)),
    ("Fig 3 — 128-wide delay distributions (90nm)", mc!(fig3, ARCH)),
    ("Fig 4 — performance drop (4 nodes)", mc!(fig4, ARCH)),
    ("Fig 5 — duplicated systems @0.55V (90nm)", mc!(fig5, ARCH)),
    ("Fig 6 — voltage margining distributions (45nm @600mV)", mc!(fig6, ARCH)),
    ("Fig 7 — duplication vs margining power (4 nodes)", mc!(fig7, ARCH)),
    ("Fig 8 — chip delay vs margin and spares (45nm @600mV)", mc!(fig8, ARCH)),
    ("Fig 9 — energy/delay regions", |_| {
        TechNode::ALL.map(|node| fig9::run_for(node).to_string()).join("\n")
    }),
    ("Fig 11 — variation vs chain length @0.55V", mc!(fig11, CIRCUIT)),
    ("Table 1 — structural duplication", mc!(table1, ARCH)),
    ("Table 2 — voltage margining", mc!(table2, ARCH)),
    ("Table 3 — combined design choices (45nm @600mV)", mc!(table3, ARCH)),
    ("Table 4 — frequency margining", mc!(table4, ARCH)),
    ("Appendix D — spare placement & XRAM bypass", |_| placement::run(SEED).to_string()),
];

/// Opening of the run's closing line, which carries its wall time.
const CLOSING: &str = "all experiments regenerated in";

/// Print the paper run to `out`. Each section's framed header, stamped
/// with the time since `started`, is written before its body is computed,
/// so a line-buffered `out` shows progress as the run goes.
///
/// # Errors
///
/// Returns the first error `out` reports.
pub fn write(out: &mut impl Write, exec: Executor, started: Instant) -> io::Result<()> {
    let rule = "=".repeat(72);
    for (title, body) in SECTIONS {
        let t = started.elapsed().as_secs_f64();
        writeln!(out, "\n{rule}\n{title}  [t = {t:.1}s]\n{rule}")?;
        writeln!(out, "{}", body(exec))?;
    }
    writeln!(
        out,
        "\n{CLOSING} {:.1}s (samples: arch {ARCH}, circuit {CIRCUIT}, seed {SEED}, threads {})",
        started.elapsed().as_secs_f64(),
        exec.threads()
    )
}

/// Print the studies beyond the paper to `out`: the SIMD-width sweeps, the
/// ABB comparisons, the timing-yield curves, the error policies, the
/// variance decompositions, the modelling ablations and the §3.1
/// Kogge–Stone cross-check. The output is bit-identical for any `exec`.
///
/// # Errors
///
/// Returns the first error `out` reports.
pub fn write_extensions(out: &mut impl Write, exec: Executor) -> io::Result<()> {
    let samples = 5_000;
    for node in [TechNode::Gp90, TechNode::PtmHp22] {
        let sweep = extensions::width_sweep_with(node, 0.55, samples, SEED, exec);
        writeln!(out, "{sweep}\n")?;
    }
    for node in TechNode::ALL {
        let abb = extensions::abb_comparison_with(node, 0.6, samples, SEED, exec);
        writeln!(out, "{abb}")?;
    }
    writeln!(out)?;
    writeln!(out, "{}", extensions::yield_curves(TechNode::Gp90, 0.55))?;
    writeln!(out)?;
    writeln!(out, "{}", policies::run(400, SEED))?;
    writeln!(out)?;
    for node in [TechNode::Gp90, TechNode::PtmHp22] {
        let tech = TechModel::new(node);
        let config = DatapathConfig::paper_default();
        let report = sensitivity::decompose(&tech, config, Volts(0.55), samples, SEED, exec);
        writeln!(
            out,
            "Extension — variance decomposition, {node} @0.55 V\n{report}"
        )?;
    }
    writeln!(out, "{}", extensions::ablations())?;
    writeln!(out)?;
    writeln!(
        out,
        "{}",
        extensions::kogge_stone_check_with(1_000, SEED, exec)
    )
}

/// FNV-1a 64-bit digest of a paper run's output without its wall-clock
/// lines: every section header (it carries the `[t = …]` stamp) and the
/// closing line are dropped, and the kept lines are joined by `\n`.
#[must_use]
// ntv:allow(test-only-api): tests/thread_invariance.rs::paper_run_matches_the_golden_digest_at_any_thread_count checks the in-process run against perf/golden.txt with it, and tests/thread_invariance.rs::extensions_run_matches_its_golden_digest_at_1_and_8_threads checks write_extensions; perf keeps its own copy of the rule
pub fn digest(stdout: &str) -> u64 {
    let kept: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.contains("[t = ") && !l.starts_with(CLOSING))
        .collect();
    kept.join("\n").bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
