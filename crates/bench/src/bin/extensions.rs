//! Run the extension experiments (SIMD-width sweep, adaptive body bias,
//! timing-yield curves, error policies, variance decomposition, modelling
//! ablations) that go beyond the paper's printed figures, and the §3.1
//! Kogge–Stone cross-check. The run itself is
//! [`ntv_bench::repro::write_extensions`].

use std::process::ExitCode;

use ntv_core::Executor;

fn main() -> ExitCode {
    let out = &mut std::io::stdout().lock();
    if let Err(e) = ntv_bench::repro::write_extensions(out, Executor::default()) {
        eprintln!("extensions: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
