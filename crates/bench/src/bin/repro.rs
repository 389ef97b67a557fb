//! Run every experiment and print the full paper-vs-measured report —
//! the data behind EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p ntv-bench --bin repro [-- --threads N]
//! ```
//!
//! `--threads N` sets the worker threads (default: all hardware threads;
//! results are bit-identical for any value). The run itself is
//! [`ntv_bench::repro`].

use std::process::ExitCode;
use std::time::Instant;

use ntv_core::Executor;

#[expect(
    clippy::disallowed_methods,
    reason = "the front end stamps the start time and reads `--threads`"
)]
fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let threads = match args.as_slice() {
        [] => Some(0),
        [flag, n] if flag == "--threads" => n.parse::<usize>().ok(),
        _ => None,
    };
    let Some(threads) = threads else {
        eprintln!("usage: repro [--threads N]  (got `{}`)", args.join(" "));
        return ExitCode::FAILURE;
    };
    let exec = Executor::new(threads);
    // Stdout is line-buffered, so each header reaches the pipe before its
    // body is computed: perf's repro `setup_s` is the time to the first byte.
    if let Err(e) = ntv_bench::repro::write(&mut std::io::stdout().lock(), exec, started) {
        eprintln!("repro: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
