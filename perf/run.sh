#!/usr/bin/env bash
# Build the programs under test (ntv, repro) and the benchmark binary, then
# run the benchmark with the given arguments. Run from the repository root:
#
#   bash perf/run.sh --workload serve_hot --seed 2012 --seconds 10 --trace 0
#
# Everything builds into $CARGO_TARGET_DIR (default: target); cargo's own
# output goes to stderr, so stdout carries only the benchmark's report.
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates || ! -f perf/Cargo.toml ]]; then
    echo "perf/run.sh: run from the repository root (Cargo.toml, crates/ and perf/ not found)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --offline --release --quiet -p ntv-simd --bin ntv -p ntv-bench --bin repro >&2
cargo build --offline --release --quiet --manifest-path perf/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perf" --bin-dir "$CARGO_TARGET_DIR/release" "$@"
