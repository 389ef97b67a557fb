//! `repro`'s stdout is part of the behaviour contract. Its digest is
//! recorded in `perf/golden.txt`; this pins it under `cargo test`, in every
//! feature configuration the workspace tests run in.

use std::process::Command;

const GOLDEN: &str = include_str!("../../../perf/golden.txt");

/// FNV-1a 64-bit digest, the hash `perf` records.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn repro_stdout_matches_the_golden_digest() {
    let expected = GOLDEN
        .lines()
        .find_map(|l| l.strip_prefix("repro stdout "))
        .and_then(|rest| rest.split_whitespace().last())
        .expect("perf/golden.txt has a `repro stdout` line");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--threads", "2"])
        .output()
        .expect("repro runs");
    assert!(out.status.success(), "repro exited with {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("repro prints UTF-8");
    // Wall-clock lines are the only bytes allowed to vary between runs.
    let kept: Vec<&str> = stdout
        .lines()
        .filter(|l| !l.contains("[t = ") && !l.starts_with("all experiments regenerated in"))
        .collect();
    let digest = format!("{:016x}", fnv1a64(kept.join("\n").as_bytes()));
    assert_eq!(digest, expected, "repro stdout changed");
}
