//! Fixture-based integration tests for `cargo xtask lint`.
//!
//! Every rule in `RuleId::ALL` has a `tests/fixtures/*/bad_*.rs` file that
//! must trigger the diagnostic its name advertises; the clean fixtures and
//! the real workspace must lint clean. The binary is also exercised
//! end-to-end so the exit-code contract (0 clean / 1 violations) is pinned.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use xtask::{engine, RuleId};

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel)
}

/// Lint one fixture through the library API, returning the rules that fired.
fn lint_rules(rel: &str) -> Vec<RuleId> {
    let path = fixture(rel);
    let source = std::fs::read_to_string(&path).expect("fixture exists");
    // Classify under the fixture's workspace-relative path.
    let ws_rel = Path::new("crates/xtask/tests/fixtures").join(rel);
    let mut rules: Vec<RuleId> = engine::lint_source(&ws_rel, &source)
        .into_iter()
        .map(|d| d.rule)
        .collect();
    rules.dedup();
    rules
}

/// The canary table: one firing fixture per rule, and every rule in the
/// catalog has a row — a rule nothing can trip fails here by name.
#[test]
fn each_bad_fixture_triggers_its_rule() {
    let cases = [
        ("library/bad_small_rng.rs", RuleId::StatefulRng),
        ("library/bad_partial_cmp.rs", RuleId::PartialCmpUnwrap),
        ("library/bad_bare_unit.rs", RuleId::BareUnit),
        ("library/bad_waiver.rs", RuleId::BadWaiver),
        ("library/bad_panic_path.rs", RuleId::PanicPath),
        ("library/bad_lock_discipline.rs", RuleId::LockDiscipline),
        ("library/bad_reduction_order.rs", RuleId::ReductionOrder),
        ("library/bad_lossy_cast.rs", RuleId::LossyCast),
        ("library/bad_unit_escape.rs", RuleId::UnitEscape),
        ("library/bad_hidden_io.rs", RuleId::HiddenIo),
        ("harness/bad_lock_order_cycle.rs", RuleId::LockOrderCycle),
        ("harness/bad_atomic_ordering.rs", RuleId::AtomicOrdering),
        (
            "harness/bad_blocking_under_lock.rs",
            RuleId::BlockingUnderLock,
        ),
        ("library/bad_test_only_api.rs", RuleId::TestOnlyApi),
        ("library/bad_dead_waiver.rs", RuleId::DeadWaiver),
    ];
    // Dead waivers are only reported under --check-waivers.
    let check = engine::LintOptions {
        check_waivers: true,
        ..engine::LintOptions::default()
    };
    for (rel, rule) in cases {
        let source = std::fs::read_to_string(fixture(rel)).expect("fixture exists");
        let ws_rel = Path::new("crates/xtask/tests/fixtures").join(rel);
        let rules: Vec<RuleId> = engine::lint_sources(&[(ws_rel, source)], &check)
            .diagnostics
            .iter()
            .map(|d| d.rule)
            .collect();
        assert!(
            rules.contains(&rule),
            "{rel}: expected {} among {rules:?}",
            rule.name()
        );
    }
    let covered: BTreeSet<RuleId> = cases.iter().map(|&(_, rule)| rule).collect();
    let all: BTreeSet<RuleId> = RuleId::ALL.iter().copied().collect();
    assert_eq!(covered, all, "every rule needs a firing fixture");
}

#[test]
fn clean_library_fixture_passes() {
    assert_eq!(lint_rules("library/clean.rs"), vec![], "library/clean.rs");
}

#[test]
fn bare_unit_fixture_flags_every_shape_and_waiver_silences() {
    let source =
        std::fs::read_to_string(fixture("library/bad_bare_unit.rs")).expect("fixture exists");
    let ws_rel = Path::new("crates/xtask/tests/fixtures/library/bad_bare_unit.rs");
    let diags = engine::lint_source(ws_rel, &source);
    // vdd param, nominal_vdd return, doc-typed clock_period return, and the
    // (f64, f64) vdd_bounds tuple.
    assert_eq!(diags.len(), 4, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == RuleId::BareUnit));

    assert_eq!(
        lint_rules("library/waived_bare_unit.rs"),
        vec![],
        "library/waived_bare_unit.rs"
    );
}

#[test]
fn panic_path_fixture_flags_every_shape_and_waivers_silence() {
    let source =
        std::fs::read_to_string(fixture("library/bad_panic_path.rs")).expect("fixture exists");
    let ws_rel = Path::new("crates/xtask/tests/fixtures/library/bad_panic_path.rs");
    let diags = engine::lint_source(ws_rel, &source);
    // The helper's expect and the param index.
    assert_eq!(diags.len(), 2, "{diags:#?}");
    assert!(diags.iter().all(|d| d.rule == RuleId::PanicPath));
    assert!(
        diags.iter().any(|d| d.message.contains("::pick`")
            && d.message.contains("public API")
            && d.message.contains("::head`")),
        "{diags:#?}"
    );

    assert_eq!(
        lint_rules("library/waived_panic_path.rs"),
        vec![],
        "library/waived_panic_path.rs"
    );
    assert_eq!(
        lint_rules("library/waived_lock_discipline.rs"),
        vec![],
        "library/waived_lock_discipline.rs"
    );
}

/// `ntv::test-only-api` flags the fn only tests call, not the one a program
/// calls, and a waiver naming the tests it serves (or `#[cfg(test)]`)
/// silences it.
#[test]
fn test_only_api_fixture_flags_the_test_only_fn_and_waivers_silence() {
    let source =
        std::fs::read_to_string(fixture("library/bad_test_only_api.rs")).expect("fixture exists");
    let ws_rel = Path::new("crates/xtask/tests/fixtures/library/bad_test_only_api.rs");
    let diags = engine::lint_source(ws_rel, &source);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert_eq!(diags[0].rule, RuleId::TestOnlyApi);
    assert_eq!(diags[0].line, 16, "{diags:#?}");
    assert!(diags[0].message.contains("::oracle`"), "{diags:#?}");

    let check = engine::LintOptions {
        check_waivers: true,
        ..engine::LintOptions::default()
    };
    let source = std::fs::read_to_string(fixture("library/waived_test_only_api.rs"))
        .expect("fixture exists");
    let ws_rel = Path::new("crates/xtask/tests/fixtures/library/waived_test_only_api.rs");
    let report = engine::lint_sources(&[(ws_rel.to_path_buf(), source)], &check);
    assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
}

/// Cross-file reachability: each half of the pair is clean alone; linted
/// together, the public entry point in one file makes the `.expect(..)` in
/// the other a `ntv::panic-path` finding.
#[test]
fn cross_file_pair_connects_only_when_linted_together() {
    assert_eq!(lint_rules("library/graph_entry.rs"), vec![]);
    assert_eq!(lint_rules("library/graph_helper.rs"), vec![]);

    let files: Vec<(PathBuf, String)> = ["graph_entry.rs", "graph_helper.rs"]
        .iter()
        .map(|name| {
            let source = std::fs::read_to_string(fixture(&format!("library/{name}")))
                .expect("fixture exists");
            let ws_rel = Path::new("crates/xtask/tests/fixtures/library").join(name);
            (ws_rel, source)
        })
        .collect();
    let report = engine::lint_sources(&files, &engine::LintOptions::default());
    assert_eq!(report.diagnostics.len(), 1, "{:#?}", report.diagnostics);
    let d = &report.diagnostics[0];
    assert_eq!(d.rule, RuleId::PanicPath);
    assert!(d.file.ends_with("graph_helper.rs"), "{d:?}");
    assert!(
        d.message.contains("::helper_pick`")
            && d.message.contains("public API")
            && d.message.contains("::entry`"),
        "{d:?}"
    );
}

/// The dataflow rules flag every advertised shape, and their waived
/// counterparts (waivers + carve-outs) lint clean.
#[test]
fn dataflow_fixtures_flag_every_shape_and_waivers_silence() {
    let diags = |name: &str| {
        let source =
            std::fs::read_to_string(fixture(&format!("library/{name}"))).expect("fixture exists");
        let ws_rel = Path::new("crates/xtask/tests/fixtures/library").join(name);
        engine::lint_source(&ws_rel, &source)
    };

    // Loop `+=`, `.sum::<f64>()`, and the `*=` product — one hit each.
    let red = diags("bad_reduction_order.rs");
    assert_eq!(red.len(), 3, "{red:#?}");
    assert!(red.iter().all(|d| d.rule == RuleId::ReductionOrder));

    // f64→usize, f64→f32, len→u16 — one hit each.
    let cast = diags("bad_lossy_cast.rs");
    assert_eq!(cast.len(), 3, "{cast:#?}");
    assert!(cast.iter().all(|d| d.rule == RuleId::LossyCast));

    // Direct tail `.0`, escape via a local, and the tuple — one per fn.
    let esc = diags("bad_unit_escape.rs");
    assert_eq!(esc.len(), 3, "{esc:#?}");
    assert!(esc.iter().all(|d| d.rule == RuleId::UnitEscape));

    for name in [
        "waived_reduction_order.rs",
        "waived_lossy_cast.rs",
        "waived_unit_escape.rs",
    ] {
        assert_eq!(lint_rules(&format!("library/{name}")), vec![], "{name}");
    }
}

/// `ntv::hidden-io` flags every advertised shape, and waivers stating the
/// invariant silence it.
#[test]
fn hidden_io_fixture_flags_every_shape_and_waivers_silence() {
    let source =
        std::fs::read_to_string(fixture("library/bad_hidden_io.rs")).expect("fixture exists");
    let ws_rel = Path::new("crates/xtask/tests/fixtures/library/bad_hidden_io.rs");

    // println! in a reachable helper + direct std::io grab — one hit each.
    let io = engine::lint_source(ws_rel, &source);
    assert_eq!(io.len(), 2, "{io:#?}");
    assert!(io.iter().all(|d| d.rule == RuleId::HiddenIo));
    assert!(
        io.iter().any(|d| d.message.contains("`println!`")
            && d.message.contains("::emit`")
            && d.message.contains("::report`")),
        "{io:#?}"
    );

    assert_eq!(
        lint_rules("library/waived_hidden_io.rs"),
        vec![],
        "library/waived_hidden_io.rs"
    );
}

/// The concurrency rules flag every advertised shape in harness-classed
/// fixtures, and waivers stating the invariant silence each of them.
#[test]
fn concurrency_fixtures_flag_every_shape_and_waivers_silence() {
    let diags = |rel: &str| {
        let source = std::fs::read_to_string(fixture(rel)).expect("fixture exists");
        let ws_rel = Path::new("crates/xtask/tests/fixtures").join(rel);
        engine::lint_source(&ws_rel, &source)
    };

    // One cycle between the two opposite-order functions — one hit, with
    // the full witness chain in the message.
    let cycle = diags("harness/bad_lock_order_cycle.rs");
    assert_eq!(cycle.len(), 1, "{cycle:#?}");
    assert_eq!(cycle[0].rule, RuleId::LockOrderCycle);
    assert!(
        cycle[0].message.contains("JOURNAL")
            && cycle[0].message.contains("REGISTRY")
            && cycle[0].message.contains("::record`")
            && cycle[0].message.contains("::replay`"),
        "{cycle:#?}"
    );

    // The all-Relaxed peek on the CAS-guarded cell — one hit; the CAS's
    // Relaxed failure ordering stays clean.
    let atomic = diags("harness/bad_atomic_ordering.rs");
    assert_eq!(atomic.len(), 1, "{atomic:#?}");
    assert_eq!(atomic[0].rule, RuleId::AtomicOrdering);
    assert!(atomic[0].message.contains("Gate.free"), "{atomic:#?}");

    // recv() under the guard fires; the drop-then-recv twin stays clean.
    let blocking = diags("harness/bad_blocking_under_lock.rs");
    assert_eq!(blocking.len(), 1, "{blocking:#?}");
    assert_eq!(blocking[0].rule, RuleId::BlockingUnderLock);
    assert!(blocking[0].message.contains("recv"), "{blocking:#?}");

    for rel in [
        "harness/waived_lock_order_cycle.rs",
        "harness/waived_atomic_ordering.rs",
        "harness/waived_blocking_under_lock.rs",
    ] {
        assert_eq!(lint_rules(rel), vec![], "{rel}");
    }
}

/// Cross-file lock-order propagation: each half of the pair acquires the
/// `SplitPair` locks in a consistent order and is clean alone; linted
/// together, the opposite orders form an `ntv::lock-order-cycle`.
#[test]
fn lock_order_pair_cycles_only_when_linted_together() {
    assert_eq!(lint_rules("harness/cycle_split_a.rs"), vec![]);
    assert_eq!(lint_rules("harness/cycle_split_b.rs"), vec![]);

    let files: Vec<(PathBuf, String)> = ["cycle_split_a.rs", "cycle_split_b.rs"]
        .iter()
        .map(|name| {
            let source = std::fs::read_to_string(fixture(&format!("harness/{name}")))
                .expect("fixture exists");
            let ws_rel = Path::new("crates/xtask/tests/fixtures/harness").join(name);
            (ws_rel, source)
        })
        .collect();
    let report = engine::lint_sources(&files, &engine::LintOptions::default());
    assert_eq!(report.diagnostics.len(), 1, "{:#?}", report.diagnostics);
    let d = &report.diagnostics[0];
    assert_eq!(d.rule, RuleId::LockOrderCycle);
    assert!(
        d.message.contains("SplitPair.left")
            && d.message.contains("SplitPair.right")
            && d.message.contains("::lr`")
            && d.message.contains("::rl`"),
        "{d:?}"
    );
}

/// `--report concurrency` emits a byte-identical sync-topology inventory
/// across runs, covering the serve stack's locks and atomics.
#[test]
fn concurrency_report_is_stable_and_covers_the_serve_stack() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let run = || {
        Command::new(bin)
            .args(["lint", "--report", "concurrency", "--quiet"])
            .current_dir(xtask::workspace_root())
            .output()
            .expect("xtask runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.status.code(), Some(0), "workspace must lint clean");
    assert_eq!(a.stdout, b.stdout, "report must be byte-identical");
    let report = String::from_utf8(a.stdout).expect("utf-8 report");
    assert!(
        report.contains("\"schema\": \"ntv-concurrency/2\""),
        "{report}"
    );
    // Sites are keyed by function and `nth`, so moving code leaves it alone.
    assert!(!report.contains("\"line\""), "{report}");
    // The op-point cache's entry map is the workspace's one real lock.
    assert!(
        report.contains("\"class\": \"OpPointCache.entries\", \"kind\": \"rwlock\""),
        "{report}"
    );
    // The admission gate's CAS handshake is inventoried with its mix of
    // orderings, and the waived seed load stays visible in the report.
    assert!(report.contains("\"class\": \"McGate.free\""), "{report}");
    assert!(report.contains("\"handshake\": true"), "{report}");
    assert!(report.contains("\"compare_exchange_weak\""), "{report}");
    // The shutdown flag and the stats counters are atomic classes too.
    assert!(report.contains("SeqCst"), "{report}");
    // The summary stays off the machine-read stream.
    assert!(!report.contains("xtask lint:"), "{report}");
}

/// Dead waivers are silent by default, reported under `--check-waivers`,
/// and an `ntv:allow(dead-waiver)` shield keeps an intentional one quiet.
#[test]
fn dead_waivers_only_fire_under_check_waivers() {
    let check = engine::LintOptions {
        check_waivers: true,
        ..engine::LintOptions::default()
    };
    let load = |name: &str| -> Vec<(PathBuf, String)> {
        let source =
            std::fs::read_to_string(fixture(&format!("library/{name}"))).expect("fixture exists");
        vec![(
            Path::new("crates/xtask/tests/fixtures/library").join(name),
            source,
        )]
    };

    assert_eq!(lint_rules("library/bad_dead_waiver.rs"), vec![]);
    let report = engine::lint_sources(&load("bad_dead_waiver.rs"), &check);
    assert_eq!(report.diagnostics.len(), 1, "{:#?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].rule, RuleId::DeadWaiver);
    assert!(
        report.diagnostics[0]
            .message
            .contains("ntv:allow(panic-path)"),
        "{:?}",
        report.diagnostics[0]
    );

    let shielded = engine::lint_sources(&load("waived_dead_waiver.rs"), &check);
    assert!(
        shielded.diagnostics.is_empty(),
        "shield must silence the rule: {:#?}",
        shielded.diagnostics
    );
}

#[test]
fn real_workspace_lints_clean() {
    let root = xtask::workspace_root();
    let report =
        engine::lint_workspace(&root, &engine::LintOptions::default()).expect("workspace scans");
    let errors: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
    assert!(
        errors.is_empty(),
        "workspace not clean:\n{}",
        errors.join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
}

/// The binary contract: exit 1 on a bad fixture, 0 on a clean one and on
/// the whole workspace.
#[test]
fn binary_exit_codes_match_the_contract() {
    let bin = env!("CARGO_BIN_EXE_xtask");

    let bad = Command::new(bin)
        .args(["lint", "--quiet"])
        .arg(fixture("library/bad_partial_cmp.rs"))
        .output()
        .expect("xtask runs");
    assert_eq!(bad.status.code(), Some(1), "bad fixture must exit 1");

    let clean = Command::new(bin)
        .args(["lint", "--quiet"])
        .arg(fixture("library/clean.rs"))
        .output()
        .expect("xtask runs");
    assert_eq!(clean.status.code(), Some(0), "clean fixture must exit 0");

    let workspace = Command::new(bin)
        .args(["lint", "--quiet"])
        .current_dir(xtask::workspace_root())
        .output()
        .expect("xtask runs");
    assert_eq!(
        workspace.status.code(),
        Some(0),
        "workspace must lint clean:\n{}",
        String::from_utf8_lossy(&workspace.stdout)
    );

    let warn_only = Command::new(bin)
        .args(["lint", "--warn-only", "--quiet"])
        .arg(fixture("library/bad_partial_cmp.rs"))
        .output()
        .expect("xtask runs");
    assert_eq!(
        warn_only.status.code(),
        Some(0),
        "--warn-only must always exit 0"
    );
}

/// `--format json` emits a parseable, (file, line, rule)-sorted report on
/// stdout that is byte-identical across runs; the summary goes to stderr.
#[test]
fn json_format_is_stable_and_machine_readable() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let run = || {
        Command::new(bin)
            .args(["lint", "--format", "json", "--warn-only"])
            .arg(fixture("library/bad_bare_unit.rs"))
            .arg(fixture("library/bad_partial_cmp.rs"))
            .output()
            .expect("xtask runs")
    };

    let a = run();
    let b = run();
    assert_eq!(a.stdout, b.stdout, "json report must be byte-identical");
    let stdout = String::from_utf8(a.stdout).expect("utf-8 json");
    assert!(stdout.trim_start().starts_with('['), "{stdout}");
    assert!(stdout.trim_end().ends_with(']'), "{stdout}");
    for key in [
        "\"file\":",
        "\"line\":",
        "\"rule\":",
        "\"severity\":",
        "\"message\":",
    ] {
        assert!(stdout.contains(key), "missing {key} in {stdout}");
    }
    assert!(stdout.contains("ntv::bare-unit"), "{stdout}");
    assert!(stdout.contains("ntv::partial-cmp-unwrap"), "{stdout}");
    // Sorted by file: bad_bare_unit.rs diagnostics come before bad_partial_cmp.rs.
    let first = stdout.find("bad_bare_unit.rs").expect("bare-unit file");
    let second = stdout.find("bad_partial_cmp.rs").expect("partial-cmp file");
    assert!(first < second, "{stdout}");
    // The summary must not pollute the machine-read stream.
    assert!(!stdout.contains("xtask lint:"), "{stdout}");
    let stderr = String::from_utf8_lossy(&a.stderr);
    assert!(stderr.contains("xtask lint:"), "{stderr}");

    // An empty report is the empty array, not the empty string.
    let clean = Command::new(bin)
        .args(["lint", "--format", "json"])
        .arg(fixture("library/clean.rs"))
        .output()
        .expect("xtask runs");
    assert_eq!(String::from_utf8_lossy(&clean.stdout).trim(), "[]");
}

/// `--format sarif` emits a SARIF 2.1.0 log that is byte-identical across
/// runs and agrees with the JSON report on (file, line, rule).
#[test]
fn sarif_format_is_stable_and_complete() {
    let bin = env!("CARGO_BIN_EXE_xtask");
    let run = |format: &str| {
        Command::new(bin)
            .args(["lint", "--format", format, "--warn-only"])
            .arg(fixture("library/bad_bare_unit.rs"))
            .arg(fixture("library/bad_hidden_io.rs"))
            .arg(fixture("library/bad_lossy_cast.rs"))
            .arg(fixture("library/bad_reduction_order.rs"))
            .arg(fixture("library/bad_unit_escape.rs"))
            .arg(fixture("library/bad_partial_cmp.rs"))
            .arg(fixture("harness/bad_lock_order_cycle.rs"))
            .arg(fixture("harness/bad_atomic_ordering.rs"))
            .arg(fixture("harness/bad_blocking_under_lock.rs"))
            .output()
            .expect("xtask runs")
    };

    let a = run("sarif");
    let b = run("sarif");
    assert_eq!(a.stdout, b.stdout, "sarif log must be byte-identical");
    let sarif = String::from_utf8(a.stdout).expect("utf-8 sarif");
    assert!(
        sarif.contains("\"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\""),
        "{sarif}"
    );
    assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"name\": \"ntv-xtask-lint\""), "{sarif}");
    // Full rule catalog, including the semantic rules.
    for rule in RuleId::ALL {
        assert!(
            sarif.contains(&format!("\"id\": \"{}\"", rule.name())),
            "{}",
            rule.name()
        );
    }

    // Results agree with the JSON report on (file, line, rule).
    let json = String::from_utf8(run("json").stdout).expect("utf-8 json");
    let mut json_keys: Vec<(String, u32, String)> = Vec::new();
    for obj in json.split("{\"file\":").skip(1) {
        let field = |key: &str| -> String {
            let tail = obj.split(&format!("\"{key}\":")).nth(1).unwrap_or(obj);
            tail.trim_start_matches([' ', '"'])
                .split(['"', ',', '}'])
                .next()
                .unwrap_or_default()
                .to_string()
        };
        let file = obj
            .trim_start_matches([' ', '"'])
            .split('"')
            .next()
            .expect("split yields at least one piece")
            .to_string();
        json_keys.push((file, field("line").parse().unwrap_or(0), field("rule")));
    }
    assert!(!json_keys.is_empty());
    let sarif_results = sarif.matches("\"ruleId\"").count();
    assert_eq!(sarif_results, json_keys.len(), "result counts must agree");
    for (file, line, rule) in &json_keys {
        assert!(sarif.contains(&format!("\"ruleId\": \"{rule}\"")), "{rule}");
        assert!(sarif.contains(&format!("\"uri\": \"{file}\"")), "{file}");
        assert!(sarif.contains(&format!("\"startLine\": {line}")), "{line}");
    }

    // A clean lint still emits a valid log with an empty results array.
    let clean = Command::new(bin)
        .args(["lint", "--format", "sarif"])
        .arg(fixture("library/clean.rs"))
        .output()
        .expect("xtask runs");
    let clean_sarif = String::from_utf8_lossy(&clean.stdout);
    assert!(clean_sarif.contains("\"results\": []"), "{clean_sarif}");
}

/// `--check-waivers` flips the exit code on a dead waiver and stays 0 when
/// every waiver is live (the workspace itself must satisfy that).
#[test]
fn check_waivers_exit_codes() {
    let bin = env!("CARGO_BIN_EXE_xtask");

    let dead = Command::new(bin)
        .args(["lint", "--check-waivers", "--quiet"])
        .arg(fixture("library/bad_dead_waiver.rs"))
        .output()
        .expect("xtask runs");
    assert_eq!(dead.status.code(), Some(1), "dead waiver must exit 1");

    let without = Command::new(bin)
        .args(["lint", "--quiet"])
        .arg(fixture("library/bad_dead_waiver.rs"))
        .output()
        .expect("xtask runs");
    assert_eq!(
        without.status.code(),
        Some(0),
        "dead waivers are advisory without the flag"
    );

    let shielded = Command::new(bin)
        .args(["lint", "--check-waivers", "--quiet"])
        .arg(fixture("library/waived_dead_waiver.rs"))
        .output()
        .expect("xtask runs");
    assert_eq!(shielded.status.code(), Some(0), "shielded waiver must pass");

    let workspace = Command::new(bin)
        .args(["lint", "--check-waivers", "--quiet"])
        .current_dir(xtask::workspace_root())
        .output()
        .expect("xtask runs");
    assert_eq!(
        workspace.status.code(),
        Some(0),
        "workspace has a dead waiver:\n{}",
        String::from_utf8_lossy(&workspace.stdout)
    );
}
