//! The lint engine: applies `rules::scan` hits to files according to the
//! workspace policy (file classes, inline waivers, `#[cfg(test)]` regions)
//! and renders diagnostics. Every surviving diagnostic is an error.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::concurrency;
use crate::dataflow;
use crate::effects;
use crate::graph;
use crate::lexer::{self, Token};
use crate::parser;
use crate::rules::{self, RuleId};
use crate::surface::{self, Role};

/// What kind of code a file contains, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Result-producing library code (`crates/*/src`, root `src/lib.rs`):
    /// every rule applies.
    Library,
    /// Test / example / bin-target code: determinism of the underlying
    /// libraries is what matters; panics are the idiomatic failure mode.
    Harness,
    /// The experiment crate (`crates/bench`) and the xtask tool: they
    /// print tables and read files, so only the rules that hold everywhere
    /// (NaN-unsafe orderings, waiver hygiene) apply.
    Tool,
    /// Not lint targets at all (vendored stubs, fixtures, generated output).
    Skip,
}

impl FileClass {
    /// Classify a path relative to the workspace root.
    #[must_use]
    pub fn classify(rel: &Path) -> FileClass {
        let p = rel.to_string_lossy().replace('\\', "/");
        // Lint fixtures opt into a class by directory name
        // (`tests/fixtures/library/bad_lossy_cast.rs` lints as Library
        // code), so `cargo xtask lint <fixture>` exercises the real policy;
        // the workspace walker never descends into fixtures.
        if let Some(idx) = p.find("tests/fixtures/") {
            let rest = &p[idx + "tests/fixtures/".len()..];
            return match rest.split('/').next() {
                Some("library") => FileClass::Library,
                Some("harness") => FileClass::Harness,
                Some("tool") => FileClass::Tool,
                _ => FileClass::Skip,
            };
        }
        if p.contains("vendor/")
            || p.contains("target/")
            || p.contains("fixtures/")
            || p.contains(".git/")
        {
            return FileClass::Skip;
        }
        if p.starts_with("crates/bench/") || p.starts_with("crates/xtask/") {
            return FileClass::Tool;
        }
        // The query service is deliberately effectful — sockets, wall-clock
        // idle timeouts, stderr logging — so the library-only purity rule
        // hidden-io does not apply to it.
        if p.starts_with("crates/serve/") {
            return FileClass::Harness;
        }
        let in_dir = |d: &str| p.starts_with(&format!("{d}/")) || p.contains(&format!("/{d}/"));
        if in_dir("tests") || in_dir("benches") || in_dir("examples") || in_dir("bin") {
            return FileClass::Harness;
        }
        FileClass::Library
    }

    /// Does `rule` apply to files of this class at all?
    #[must_use]
    pub fn rule_applies(self, rule: RuleId) -> bool {
        use FileClass::{Harness, Library, Skip};
        if self == Skip {
            return false;
        }
        match rule {
            // NaN-unsafe orderings poison experiments no matter where they
            // live, tests and benches included; a rotted waiver is likewise
            // a lie wherever it lives. The surface audit decides its own
            // scope (library crates' `src/`, ntv-serve and ntv-bench
            // included) from the path.
            RuleId::PartialCmpUnwrap
            | RuleId::BadWaiver
            | RuleId::DeadWaiver
            | RuleId::TestOnlyApi => true,
            // Stateful generators are a library-crate concern: result code
            // must draw through the counter-based API (harnesses do too,
            // by convention only).
            // Unit newtypes likewise police the cross-crate API surface
            // only: harness and bench code deliberately holds raw `f64`
            // grids and wraps at the call boundary. The call-graph rules
            // (public-API reachability, lock discipline) police library
            // internals, which harness/bench consumers cannot change.
            // The numeric-dataflow family polices result-producing library
            // code: reduction order and cast truncation only corrupt
            // *results*, and harness/bench/tool code is full of benign
            // display-width casts and timing sums. The hidden-io rule polices
            // the same surface: what a harness prints is its own business;
            // what a library drags in is every consumer's.
            RuleId::StatefulRng
            | RuleId::BareUnit
            | RuleId::PanicPath
            | RuleId::LockDiscipline
            | RuleId::ReductionOrder
            | RuleId::LossyCast
            | RuleId::UnitEscape
            | RuleId::HiddenIo => matches!(self, Library),
            // Concurrency soundness spans result code *and* the serve
            // stack: deadlock cycles, handshake orderings and blocking
            // under a guard are exactly where harness code bites, so
            // Library and Harness files are analysed as one topology.
            RuleId::LockOrderCycle | RuleId::AtomicOrdering | RuleId::BlockingUnderLock => {
                matches!(self, Library | Harness)
            }
        }
    }
}

/// One rendered diagnostic.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The violated rule.
    pub rule: RuleId,
    /// Workspace-relative path of the offending file.
    pub file: PathBuf,
    /// 1-based source line of the violation.
    pub line: u32,
    /// What was found.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "error[{}]: {}", self.rule.name(), self.message)?;
        writeln!(f, "  --> {}:{}", self.file.display(), self.line)?;
        write!(f, "  = help: {}", self.rule.help())
    }
}

/// Inclusive line ranges covered by `#[cfg(test)]` items.
#[derive(Debug, Default)]
struct TestRegions {
    ranges: Vec<(u32, u32)>,
}

impl TestRegions {
    fn contains(&self, line: u32) -> bool {
        self.ranges.iter().any(|&(a, b)| (a..=b).contains(&line))
    }
}

/// Find `#[cfg(test)]`-guarded items and return their brace-span line
/// ranges. Handles the common shapes: a guarded `mod … { … }` or `fn … { … }`
/// (any trailing attributes in between are skipped by brace-scanning to the
/// first `{`).
fn test_regions(tokens: &[Token]) -> TestRegions {
    let mut regions = TestRegions::default();
    let mut i = 0;
    while i + 6 < tokens.len() {
        let is_cfg_test = tokens[i].is_punct('#')
            && tokens[i + 1].is_punct('[')
            && tokens[i + 2].ident() == Some("cfg")
            && tokens[i + 3].is_punct('(')
            && tokens[i + 4].ident() == Some("test")
            && tokens[i + 5].is_punct(')')
            && tokens[i + 6].is_punct(']');
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // Scan forward to the first `{` (the guarded item's body) or a `;`
        // at nesting depth 0 (a guarded `use`/`mod name;` — no body).
        let mut j = i + 7;
        let mut body = None;
        while let Some(t) = tokens.get(j) {
            if t.is_punct('{') {
                body = Some(j);
                break;
            }
            if t.is_punct(';') {
                break;
            }
            j += 1;
        }
        if let Some(open) = body {
            let start_line = tokens[i].line;
            let mut depth = 0usize;
            let mut k = open;
            let mut end_line = tokens[open].line;
            while let Some(t) = tokens.get(k) {
                if t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        end_line = t.line;
                        break;
                    }
                }
                end_line = t.line;
                k += 1;
            }
            regions.ranges.push((start_line, end_line));
            i = open + 1;
        } else {
            i = j + 1;
        }
    }
    regions
}

/// One `ntv:allow(rule): reason` directive, with usage tracking so
/// `--check-waivers` can report waivers that suppress nothing.
#[derive(Debug)]
struct WaiverEntry {
    rule: RuleId,
    /// Comment line; the waiver covers this line and the next.
    line: u32,
    /// Set when the waiver suppresses at least one hit this run.
    used: bool,
}

/// Lines waived per rule by `// ntv:allow(rule, ...): reason` comments.
///
/// A waiver covers its own line and the following line, so it can trail the
/// offending expression or sit on the line above it.
#[derive(Debug, Default)]
struct Waivers {
    entries: Vec<WaiverEntry>,
    /// Malformed waivers become diagnostics themselves.
    bad: Vec<(u32, String)>,
}

fn parse_waivers(comments: &[lexer::Comment]) -> Waivers {
    let mut w = Waivers::default();
    for c in comments {
        // The directive must *start* the comment (after the `//`/`//!`/`/*`
        // sigils) — prose that merely mentions `ntv:allow(..)` mid-sentence,
        // like this lint's own documentation, is not a waiver.
        let trimmed = c.text.trim_start_matches(['/', '!', '*', ' ', '\t']);
        if !trimmed.starts_with("ntv:allow") {
            continue;
        }
        let rest = &trimmed["ntv:allow".len()..];
        let Some(open) = rest.find('(') else {
            w.bad.push((c.line, "missing `(rule)` list".to_string()));
            continue;
        };
        let Some(close) = rest.find(')') else {
            w.bad.push((c.line, "unclosed `(rule)` list".to_string()));
            continue;
        };
        let names = &rest[open + 1..close];
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            w.bad.push((
                c.line,
                "waiver has no reason — write `ntv:allow(rule): <why>`".to_string(),
            ));
            continue;
        }
        let mut any = false;
        for name in names.split(',') {
            if let Some(rule) = RuleId::from_waiver_name(name) {
                w.entries.push(WaiverEntry {
                    rule,
                    line: c.line,
                    used: false,
                });
                any = true;
            } else {
                w.bad
                    .push((c.line, format!("unknown rule `{}`", name.trim())));
            }
        }
        if !any && names.trim().is_empty() {
            w.bad.push((c.line, "empty rule list".to_string()));
        }
    }
    w
}

impl Waivers {
    /// Does a waiver cover `(rule, line)`? Marks every matching waiver as
    /// used — the suppression *and* its bookkeeping in one step.
    fn cover(&mut self, rule: RuleId, line: u32) -> bool {
        let mut any = false;
        for e in &mut self.entries {
            if e.rule == rule && (e.line == line || e.line + 1 == line) {
                e.used = true;
                any = true;
            }
        }
        any
    }
}

/// Per-invocation switches that are not scope (file classes): extra
/// analyses the caller opts into.
#[derive(Debug, Default, Clone)]
pub struct LintOptions {
    /// Report `ntv:allow(..)` waivers that suppressed zero findings this
    /// run as `ntv::dead-waiver` diagnostics (`xtask lint --check-waivers`).
    pub check_waivers: bool,
    /// Produce the concurrency inventory (`xtask lint --report
    /// concurrency`) in [`LintReport::concurrency`].
    pub concurrency: bool,
}

/// Everything the engine knows about one file mid-run.
struct FileState {
    rel: PathBuf,
    class: FileClass,
    lexed: lexer::LexedFile,
    parsed: parser::ParsedFile,
    regions: TestRegions,
    waivers: Waivers,
    diags: Vec<Diagnostic>,
}

/// Filter one raw hit through class → test-region → waiver and record the
/// surviving diagnostic. Waiver bookkeeping happens here: a waiver is
/// "used" iff it suppresses a hit its class/region let through.
fn apply_hit(st: &mut FileState, hit: rules::Hit) {
    if !st.class.rule_applies(hit.rule) {
        return;
    }
    // Test modules inside library crates follow harness rules: their
    // signatures, panics and sums are assertions, not results.
    if st.regions.contains(hit.line)
        && matches!(
            hit.rule,
            RuleId::BareUnit
                | RuleId::PanicPath
                | RuleId::LockDiscipline
                | RuleId::ReductionOrder
                | RuleId::LossyCast
                | RuleId::UnitEscape
                | RuleId::HiddenIo
                | RuleId::LockOrderCycle
                | RuleId::AtomicOrdering
                | RuleId::BlockingUnderLock
        )
    {
        return;
    }
    if st.waivers.cover(hit.rule, hit.line) {
        return;
    }
    st.diags.push(Diagnostic {
        rule: hit.rule,
        file: st.rel.clone(),
        line: hit.line,
        message: hit.message,
    });
}

/// Lint a set of files as one analysis unit.
///
/// The per-file token and signature rules run file-locally exactly as
/// before; the call-graph rules (`ntv::panic-path`, `ntv::lock-discipline`)
/// see every Library-class file in `files` at once, so reachability crosses
/// module and crate boundaries. Input order does not matter: files are
/// sorted by path before analysis and diagnostics come back sorted by
/// (file, line, rule).
#[must_use]
pub fn lint_sources(files: &[(PathBuf, String)], options: &LintOptions) -> LintReport {
    let mut states: Vec<FileState> = files
        .iter()
        .filter_map(|(rel, source)| {
            let class = FileClass::classify(rel);
            if class == FileClass::Skip {
                return None;
            }
            let lexed = lexer::lex(source);
            let parsed = parser::parse(&lexed);
            let regions = test_regions(&lexed.tokens);
            let waivers = parse_waivers(&lexed.comments);
            Some(FileState {
                rel: rel.clone(),
                class,
                lexed,
                parsed,
                regions,
                waivers,
                diags: Vec::new(),
            })
        })
        .collect();
    states.sort_by(|a, b| a.rel.cmp(&b.rel));

    // Per-file rules.
    for st in &mut states {
        let mut hits = rules::scan(&st.lexed.tokens);
        if st.class.rule_applies(RuleId::BareUnit) {
            hits.extend(rules::scan_signatures(&st.parsed));
        }
        if st.class.rule_applies(RuleId::LossyCast) {
            hits.extend(dataflow::file_hits(&st.lexed.tokens, &st.parsed));
        }
        for hit in hits {
            apply_hit(st, hit);
        }
    }

    // Call-graph rules over the Library-class subset.
    let lib_idx: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| s.class == FileClass::Library)
        .map(|(i, _)| i)
        .collect();
    if !lib_idx.is_empty() {
        let sem_hits = {
            let sem_files: Vec<graph::SemFile> = lib_idx
                .iter()
                .map(|&i| {
                    let s = &states[i];
                    graph::SemFile {
                        rel: &s.rel,
                        tokens: &s.lexed.tokens,
                        parsed: &s.parsed,
                        test_ranges: &s.regions.ranges,
                    }
                })
                .collect();
            let g = graph::Graph::build(&sem_files);
            let mut hits = g.panic_path_hits();
            hits.extend(g.lock_discipline_hits(&sem_files));
            hits.extend(dataflow::reduction_hits(&g, &sem_files));
            let eff = effects::Effects::collect(&g, &sem_files);
            hits.extend(effects::hidden_io_hits(&g, &eff));
            hits
        };
        for (fi, hit) in sem_hits {
            apply_hit(&mut states[lib_idx[fi]], hit);
        }
    }

    // Concurrency rules see Library *and* Harness files as one analysis
    // unit: the serve stack (Harness) and the core cache (Library) share
    // one lock/atomic topology, and an ABBA deadlock does not care which
    // class its halves live in.
    let conc_idx: Vec<usize> = states
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.class, FileClass::Library | FileClass::Harness))
        .map(|(i, _)| i)
        .collect();
    let mut concurrency_report = None;
    if !conc_idx.is_empty() {
        let conc_hits = {
            let sem_files: Vec<graph::SemFile> = conc_idx
                .iter()
                .map(|&i| {
                    let s = &states[i];
                    graph::SemFile {
                        rel: &s.rel,
                        tokens: &s.lexed.tokens,
                        parsed: &s.parsed,
                        test_ranges: &s.regions.ranges,
                    }
                })
                .collect();
            let g = graph::Graph::build(&sem_files);
            let eff = effects::Effects::collect(&g, &sem_files);
            let conc = concurrency::Concurrency::analyze(&g, &sem_files, &eff);
            if options.concurrency {
                concurrency_report = Some(conc.report().to_string());
            }
            conc.into_hits()
        };
        for (fi, hit) in conc_hits {
            apply_hit(&mut states[conc_idx[fi]], hit);
        }
    }

    // The public-surface audit sees every file's uses at once: a library
    // `pub fn` needs a caller in program code, wherever that code lives.
    let surface_idx: Vec<(usize, Role)> = states
        .iter()
        .enumerate()
        .filter_map(|(i, s)| Role::of(&s.rel, s.class).map(|role| (i, role)))
        .collect();
    let surface_hits = {
        let sem_files: Vec<graph::SemFile> = surface_idx
            .iter()
            .map(|&(i, _)| {
                let s = &states[i];
                graph::SemFile {
                    rel: &s.rel,
                    tokens: &s.lexed.tokens,
                    parsed: &s.parsed,
                    test_ranges: &s.regions.ranges,
                }
            })
            .collect();
        let roles: Vec<Role> = surface_idx.iter().map(|&(_, role)| role).collect();
        surface::test_only_api_hits(&sem_files, &roles)
    };
    for (fi, hit) in surface_hits {
        apply_hit(&mut states[surface_idx[fi].0], hit);
    }

    // Waiver hygiene: malformed waivers always, dead waivers on request.
    for st in &mut states {
        if !st.class.rule_applies(RuleId::BadWaiver) {
            continue;
        }
        let bad = std::mem::take(&mut st.waivers.bad);
        for (line, why) in bad {
            st.diags.push(Diagnostic {
                rule: RuleId::BadWaiver,
                file: st.rel.clone(),
                line,
                message: why,
            });
        }
    }
    if options.check_waivers {
        for st in &mut states {
            report_dead_waivers(st);
        }
    }

    let mut report = LintReport {
        files_scanned: files.len(),
        concurrency: concurrency_report,
        ..LintReport::default()
    };
    for st in states {
        report.diagnostics.extend(st.diags);
    }
    report.sort();
    report
}

/// Emit `ntv::dead-waiver` for every waiver that suppressed nothing.
///
/// A dead waiver can itself be waived — `// ntv:allow(dead-waiver): <why>`
/// on the line above keeps e.g. fixture waivers alive intentionally — and a
/// `dead-waiver` waiver is "used" exactly when it shields another waiver,
/// so the meta-level cannot rot either. Waivers inside `#[cfg(test)]`
/// regions are ignored: most rules don't fire there, so their waivers
/// legitimately suppress nothing.
fn report_dead_waivers(st: &mut FileState) {
    let n = st.waivers.entries.len();
    let mut dead: Vec<usize> = Vec::new();
    for i in 0..n {
        let e = &st.waivers.entries[i];
        if e.used || e.rule == RuleId::DeadWaiver || st.regions.contains(e.line) {
            continue;
        }
        let line = e.line;
        let shielded = st.waivers.entries.iter_mut().any(|d| {
            let covers = d.rule == RuleId::DeadWaiver && (d.line == line || d.line + 1 == line);
            if covers {
                d.used = true;
            }
            covers
        });
        if !shielded {
            dead.push(i);
        }
    }
    for i in dead {
        let e = &st.waivers.entries[i];
        st.diags.push(Diagnostic {
            rule: RuleId::DeadWaiver,
            file: st.rel.clone(),
            line: e.line,
            message: format!(
                "waiver `ntv:allow({})` suppresses no finding",
                e.rule.short_name()
            ),
        });
    }
}

/// Lint one file's source text.
///
/// `rel` is the workspace-relative path used for classification and
/// display. The call-graph rules see this file in isolation — cross-file
/// reachability needs [`lint_sources`] / [`lint_workspace`].
#[must_use]
pub fn lint_source(rel: &Path, source: &str) -> Vec<Diagnostic> {
    let files = [(rel.to_path_buf(), source.to_string())];
    lint_sources(&files, &LintOptions::default()).diagnostics
}

/// Recursively collect every `.rs` file under `root`, skipping `target`,
/// `vendor`, VCS metadata and lint fixtures. Sorted for deterministic output.
pub fn collect_rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "target" | "vendor" | ".git" | "fixtures") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lint every Rust file in the workspace rooted at `root`.
///
/// Diagnostics come back sorted by (file, line, rule), so two runs over the
/// same tree render byte-identical reports regardless of filesystem
/// enumeration order.
pub fn lint_workspace(root: &Path, options: &LintOptions) -> io::Result<LintReport> {
    let mut files = Vec::new();
    for path in collect_rust_files(root)? {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        files.push((rel, fs::read_to_string(&path)?));
    }
    Ok(lint_sources(&files, options))
}

/// Outcome of a lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Every diagnostic produced, in file order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// The concurrency inventory (`ntv-concurrency/1`), when
    /// [`LintOptions::concurrency`] was set.
    pub concurrency: Option<String>,
}

impl LintReport {
    /// Sort diagnostics by (file, line, rule) for byte-identical reports.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_path() -> PathBuf {
        PathBuf::from("crates/mc/src/order.rs")
    }

    #[test]
    fn classifies_workspace_layout() {
        let c = |p: &str| FileClass::classify(Path::new(p));
        assert_eq!(c("crates/mc/src/rng.rs"), FileClass::Library);
        assert_eq!(c("src/lib.rs"), FileClass::Library);
        assert_eq!(c("src/bin/ntv.rs"), FileClass::Harness);
        assert_eq!(c("tests/determinism.rs"), FileClass::Harness);
        assert_eq!(c("crates/circuit/tests/calibration.rs"), FileClass::Harness);
        assert_eq!(c("examples/quickstart.rs"), FileClass::Harness);
        assert_eq!(c("crates/bench/src/experiments/fig1.rs"), FileClass::Tool);
        assert_eq!(c("crates/serve/src/server.rs"), FileClass::Harness);
        assert_eq!(c("crates/serve/tests/http.rs"), FileClass::Harness);
        assert_eq!(c("crates/xtask/src/engine.rs"), FileClass::Tool);
        assert_eq!(c("vendor/rand/src/lib.rs"), FileClass::Skip);
        assert_eq!(c("crates/xtask/tests/fixtures/bad.rs"), FileClass::Skip);
    }

    #[test]
    fn library_violation_is_denied() {
        let d = lint_source(
            &lib_path(),
            "pub fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RuleId::PartialCmpUnwrap);
    }

    #[test]
    fn harness_files_may_cast_but_not_partial_cmp_unwrap() {
        let p = PathBuf::from("tests/determinism.rs");
        assert!(lint_source(&p, "pub fn f(x: f64) -> usize { x as usize }").is_empty());
        let d = lint_source(&p, "let o = a.partial_cmp(&b).unwrap();");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RuleId::PartialCmpUnwrap);
    }

    #[test]
    fn cfg_test_modules_follow_harness_rules() {
        let src = "
pub fn lib_code() -> u32 { 1 }

#[cfg(test)]
mod tests {
    pub fn solve(vdd: f64) -> f64 { vdd }

    #[test]
    fn t() {
        let n = 2.5_f64 as usize;
        assert_eq!(n, 2);
    }
}
";
        assert!(lint_source(&lib_path(), src).is_empty());
    }

    #[test]
    fn cast_outside_test_module_still_fires() {
        let src = "
pub fn lib_code(x: f64) -> usize { x as usize }

#[cfg(test)]
mod tests {}
";
        let d = lint_source(&lib_path(), src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RuleId::LossyCast);
        assert_eq!(d[0].line, 2);
    }

    #[test]
    fn waiver_with_reason_suppresses_same_and_next_line() {
        let cmp = "let o = a.partial_cmp(&b).unwrap();";
        let trailing = format!("{cmp} // ntv:allow(partial-cmp-unwrap): inputs are NaN-free");
        assert!(lint_source(&lib_path(), &trailing).is_empty());
        let above = format!("// ntv:allow(partial-cmp-unwrap): inputs are NaN-free\n{cmp}");
        assert!(lint_source(&lib_path(), &above).is_empty());
    }

    #[test]
    fn waiver_without_reason_is_itself_a_violation() {
        let src = "let o = a.partial_cmp(&b).unwrap(); // ntv:allow(partial-cmp-unwrap)";
        let d = lint_source(&lib_path(), src);
        // The ordering still fires AND the waiver is flagged.
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|x| x.rule == RuleId::BadWaiver));
        assert!(d.iter().any(|x| x.rule == RuleId::PartialCmpUnwrap));
    }

    #[test]
    fn waiver_only_covers_named_rule() {
        let src = "let o = a.partial_cmp(&b).unwrap(); // ntv:allow(bare-unit): wrong rule named";
        let d = lint_source(&lib_path(), src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, RuleId::PartialCmpUnwrap);
    }

    #[test]
    fn bare_unit_fires_in_library_but_not_harness_or_tool() {
        let src = "pub fn solve(vdd: f64) -> f64 { vdd }";
        let d = lint_source(&lib_path(), src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, RuleId::BareUnit);
        let harness = PathBuf::from("tests/determinism.rs");
        assert!(lint_source(&harness, src).is_empty());
        let bench = PathBuf::from("crates/bench/src/experiments/fig4.rs");
        assert!(lint_source(&bench, src).is_empty());
    }

    #[test]
    fn bare_unit_respects_waivers_and_test_regions() {
        let waived = "// ntv:allow(bare-unit): plotting boundary, wrapped by the one caller\n\
                      pub fn solve(vdd: f64) -> f64 { vdd }";
        assert!(lint_source(&lib_path(), waived).is_empty());
        let in_tests = "#[cfg(test)]\nmod tests {\n    pub fn solve(vdd: f64) -> f64 { vdd }\n}";
        assert!(lint_source(&lib_path(), in_tests).is_empty());
    }

    #[test]
    fn reports_sort_by_file_then_line_then_rule() {
        let mut r = LintReport::default();
        let diag = |file: &str, line: u32, rule: RuleId| Diagnostic {
            rule,
            file: PathBuf::from(file),
            line,
            message: String::new(),
        };
        r.diagnostics = vec![
            diag("b.rs", 1, RuleId::PartialCmpUnwrap),
            diag("a.rs", 9, RuleId::LossyCast),
            diag("a.rs", 9, RuleId::PartialCmpUnwrap),
            diag("a.rs", 2, RuleId::PartialCmpUnwrap),
        ];
        r.sort();
        let key: Vec<(String, u32)> = r
            .diagnostics
            .iter()
            .map(|d| (d.file.display().to_string(), d.line))
            .collect();
        assert_eq!(
            key,
            vec![
                ("a.rs".to_string(), 2),
                ("a.rs".to_string(), 9),
                ("a.rs".to_string(), 9),
                ("b.rs".to_string(), 1),
            ]
        );
        assert_eq!(r.diagnostics[1].rule, RuleId::PartialCmpUnwrap);
        assert_eq!(r.diagnostics[2].rule, RuleId::LossyCast);
    }

    #[test]
    fn diagnostics_render_with_file_and_line() {
        let d = lint_source(&lib_path(), "\n\nlet o = a.partial_cmp(&b).unwrap();");
        let text = d[0].to_string();
        assert!(text.contains("error[ntv::partial-cmp-unwrap]"), "{text}");
        assert!(text.contains("crates/mc/src/order.rs:3"), "{text}");
        assert!(text.contains("help:"), "{text}");
    }
}
