//! CLI for `cargo xtask` — see `lib.rs` for the architecture.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use xtask::{engine, json, sarif, RuleId};

const USAGE: &str = "\
usage: cargo xtask <command>

commands:
  lint [options] [paths...]   run the determinism / numerical-safety lint
                              over the workspace (default) or specific files
  help                        show this message

lint options:
  --list-rules     print every rule with its help text and exit
  --warn-only      report violations but always exit 0
  --rule <name>    only report the named rule (repeatable; short or
                   ntv::-prefixed names)
  --quiet          print only the summary line
  --format <fmt>   output format: text (default), json, or sarif — json
                   emits a stable (file, line, rule)-sorted array, sarif a
                   SARIF 2.1.0 document, both on stdout with the summary on
                   stderr; both are byte-identical across runs
  --check-waivers  additionally deny `ntv:allow(..)` waivers that suppress
                   zero findings (dead waivers)
  --report <name>  emit a machine-readable analysis report on stdout
                   (summary and diagnostics go to stderr). The one report:
                   concurrency — the sync-topology inventory: every lock
                   class with its acquisition sites, the lock-order graph
                   edges with witnesses, and every atomic class with its
                   per-op orderings and handshake flag; byte-identical
                   across runs
  --bench-out <p>  write {files_scanned, diagnostics, wall_ms} JSON to <p>
                   after linting (perf baseline for the call-graph pass)

exit status: 0 clean, 1 deny-level diagnostics found, 2 usage or I/O error";

fn main() -> ExitCode {
    #[expect(clippy::disallowed_methods, reason = "the CLI reads its own arguments")]
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(&args[1..]),
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`\n\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum Format {
    Text,
    Json,
    Sarif,
}

fn lint(args: &[String]) -> ExitCode {
    let mut warn_only = false;
    let mut quiet = false;
    let mut check_waivers = false;
    let mut concurrency = false;
    let mut format = Format::Text;
    let mut bench_out: Option<PathBuf> = None;
    let mut only_rules: Vec<RuleId> = Vec::new();
    let mut paths: Vec<PathBuf> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--list-rules" => {
                for rule in RuleId::ALL {
                    println!("{:<24} {}", rule.name(), rule.help());
                }
                return ExitCode::SUCCESS;
            }
            "--warn-only" => warn_only = true,
            "--quiet" => quiet = true,
            "--rule" => match it.next().and_then(|n| RuleId::from_waiver_name(n)) {
                Some(rule) => only_rules.push(rule),
                None => {
                    eprintln!("xtask lint: --rule needs a known rule name (see --list-rules)");
                    return ExitCode::from(2);
                }
            },
            "--check-waivers" => check_waivers = true,
            "--report" => match it.next().map(String::as_str) {
                Some("concurrency") => concurrency = true,
                _ => {
                    eprintln!("xtask lint: --report needs `concurrency`");
                    return ExitCode::from(2);
                }
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                Some("sarif") => format = Format::Sarif,
                _ => {
                    eprintln!("xtask lint: --format needs `text`, `json` or `sarif`");
                    return ExitCode::from(2);
                }
            },
            "--bench-out" => match it.next() {
                Some(p) => bench_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("xtask lint: --bench-out needs a path");
                    return ExitCode::from(2);
                }
            },
            flag if flag.starts_with('-') => {
                eprintln!("xtask lint: unknown flag `{flag}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
            path => paths.push(PathBuf::from(path)),
        }
    }

    let options = engine::LintOptions {
        check_waivers,
        concurrency,
    };
    let root = xtask::workspace_root();
    #[expect(
        clippy::disallowed_methods,
        reason = "timing the linter itself is --bench-out's job"
    )]
    let t0 = Instant::now();
    let report = if paths.is_empty() {
        match engine::lint_workspace(&root, &options) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("xtask lint: cannot scan {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    } else {
        // Explicit paths are linted as one analysis unit, so cross-file
        // call-graph rules see all of them; the engine's path sort keeps a
        // report byte-identical however the file list was assembled.
        let mut files = Vec::new();
        for path in &paths {
            let source = match std::fs::read_to_string(path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("xtask lint: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            let rel = path.strip_prefix(&root).unwrap_or(path).to_path_buf();
            files.push((rel, source));
        }
        engine::lint_sources(&files, &options)
    };
    let wall_ms = t0.elapsed().as_millis();

    let shown: Vec<&engine::Diagnostic> = report
        .diagnostics
        .iter()
        .filter(|d| only_rules.is_empty() || only_rules.contains(&d.rule))
        .collect();
    let errors = shown.len();

    // With --report, stdout is reserved for the report; diagnostics and
    // the summary move to stderr so piping/redirecting stays clean.
    let machine_report = report.concurrency.as_ref();
    if let Some(rep) = machine_report {
        print!("{rep}");
        if !quiet && format == Format::Text {
            for diag in &shown {
                eprintln!("{diag}\n");
            }
        }
    } else {
        match format {
            Format::Json => println!("{}", render_json(&shown)),
            Format::Sarif => print!("{}", sarif::render(&shown)),
            Format::Text => {
                if !quiet {
                    for diag in &shown {
                        println!("{diag}\n");
                    }
                }
            }
        }
    }

    if let Some(path) = &bench_out {
        let bench = format!(
            "{{\n  \"files_scanned\": {},\n  \"diagnostics\": {},\n  \"wall_ms\": {wall_ms}\n}}\n",
            report.files_scanned,
            shown.len(),
        );
        if let Err(e) = std::fs::write(path, bench) {
            eprintln!("xtask lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let summary = format!(
        "xtask lint: {errors} error{} across {} files",
        if errors == 1 { "" } else { "s" },
        report.files_scanned,
    );
    // In machine-read formats stdout is reserved for the report.
    if format == Format::Text && machine_report.is_none() {
        println!("{summary}");
    } else {
        eprintln!("{summary}");
    }
    if errors > 0 && !warn_only {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Render diagnostics as a stable JSON array: objects with `file`, `line`,
/// `rule`, `severity`, `message` keys in that order, input order preserved
/// (already sorted by (file, line, rule)). Every diagnostic is an error, so
/// `severity` is always `deny`.
fn render_json(diags: &[&engine::Diagnostic]) -> String {
    let items: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "{{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \
                 \"severity\": \"deny\", \"message\": \"{}\"}}",
                json::escape(&d.file.display().to_string().replace('\\', "/")),
                d.line,
                d.rule.name(),
                json::escape(&d.message),
            )
        })
        .collect();
    json::array(&items, 2, 0)
}
