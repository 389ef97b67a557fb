//! `xtask` — workspace automation for the ntv-simd repo.
//!
//! The only subcommand today is `lint`: a custom static-analysis pass that
//! mechanically enforces the workspace's domain invariants (determinism,
//! float totality, panic hygiene, unit safety, I/O purity, concurrency
//! soundness) as deny-level diagnostics with `file:line` spans and inline
//! waiver comments. Run it as `cargo xtask lint` (aliased in
//! `.cargo/config.toml`); CI treats a non-zero exit as a failed build.
//!
//! Design notes:
//!
//! * The pass is built on a hand-rolled lexer ([`lexer`]) rather than `syn`:
//!   the build environment is offline, and a comment/string-aware token
//!   stream cannot be fooled by `"SmallRng"` in a message string while
//!   staying total over in-progress code that does not parse yet.
//! * Token-pattern rules are pure functions over that stream; the
//!   signature-aware family additionally runs a shallow recursive-descent
//!   declaration parser ([`parser`]) that extracts fn signatures, parameter
//!   and return types, struct/impl headers and `pub` visibility — still no
//!   expression parsing, so it inherits the lexer's totality.
//! * Rules ([`rules`]) produce raw hits; the policy layer ([`engine`])
//!   decides where they apply (library vs harness vs tool code),
//!   applies `#[cfg(test)]` carve-outs and waivers, and renders
//!   diagnostics (human-readable, `--format json`, or `--format sarif` for
//!   code-scanning upload). There is no allowlist: every exception is an
//!   inline waiver next to the code it excuses.
//! * A semantic layer sits on top of the per-file pass: [`resolve`] builds
//!   a workspace symbol table with name-shaped (soundly over-approximate)
//!   path resolution, [`graph`] assembles the call graph and runs
//!   reachability, powering `ntv::panic-path` and `ntv::lock-discipline`;
//!   [`dataflow`] adds the numeric rules, [`effects`] the I/O seeds behind
//!   `ntv::hidden-io`, and [`concurrency`] the lock-order, atomic-ordering
//!   and blocking-under-lock rules plus `--report concurrency`. The engine
//!   tracks waiver usage so `--check-waivers` can deny waivers that
//!   suppress nothing.
//! * Fixtures under `tests/fixtures/` pin every rule's behaviour — one bad
//!   fixture per rule in [`RuleId::ALL`] must keep tripping its diagnostic,
//!   and the clean fixture plus the real workspace must stay quiet.
//! * Bans that a resolved path can express (clocks, host reads, hash-order
//!   containers, uncached builds, the `panic!` family) are clippy's, not
//!   this tool's: `crates/clippy.toml` holds the lists, and
//!   `tests/fixtures/clippy/ban_canary.rs` is their firing canary.

pub mod concurrency;
pub mod dataflow;
pub mod effects;
pub mod engine;
pub mod graph;
pub mod json;
pub mod lexer;
pub mod parser;
pub mod resolve;
pub mod rules;
pub mod sarif;

pub use engine::{
    lint_source, lint_sources, lint_workspace, Diagnostic, FileClass, LintOptions, LintReport,
};
pub use rules::RuleId;

use std::path::PathBuf;

/// The workspace root, resolved at compile time from this crate's location.
#[must_use]
pub fn workspace_root() -> PathBuf {
    // crates/xtask -> crates -> root. Falls back to the manifest dir itself
    // if the layout ever changes (the walk simply finds fewer files).
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(std::path::Path::parent)
        .unwrap_or(&manifest)
        .to_path_buf()
}
