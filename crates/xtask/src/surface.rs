//! The public-surface audit behind `ntv::test-only-api`: a library `pub fn`
//! that tests call but no program does.
//!
//! It runs on one use graph over every non-Skip file of the run, except
//! xtask's own sources: the tool links no workspace library, so a call there
//! can only resolve to a library fn by a name clash. A *use* is a call site
//! resolved by [`resolve`](crate::resolve), confident or over-approximate,
//! or a path mentioned without a call (`map(Summary::mean)`), the
//! function-value shape that [`parser::calls_in`] does not extract. `use`
//! declarations are not uses: an import or a `pub use` re-export calls
//! nothing. A use inside a `#[cfg(test)]` item or in a file under a `tests/`
//! directory is a *test* use; any other use is a *program* use (library
//! code, `src/bin`, examples, `crates/bench` and `perf/`).
//!
//! Scope: `pub fn`s declared outside `#[cfg(test)]` in a library crate's
//! `src/` (`crates/*/src` and the root `src/`, bins aside; ntv-bench and
//! ntv-serve count). A scoped fn with a test use and no program use is a
//! hit. Uses are whole-program facts, so the audit is complete only over the
//! whole workspace: a library file linted alone reports the fns that its own
//! unit tests call even where another file's code calls them too.
//!
//! [`parser::calls_in`]: crate::parser::calls_in

use std::path::Path;

use crate::engine::FileClass;
use crate::graph::SemFile;
use crate::lexer::Token;
use crate::parser::{self, CallSite};
use crate::resolve::{FileInput, SymbolId, SymbolTable};
use crate::rules::{Hit, RuleId};

/// How a file's code counts in the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A library crate's `src/`: declares the audited `pub fn`s, and its
    /// non-test code is program code.
    Api,
    /// Bins, examples and `perf/`: program code that declares nothing the
    /// audit checks.
    Program,
    /// A file under a `tests/` directory: every use in it is a test use.
    Test,
}

impl Role {
    /// The role of the file at workspace-relative `rel`, or `None` when the
    /// audit skips it.
    #[must_use]
    pub fn of(rel: &Path, class: FileClass) -> Option<Role> {
        let p = rel.to_string_lossy().replace('\\', "/");
        if class == FileClass::Skip {
            return None;
        }
        // Fixtures take their role from their class directory, as they do
        // their rule set: `tests/fixtures/library/*.rs` declares API.
        if p.contains("tests/fixtures/") {
            return Some(if class == FileClass::Library {
                Role::Api
            } else {
                Role::Program
            });
        }
        if p.starts_with("crates/xtask/") {
            return None;
        }
        let in_dir = |d: &str| p.starts_with(&format!("{d}/")) || p.contains(&format!("/{d}/"));
        if in_dir("tests") {
            return Some(Role::Test);
        }
        let library_src = p.starts_with("src/")
            || (p.starts_with("crates/") && p.split('/').nth(2) == Some("src"));
        Some(if library_src && !in_dir("bin") {
            Role::Api
        } else {
            Role::Program
        })
    }
}

/// Every `ntv::test-only-api` hit, as (index into `files`, hit), in symbol
/// order. `roles[i]` is the role of `files[i]`.
#[must_use]
pub fn test_only_api_hits(files: &[SemFile], roles: &[Role]) -> Vec<(usize, Hit)> {
    let inputs: Vec<FileInput<'_>> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (i, f.rel, f.parsed, f.test_ranges))
        .collect();
    let table = SymbolTable::build(&inputs);
    let n = table.symbols.len();
    // `symbol_of[file][sig]`: the symbol of a parsed fn (None inside
    // `#[cfg(test)]`, which the table leaves out).
    let mut symbol_of: Vec<Vec<Option<SymbolId>>> = files
        .iter()
        .map(|f| vec![None; f.parsed.fns.len()])
        .collect();
    for (id, sym) in table.symbols.iter().enumerate() {
        symbol_of[sym.file][sym.sig] = Some(id);
    }

    let mut program = vec![false; n];
    let mut tested = vec![false; n];
    for (fi, f) in files.iter().enumerate() {
        // Innermost enclosing fn per token: fns come in source order, so a
        // nested fn's body overwrites its parent's span.
        let mut owner: Vec<Option<usize>> = vec![None; f.tokens.len()];
        for (sig, fs) in f.parsed.fns.iter().enumerate() {
            if let Some((a, b)) = fs.body {
                for slot in &mut owner[a..b.min(f.tokens.len())] {
                    *slot = Some(sig);
                }
            }
        }
        for site in uses_in(f.tokens) {
            let enclosing = owner[site.tok];
            let impl_ty = enclosing.and_then(|sig| f.parsed.fns[sig].in_impl.as_deref());
            let caller = enclosing.and_then(|sig| symbol_of[fi][sig]);
            let test_use = roles[fi] == Role::Test
                || f.test_ranges
                    .iter()
                    .any(|&(a, b)| (a..=b).contains(&site.line));
            for t in table.resolve(&site, impl_ty) {
                if Some(t) == caller {
                    continue; // recursion is no use from outside
                }
                if test_use {
                    tested[t] = true;
                } else {
                    program[t] = true;
                }
            }
        }
    }

    table
        .symbols
        .iter()
        .enumerate()
        .filter(|&(id, sym)| {
            sym.is_pub && roles[sym.file] == Role::Api && tested[id] && !program[id]
        })
        .map(|(_, sym)| {
            (
                sym.file,
                Hit {
                    rule: RuleId::TestOnlyApi,
                    line: sym.line,
                    message: format!(
                        "`{}` is public, but only tests call it: no library, bin, \
                         example, ntv-bench or perf code does",
                        sym.fq
                    ),
                },
            )
        })
        .collect()
}

/// Every use in a token stream: the call sites of [`parser::calls_in`] plus
/// qualified paths mentioned without a call, outside `use` declarations.
fn uses_in(tokens: &[Token]) -> Vec<CallSite> {
    let imported = import_mask(tokens);
    let mut out: Vec<CallSite> = parser::calls_in(tokens, (0, tokens.len()))
        .into_iter()
        .filter(|c| !imported[c.tok])
        .collect();
    for i in 3..tokens.len() {
        let Some(name) = tokens[i].ident() else {
            continue;
        };
        if !(tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':')) || imported[i] {
            continue;
        }
        // A call, a longer path, a macro or a struct literal is no mention.
        if tokens.get(i + 1).is_some_and(|t| {
            t.is_punct('(') || t.is_punct(':') || t.is_punct('!') || t.is_punct('{')
        }) {
            continue;
        }
        let Some(qualifier) = tokens[i - 3].ident() else {
            continue;
        };
        out.push(CallSite {
            name: name.to_owned(),
            qualifier: Some(qualifier.to_owned()),
            is_method: false,
            line: tokens[i].line,
            tok: i,
        });
    }
    out
}

/// Which tokens sit in a `use ..;` declaration (braced groups included).
fn import_mask(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut in_use = false;
    for (slot, t) in mask.iter_mut().zip(tokens) {
        in_use |= t.ident() == Some("use");
        *slot = in_use;
        in_use &= !t.is_punct(';');
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use std::path::PathBuf;

    #[test]
    fn roles_follow_the_workspace_layout() {
        let r = |p: &str| Role::of(Path::new(p), FileClass::classify(Path::new(p)));
        assert_eq!(r("crates/mc/src/normal.rs"), Some(Role::Api));
        assert_eq!(r("crates/serve/src/client.rs"), Some(Role::Api));
        assert_eq!(r("crates/bench/src/table.rs"), Some(Role::Api));
        assert_eq!(r("src/lib.rs"), Some(Role::Api));
        assert_eq!(r("src/bin/ntv.rs"), Some(Role::Program));
        assert_eq!(r("crates/bench/src/bin/extensions.rs"), Some(Role::Program));
        assert_eq!(r("examples/quickstart.rs"), Some(Role::Program));
        assert_eq!(r("perf/src/bin/perf/main.rs"), Some(Role::Program));
        assert_eq!(r("tests/props.rs"), Some(Role::Test));
        assert_eq!(r("crates/core/tests/cache_eviction.rs"), Some(Role::Test));
        assert_eq!(r("crates/xtask/src/engine.rs"), None);
        assert_eq!(r("crates/xtask/tests/lint_fixtures.rs"), None);
        assert_eq!(r("vendor/rand/src/lib.rs"), None);
        assert_eq!(
            r("crates/xtask/tests/fixtures/library/bad_test_only_api.rs"),
            Some(Role::Api)
        );
    }

    fn hits(files: &[(&str, &str)]) -> Vec<String> {
        let lexed: Vec<_> = files.iter().map(|(_, src)| lex(src)).collect();
        let parsed: Vec<_> = lexed.iter().map(parse).collect();
        let rels: Vec<PathBuf> = files.iter().map(|(p, _)| PathBuf::from(p)).collect();
        let ranges: Vec<Vec<(u32, u32)>> = lexed
            .iter()
            .map(|l| {
                // One `#[cfg(test)] mod tests { .. }` at most, to the end.
                let start = l.tokens.iter().find(|t| t.ident() == Some("cfg"));
                start.map_or_else(Vec::new, |t| vec![(t.line, u32::MAX)])
            })
            .collect();
        let sem: Vec<SemFile> = (0..files.len())
            .map(|i| SemFile {
                rel: &rels[i],
                tokens: &lexed[i].tokens,
                parsed: &parsed[i],
                test_ranges: &ranges[i],
            })
            .collect();
        let roles: Vec<Role> = rels
            .iter()
            .map(|r| Role::of(r, FileClass::classify(r)).expect("audited file"))
            .collect();
        test_only_api_hits(&sem, &roles)
            .into_iter()
            .map(|(_, h)| h.message)
            .collect()
    }

    #[test]
    fn a_fn_only_tests_call_is_a_hit() {
        let lib = "pub fn used() {}\npub fn probe() {}\npub fn idle() {}\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { super::probe(); super::used(); }\n}";
        let bin = "fn main() { ntv_mc::x::used(); }";
        let h = hits(&[("crates/mc/src/x.rs", lib), ("src/bin/ntv.rs", bin)]);
        // `idle` has no caller at all: that is not this rule's finding.
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(h[0].contains("ntv_mc::x::probe"), "{h:?}");
    }

    #[test]
    fn integration_tests_are_test_uses_and_examples_are_programs() {
        let lib = "pub fn oracle() {}\npub fn shown() {}";
        let test = "fn t() { x::oracle(); x::shown(); }";
        let example = "fn main() { x::shown(); }";
        let h = hits(&[
            ("crates/mc/src/x.rs", lib),
            ("crates/mc/tests/t.rs", test),
            ("examples/demo.rs", example),
        ]);
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(h[0].contains("::oracle`"), "{h:?}");
    }

    #[test]
    fn a_function_value_is_a_use_but_an_import_and_recursion_are_not() {
        let lib = "pub struct S;\nimpl S {\n    pub fn mean(&self) -> u32 { 1 }\n}\n\
                   pub fn walk(n: u32) -> u32 { if n == 0 { 0 } else { walk(n - 1) } }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { super::walk(3); super::S.mean(); }\n}";
        let bin = "use ntv_mc::x::walk;\nfn main() { let v: Vec<u32> = xs.iter().map(S::mean).collect(); }";
        let h = hits(&[("crates/mc/src/x.rs", lib), ("src/bin/ntv.rs", bin)]);
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(h[0].contains("::walk`"), "{h:?}");
    }
}
