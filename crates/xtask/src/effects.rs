//! I/O seed layer over the workspace call graph.
//!
//! A token scan of every function body seeds its **direct I/O sites** —
//! the `println!`/`eprintln!` family, `std::io`, `std::fs`,
//! `File::open`/`File::create` — and two consumers read them:
//!
//! * **`ntv::hidden-io`** (this module) — an I/O seed in a function
//!   reachable from any public Library fn, over the same over-approximate
//!   witness reachability as `ntv::panic-path`. Diagnostics land at the
//!   *seed* site, so one inline waiver stating the invariant absorbs every
//!   over-approximate path to it — the panic-path precedent.
//! * **`ntv::blocking-under-lock`** ([`concurrency`](crate::concurrency))
//!   — every I/O seed doubles as a blocking site.
//!
//! Like the rest of the pass, everything is deterministic: symbols are
//! path-ordered and each symbol's seeds are (line, what)-sorted.

use crate::graph::{Graph, SemFile};
use crate::lexer::Token;
use crate::resolve::SymbolId;
use crate::rules::{double_colon, path_call, Hit, RuleId};

/// One direct I/O site inside a function body.
#[derive(Debug, Clone)]
pub struct Seed {
    /// 1-based source line of the I/O token.
    pub line: u32,
    /// What was found, for messages (e.g. ```std::fs```).
    pub what: String,
}

/// Per-symbol direct I/O sites.
pub struct Effects {
    /// Direct I/O sites per symbol, (line, what)-sorted and deduplicated.
    pub seeds: Vec<Vec<Seed>>,
}

impl Effects {
    /// Scan every symbol body for direct I/O sites. Nested fns own their
    /// tokens (innermost span wins), mirroring the panic-op and reduction
    /// scans.
    #[must_use]
    pub fn collect(graph: &Graph, files: &[SemFile]) -> Effects {
        let mut file_spans: Vec<Vec<(SymbolId, (usize, usize))>> = vec![Vec::new(); files.len()];
        for (id, sym) in graph.table.symbols.iter().enumerate() {
            if let Some(span) = sym.body {
                file_spans[sym.file].push((id, span));
            }
        }
        let mut seeds: Vec<Vec<Seed>> =
            (0..graph.table.symbols.len()).map(|_| Vec::new()).collect();
        for (id, sym) in graph.table.symbols.iter().enumerate() {
            let Some(span) = sym.body else { continue };
            let spans = &file_spans[sym.file];
            let own = |tok: usize| {
                spans
                    .iter()
                    .filter(|(_, (a, b))| (*a..*b).contains(&tok))
                    .max_by_key(|(_, (a, _))| *a)
                    .map(|&(o, _)| o)
                    == Some(id)
            };
            let mut s = scan_io(files[sym.file].tokens, span, own);
            s.sort_by(|a, b| (a.line, &a.what).cmp(&(b.line, &b.what)));
            s.dedup_by(|a, b| a.line == b.line && a.what == b.what);
            seeds[id] = s;
        }
        Effects { seeds }
    }
}

/// Token scan of one body span for direct I/O sites.
fn scan_io(tokens: &[Token], span: (usize, usize), own: impl Fn(usize) -> bool) -> Vec<Seed> {
    let mut out = Vec::new();
    for i in span.0..span.1.min(tokens.len()) {
        if !own(i) {
            continue;
        }
        let t = &tokens[i];
        let Some(id) = t.ident() else { continue };
        let what = match id {
            "println" | "eprintln" | "print" | "eprint"
                if tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                format!("`{id}!`")
            }
            "io" | "fs" if double_colon(tokens, i) => format!("`std::{id}`"),
            "File" if path_call(tokens, i, "open") || path_call(tokens, i, "create") => {
                "`File` open/create".to_string()
            }
            _ => continue,
        };
        out.push(Seed { line: t.line, what });
    }
    out
}

/// All `ntv::hidden-io` hits as (file index, hit). Diagnostics land at the
/// seed site with the witness root in the message, mirroring
/// `ntv::panic-path`.
#[must_use]
pub fn hidden_io_hits(graph: &Graph, eff: &Effects) -> Vec<(usize, Hit)> {
    let syms = &graph.table.symbols;
    let mut out = Vec::new();
    for (id, sym) in syms.iter().enumerate() {
        let Some(root) = graph.witness_root(id) else {
            continue;
        };
        for seed in &eff.seeds[id] {
            out.push((
                sym.file,
                Hit {
                    rule: RuleId::HiddenIo,
                    line: seed.line,
                    message: format!(
                        "hidden I/O ({}) in `{}` is reachable from public API `{}`",
                        seed.what, sym.fq, syms[root].fq
                    ),
                },
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use std::path::PathBuf;

    #[test]
    fn hidden_io_fires_on_reachable_print() {
        let src = "pub fn api(x: u64) -> u64 { helper(x) }\nfn helper(x: u64) -> u64 { println!(\"{x}\"); x }";
        let lexed = lex(src);
        let parsed = parse(&lexed);
        let rel = PathBuf::from("crates/soda/src/x.rs");
        let files = [SemFile {
            rel: &rel,
            tokens: &lexed.tokens,
            parsed: &parsed,
            test_ranges: &[],
        }];
        let graph = Graph::build(&files);
        let eff = Effects::collect(&graph, &files);
        let hits = hidden_io_hits(&graph, &eff);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1.rule, RuleId::HiddenIo);
        assert_eq!(hits[0].1.line, 2);
        assert!(hits[0].1.message.contains("ntv_soda::x::api"));
    }
}
