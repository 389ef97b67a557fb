//! Workspace call graph and the reachability-powered semantic rules.
//!
//! Built on the [`parser`] declaration extraction plus
//! [`resolve`](crate::resolve) name resolution, this module answers the
//! question the per-file rules cannot: *is this panicking operation
//! reachable from a public API?* Three analyses run over the graph:
//!
//! * **`ntv::panic-path`** — the documented-invariant panic form
//!   `.expect(..)` and slice indexing by a caller-supplied parameter,
//!   flagged only when the enclosing function is reachable from a `pub`
//!   function of a Library-class file. Bare `unwrap()` stays with clippy's
//!   `unwrap_used` and the `panic!` family (with `unreachable!`) with
//!   clippy's `panic`, `todo`, `unimplemented` and `unreachable` — this
//!   rule covers the forms those deliberately allow, once they sit on a
//!   public path.
//! * **`ntv::lock-discipline`** — `RwLock`/`Mutex` guards (recognized by the
//!   workspace idiom `.read()/.write()/.lock()` + `.unwrap()/.expect(..)`)
//!   held across calls into functions that themselves (transitively)
//!   acquire a lock, across a second direct acquisition, or across the
//!   Gauss–Hermite build path (`PathDistribution::build`); and
//!   `OnceLock::get_or_init` closures that call back into lock-acquiring
//!   code. This is exactly the discipline `ntv_core::op_cache` documents:
//!   the map lock is never held across a build, racers park per-entry.
//! * Reachability itself, reused by the engine for dead-waiver analysis.
//!
//! The graph is deterministic: files arrive sorted by path, symbols are
//! numbered in (file, line) order, and every worklist is processed in
//! ascending id order, so two runs emit byte-identical diagnostics.

use std::collections::BTreeSet;
use std::path::Path;

use crate::lexer::Token;
use crate::parser::{self, CallSite, ParsedFile};
use crate::resolve::{FileInput, SymbolId, SymbolTable};
use crate::rules::{Hit, RuleId};

/// One file's inputs to the semantic pass (Library-class files only — the
/// rules police library internals; bench/harness consumers cannot change
/// library-internal reachability).
#[derive(Debug, Clone, Copy)]
pub struct SemFile<'a> {
    /// Workspace-relative path (classification already done by the engine).
    pub rel: &'a Path,
    /// The file's full token stream.
    pub tokens: &'a [Token],
    /// Extracted declarations.
    pub parsed: &'a ParsedFile,
    /// Inclusive `#[cfg(test)]` line ranges (test fns are not graph nodes).
    pub test_ranges: &'a [(u32, u32)],
}

/// A panicking operation found inside a function body.
#[derive(Debug, Clone)]
enum PanicOp {
    /// `.expect(..)` method call.
    Expect,
    /// Slice/array indexing whose index uses the named fn parameter raw.
    ParamIndex(String),
}

/// A recognized lock acquisition (`.read()/.write()/.lock()` followed by
/// `.unwrap()/.expect(..)`). Shared with the [`concurrency`](crate::concurrency)
/// pass, which classifies acquisitions into lock classes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Acquisition {
    /// Token index of the `read`/`write`/`lock` identifier.
    pub(crate) tok: usize,
    /// Token index just past the `.unwrap()/.expect(..)` suffix.
    pub(crate) chain_end: usize,
    /// 1-based line of the acquisition.
    pub(crate) line: u32,
}

/// The token span during which a guard is considered held.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HoldRegion {
    pub(crate) start: usize,
    pub(crate) end: usize,
    /// `OnceLock::get_or_init` closures only check lock-acquiring callees;
    /// build-under-lock inside the per-entry cell is the sanctioned pattern.
    pub(crate) once_cell: bool,
}

/// One resolved call site inside a symbol's body.
pub struct Call {
    /// The call as parsed (name, qualifier, token/line position).
    pub site: CallSite,
    /// Every workspace symbol the call may target (over-approximate).
    pub candidates: Vec<SymbolId>,
    /// Whether resolution was confident. The precision-sensitive analyses
    /// (lock discipline, the concurrency layer) only follow `candidates`
    /// when this is set; over-approximate fallbacks only widen
    /// reachability.
    pub confident: bool,
}

/// The analyzed call graph plus per-symbol facts.
pub struct Graph {
    /// Symbol table (public so the engine can display roots).
    pub table: SymbolTable,
    /// Resolved call list per symbol, with token positions.
    calls: Vec<Vec<Call>>,
    /// Per-symbol panic operations (line, op).
    panic_ops: Vec<Vec<(u32, PanicOp)>>,
    /// Per-symbol lock acquisitions.
    acquisitions: Vec<Vec<Acquisition>>,
    /// Per-symbol `get_or_init` closure spans.
    once_regions: Vec<Vec<(usize, usize)>>,
    /// Witness public root per symbol (`usize::MAX` = unreachable).
    witness: Vec<SymbolId>,
    /// Symbol (transitively) acquires a lock.
    trans_lock: Vec<bool>,
    /// Symbol (transitively) reaches `PathDistribution::build`.
    reaches_build: Vec<bool>,
}

const INDEX_PREV_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "dyn", "in", "as", "return", "break", "move", "box", "loop", "while",
    "if", "else", "match", "unsafe", "const", "static", "where", "impl", "for", "fn", "use", "pub",
    "struct", "enum", "trait", "type", "mod", "crate",
];

impl Graph {
    /// Build the graph over `files` (already sorted by path).
    #[must_use]
    pub fn build(files: &[SemFile]) -> Graph {
        let inputs: Vec<FileInput<'_>> = files
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.rel, f.parsed, f.test_ranges))
            .collect();
        let table = SymbolTable::build(&inputs);
        let n = table.symbols.len();

        // Innermost-span ownership per file: (symbol, body span), so calls
        // inside a nested fn are attributed to the nested fn only.
        let mut file_spans: Vec<Vec<(SymbolId, (usize, usize))>> = vec![Vec::new(); files.len()];
        for (id, sym) in table.symbols.iter().enumerate() {
            if let Some(span) = sym.body {
                file_spans[sym.file].push((id, span));
            }
        }
        let owner = |file: usize, tok: usize| -> Option<SymbolId> {
            file_spans[file]
                .iter()
                .filter(|(_, (a, b))| (*a..*b).contains(&tok))
                .max_by_key(|(_, (a, _))| *a)
                .map(|&(id, _)| id)
        };

        let mut edges: Vec<Vec<SymbolId>> = vec![Vec::new(); n];
        let mut edges_conf: Vec<Vec<SymbolId>> = vec![Vec::new(); n];
        let mut calls: Vec<Vec<Call>> = (0..n).map(|_| Vec::new()).collect();
        let mut panic_ops: Vec<Vec<(u32, PanicOp)>> = vec![Vec::new(); n];
        let mut acquisitions: Vec<Vec<Acquisition>> = vec![Vec::new(); n];
        let mut once_regions: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];

        for (id, sym) in table.symbols.iter().enumerate() {
            let Some(span) = sym.body else { continue };
            let file = &files[sym.file];
            let impl_ty = sym.impl_ty.as_deref();
            for call in parser::calls_in(file.tokens, span) {
                if owner(sym.file, call.tok) != Some(id) {
                    continue; // belongs to a nested fn
                }
                let (mut all, conf) = table.resolve_with_confidence(&call, impl_ty);
                all.retain(|&t| t != id); // self-recursion adds nothing
                for &t in &all {
                    edges[id].push(t);
                    if conf {
                        edges_conf[id].push(t);
                    }
                }
                calls[id].push(Call {
                    site: call,
                    candidates: all,
                    confident: conf,
                });
            }
            edges[id].sort_unstable();
            edges[id].dedup();
            edges_conf[id].sort_unstable();
            edges_conf[id].dedup();

            let params: BTreeSet<String> = file.parsed.fns[sym.sig]
                .params
                .iter()
                .flat_map(|p| {
                    p.name
                        .split(|c: char| !c.is_alphanumeric() && c != '_')
                        .filter(|s| !s.is_empty() && *s != "_")
                        .map(str::to_owned)
                        .collect::<Vec<_>>()
                })
                .collect();
            panic_ops[id] = scan_panic_ops(file.tokens, span, &params, |tok| {
                owner(sym.file, tok) == Some(id)
            });
            acquisitions[id] = scan_acquisitions(file.tokens, span);
            once_regions[id] = scan_once_regions(file.tokens, span);
        }

        // Reachability from public roots, first root (lowest id) wins as
        // the reported witness. Roots processed ascending → deterministic.
        let mut witness = vec![usize::MAX; n];
        for root in table.public_roots() {
            if witness[root] != usize::MAX {
                continue;
            }
            let mut queue = vec![root];
            witness[root] = root;
            while let Some(s) = queue.pop() {
                for &t in &edges[s] {
                    if witness[t] == usize::MAX {
                        witness[t] = root;
                        queue.push(t);
                    }
                }
            }
        }

        // Reverse propagation: "transitively acquires a lock" and
        // "transitively reaches PathDistribution::build".
        let direct_lock: Vec<bool> = (0..n).map(|id| !acquisitions[id].is_empty()).collect();
        let is_build: Vec<bool> = table
            .symbols
            .iter()
            .map(|s| s.name == "build" && s.impl_ty.as_deref() == Some("PathDistribution"))
            .collect();
        let trans_lock = propagate_callers(&edges_conf, &direct_lock);
        let reaches_build = propagate_callers(&edges_conf, &is_build);

        Graph {
            table,
            calls,
            panic_ops,
            acquisitions,
            once_regions,
            witness,
            trans_lock,
            reaches_build,
        }
    }

    /// Is `sym` reachable from any public root?
    #[must_use]
    pub fn reachable(&self, sym: SymbolId) -> bool {
        self.witness[sym] != usize::MAX
    }

    /// The witness public root that makes `sym` reachable, if any (the
    /// lowest-id public function with a call path to `sym`).
    #[must_use]
    pub fn witness_root(&self, sym: SymbolId) -> Option<SymbolId> {
        (self.witness[sym] != usize::MAX).then(|| self.witness[sym])
    }

    /// All `ntv::panic-path` hits, as (file index, hit), in symbol order.
    #[must_use]
    pub fn panic_path_hits(&self) -> Vec<(usize, Hit)> {
        let mut out = Vec::new();
        for (id, sym) in self.table.symbols.iter().enumerate() {
            if self.witness[id] == usize::MAX {
                continue;
            }
            let root = &self.table.symbols[self.witness[id]].fq;
            for (line, op) in &self.panic_ops[id] {
                let what = match op {
                    PanicOp::Expect => "`.expect(..)`".to_string(),
                    PanicOp::ParamIndex(p) => {
                        format!("slice indexing by caller-supplied `{p}`")
                    }
                };
                out.push((
                    sym.file,
                    Hit {
                        rule: RuleId::PanicPath,
                        line: *line,
                        message: format!(
                            "{what} in `{}` is reachable from public API `{root}`",
                            sym.fq
                        ),
                    },
                ));
            }
        }
        out
    }

    /// All `ntv::lock-discipline` hits, as (file index, hit).
    #[must_use]
    pub fn lock_discipline_hits(&self, files: &[SemFile]) -> Vec<(usize, Hit)> {
        let mut out = Vec::new();
        for (id, sym) in self.table.symbols.iter().enumerate() {
            let Some(span) = sym.body else { continue };
            let tokens = files[sym.file].tokens;
            let mut regions: Vec<HoldRegion> = self.acquisitions[id]
                .iter()
                .map(|a| hold_region(tokens, span, a))
                .collect();
            regions.extend(
                self.once_regions[id]
                    .iter()
                    .map(|&(start, end)| HoldRegion {
                        start,
                        end,
                        once_cell: true,
                    }),
            );
            for region in &regions {
                // A second direct acquisition while a guard is held.
                for other in &self.acquisitions[id] {
                    if (region.start..region.end).contains(&other.tok) {
                        out.push((
                            sym.file,
                            Hit {
                                rule: RuleId::LockDiscipline,
                                line: other.line,
                                message: format!(
                                    "second lock acquired in `{}` while a guard is held",
                                    sym.fq
                                ),
                            },
                        ));
                    }
                }
                for call in &self.calls[id] {
                    if !(region.start..region.end).contains(&call.site.tok) || !call.confident {
                        continue;
                    }
                    if let Some(&t) = call.candidates.iter().find(|&&t| self.trans_lock[t]) {
                        out.push((
                            sym.file,
                            Hit {
                                rule: RuleId::LockDiscipline,
                                line: call.site.line,
                                message: format!(
                                    "lock guard held in `{}` across call into \
                                     lock-acquiring `{}`",
                                    sym.fq, self.table.symbols[t].fq
                                ),
                            },
                        ));
                    } else if !region.once_cell {
                        if let Some(&t) = call.candidates.iter().find(|&&t| self.reaches_build[t]) {
                            out.push((
                                sym.file,
                                Hit {
                                    rule: RuleId::LockDiscipline,
                                    line: call.site.line,
                                    message: format!(
                                        "lock guard held in `{}` across Gauss–Hermite \
                                         build path `{}`",
                                        sym.fq, self.table.symbols[t].fq
                                    ),
                                },
                            ));
                        }
                    }
                }
            }
        }
        out.sort_by(|a, b| {
            (a.0, a.1.line, a.1.message.as_str()).cmp(&(b.0, b.1.line, b.1.message.as_str()))
        });
        out.dedup_by(|a, b| a.0 == b.0 && a.1.line == b.1.line && a.1.message == b.1.message);
        out
    }

    /// Resolved call sites inside `sym`'s body, in body order (the
    /// concurrency layer's input for confident-edge propagation).
    #[must_use]
    pub fn calls(&self, sym: SymbolId) -> &[Call] {
        &self.calls[sym]
    }

    /// Recognized lock acquisitions inside `sym`'s body, in token order —
    /// the raw input of the [`concurrency`](crate::concurrency) lock-class
    /// and order-graph analysis.
    #[must_use]
    pub(crate) fn acquisitions(&self, sym: SymbolId) -> &[Acquisition] {
        &self.acquisitions[sym]
    }
}

/// Reverse-propagate `seed` up the call graph: a symbol is marked if it is
/// seeded or calls (transitively) a marked symbol. Fixed-point iteration in
/// ascending id order; the graph is small (hundreds of nodes).
fn propagate_callers(edges: &[Vec<SymbolId>], seed: &[bool]) -> Vec<bool> {
    let mut marked = seed.to_vec();
    loop {
        let mut changed = false;
        for id in 0..edges.len() {
            if marked[id] {
                continue;
            }
            if edges[id].iter().any(|&t| marked[t]) {
                marked[id] = true;
                changed = true;
            }
        }
        if !changed {
            return marked;
        }
    }
}

/// Scan a body span for panic operations, keeping only tokens owned by the
/// symbol itself (`own` filters out nested fns).
fn scan_panic_ops(
    tokens: &[Token],
    span: (usize, usize),
    params: &BTreeSet<String>,
    own: impl Fn(usize) -> bool,
) -> Vec<(u32, PanicOp)> {
    let mut out = Vec::new();
    for i in span.0..span.1.min(tokens.len()) {
        if !own(i) {
            continue;
        }
        let t = &tokens[i];
        if let Some(id) = t.ident() {
            if id == "expect"
                && i > 0
                && tokens[i - 1].is_punct('.')
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
            {
                out.push((t.line, PanicOp::Expect));
            }
            continue;
        }
        if !t.is_punct('[') {
            continue;
        }
        // Expression-position indexing: the token before the `[` must be an
        // expression tail (identifier that is not a keyword, or a closing
        // bracket) — type positions (`&[f64]`), attributes (`#[..]`) and
        // array literals (`= [0; 8]`) all fail this test.
        let Some(prev) = i.checked_sub(1).and_then(|p| tokens.get(p)) else {
            continue;
        };
        let is_expr_tail = match prev.ident() {
            Some(id) => !INDEX_PREV_KEYWORDS.contains(&id),
            None => prev.is_punct(')') || prev.is_punct(']'),
        };
        if !is_expr_tail {
            continue;
        }
        let end = parser::skip_balanced(tokens, i);
        // Flag when a caller-supplied parameter is used raw at the top
        // level of the index expression — not routed through a method call
        // (`v.index()` is the sanctioned bounded-accessor shape) and not
        // an argument of a nested call (`sf[Self::bucket(g)]` delegates
        // the bounding to `bucket`).
        let mut depth = 0i64;
        let mut raw_param = None;
        for j in i + 1..end.saturating_sub(1) {
            let tj = &tokens[j];
            if tj.is_punct('(') || tj.is_punct('[') || tj.is_punct('{') {
                depth += 1;
                continue;
            }
            if tj.is_punct(')') || tj.is_punct(']') || tj.is_punct('}') {
                depth -= 1;
                continue;
            }
            if depth != 0 {
                continue;
            }
            let Some(id) = tj.ident() else { continue };
            if !params.contains(id) {
                continue;
            }
            if tokens
                .get(j + 1)
                .is_some_and(|n| n.is_punct('.') || n.is_punct('('))
            {
                continue;
            }
            raw_param = Some(id.to_owned());
            break;
        }
        if let Some(p) = raw_param {
            out.push((t.line, PanicOp::ParamIndex(p)));
        }
    }
    out
}

/// Scan a body span for lock acquisitions: `.read()`, `.write()` or
/// `.lock()` (no arguments — `io::Read::read(&mut buf)` never matches)
/// immediately followed by `.unwrap()` or `.expect(..)`.
fn scan_acquisitions(tokens: &[Token], span: (usize, usize)) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for i in span.0..span.1.min(tokens.len()) {
        let Some(id) = tokens[i].ident() else {
            continue;
        };
        if !matches!(id, "read" | "write" | "lock") {
            continue;
        }
        if !(i > 0 && tokens[i - 1].is_punct('.')) {
            continue;
        }
        if !(tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
            && tokens.get(i + 2).is_some_and(|t| t.is_punct(')')))
        {
            continue;
        }
        let after_call = i + 3;
        if !tokens.get(after_call).is_some_and(|t| t.is_punct('.')) {
            continue;
        }
        let m = after_call + 1;
        if !matches!(
            tokens.get(m).and_then(Token::ident),
            Some("unwrap" | "expect")
        ) {
            continue;
        }
        if !tokens.get(m + 1).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        let chain_end = parser::skip_balanced(tokens, m + 1);
        out.push(Acquisition {
            tok: i,
            chain_end,
            line: tokens[i].line,
        });
    }
    out
}

/// Spans of `.get_or_init(..)` argument lists (OnceLock closures).
fn scan_once_regions(tokens: &[Token], span: (usize, usize)) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in span.0..span.1.min(tokens.len()) {
        if tokens[i].ident() == Some("get_or_init")
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            out.push((i + 1, parser::skip_balanced(tokens, i + 1)));
        }
    }
    out
}

/// Compute the hold region of an acquisition.
///
/// A *bound* guard (`let g = x.lock().expect("..");` — the binding is the
/// guard itself) is held to the end of its enclosing block, or to an
/// explicit `drop(g)`. A *temporary* guard (the chain continues, or the
/// acquisition sits inside a larger expression) is held to the end of the
/// enclosing statement — Rust temporaries drop at the statement's semicolon.
pub(crate) fn hold_region(tokens: &[Token], span: (usize, usize), acq: &Acquisition) -> HoldRegion {
    // Statement start: nearest `;`, `{` or `}` before the acquisition.
    let mut s = acq.tok;
    while s > span.0 {
        if tokens[s - 1].is_punct(';') || tokens[s - 1].is_punct('{') || tokens[s - 1].is_punct('}')
        {
            break;
        }
        s -= 1;
    }
    let b = if tokens.get(s).and_then(Token::ident) == Some("let") {
        // `let g = ..` or `let mut g = ..` — the binding follows the
        // optional `mut`.
        if tokens.get(s + 1).and_then(Token::ident) == Some("mut") {
            s + 2
        } else {
            s + 1
        }
    } else {
        usize::MAX
    };
    let binding = if b != usize::MAX && tokens.get(b + 1).is_some_and(|t| t.is_punct('=')) {
        tokens.get(b).and_then(Token::ident)
    } else {
        None
    };
    let bound = binding.is_some() && tokens.get(acq.chain_end).is_some_and(|t| t.is_punct(';'));

    let mut depth: i64 = 0;
    let mut j = acq.chain_end;
    let limit = span.1.min(tokens.len());
    while j < limit {
        let t = &tokens[j];
        if bound {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                if depth == 0 {
                    break; // end of the enclosing block
                }
                depth -= 1;
            } else if t.ident() == Some("drop")
                && tokens.get(j + 1).is_some_and(|n| n.is_punct('('))
                && tokens.get(j + 2).and_then(Token::ident) == binding
                && tokens.get(j + 3).is_some_and(|n| n.is_punct(')'))
            {
                break; // explicit drop ends the hold
            }
        } else {
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                depth -= 1;
            } else if t.is_punct(';') && depth <= 0 {
                break; // end of the enclosing statement
            }
        }
        j += 1;
    }
    HoldRegion {
        start: acq.chain_end,
        end: j,
        once_cell: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use std::path::PathBuf;

    type FileHits = Vec<(usize, Hit)>;

    fn analyze_one(src: &str) -> (Graph, FileHits, FileHits) {
        let lexed = lex(src);
        let parsed = parse(&lexed);
        let rel = PathBuf::from("crates/core/src/x.rs");
        let files = [SemFile {
            rel: &rel,
            tokens: &lexed.tokens,
            parsed: &parsed,
            test_ranges: &[],
        }];
        let graph = Graph::build(&files);
        let pp = graph.panic_path_hits();
        let ld = graph.lock_discipline_hits(&files);
        (graph, pp, ld)
    }

    #[test]
    fn expect_in_private_helper_reachable_from_pub_api_is_flagged() {
        let src = "
pub fn api(xs: &[f64]) -> f64 { tail(xs) }
fn tail(xs: &[f64]) -> f64 { *xs.last().expect(\"non-empty\") }
fn dead(xs: &[f64]) -> f64 { *xs.first().expect(\"never called\") }
";
        let (graph, pp, _) = analyze_one(src);
        assert_eq!(pp.len(), 1, "{pp:?}");
        assert_eq!(pp[0].1.line, 3);
        assert!(
            pp[0].1.message.contains("ntv_core::x::api"),
            "{}",
            pp[0].1.message
        );
        // `dead` is not reachable from any public root.
        let dead = graph
            .table
            .symbols
            .iter()
            .position(|s| s.name == "dead")
            .expect("symbol exists");
        assert!(!graph.reachable(dead));
    }

    #[test]
    fn param_indexing_is_flagged_but_bounded_accessors_are_not() {
        let src = "
pub fn pick(xs: &[f64], i: usize) -> f64 { xs[i] }
pub fn masked(xs: &[f64; 8], r: Reg) -> f64 { xs[r.index()] }
pub fn local(xs: &[f64]) -> f64 { let k = 0; xs[k] }
";
        let (_, pp, _) = analyze_one(src);
        assert_eq!(pp.len(), 1, "{pp:?}");
        assert_eq!(pp[0].1.line, 2);
        assert!(pp[0].1.message.contains('i'), "{}", pp[0].1.message);
    }

    #[test]
    fn guard_held_across_lock_acquiring_call_is_flagged() {
        let src = "
pub struct C { m: RwLock<Vec<f64>> }
impl C {
    pub fn total(&self) -> f64 {
        let guard = self.m.read().expect(\"lock\");
        self.recount(&guard)
    }
    fn recount(&self, xs: &[f64]) -> f64 {
        self.m.read().expect(\"lock\");
        xs.len() as f64
    }
}
";
        let (_, _, ld) = analyze_one(src);
        assert_eq!(ld.len(), 1, "{ld:?}");
        assert_eq!(ld[0].1.line, 6);
        assert!(ld[0].1.message.contains("recount"), "{}", ld[0].1.message);
    }

    #[test]
    fn statement_scoped_temporaries_do_not_hold_across_later_calls() {
        // The op_cache idiom: read the map under a temporary guard, then
        // build outside any lock.
        let src = "
pub struct C { m: RwLock<BTreeMap<u64, f64>> }
impl C {
    pub fn get(&self, k: u64) -> f64 {
        let hit = self.m.read().expect(\"lock\").get(&k).copied();
        match hit { Some(v) => v, None => self.build_slow(k) }
    }
    fn build_slow(&self, k: u64) -> f64 {
        let v = k as f64;
        *self.m.write().expect(\"lock\").entry(k).or_insert(v)
    }
}
";
        let (_, _, ld) = analyze_one(src);
        assert!(ld.is_empty(), "{ld:?}");
    }

    #[test]
    fn explicit_drop_ends_the_hold_region() {
        let src = "
pub struct C { m: RwLock<Vec<f64>> }
impl C {
    pub fn relock(&self) -> usize {
        let g = self.m.read().expect(\"lock\");
        let n = g.len();
        drop(g);
        self.count_again(n)
    }
    fn count_again(&self, n: usize) -> usize {
        self.m.read().expect(\"lock\");
        n
    }
}
";
        let (_, _, ld) = analyze_one(src);
        assert!(ld.is_empty(), "{ld:?}");
    }

    #[test]
    fn cross_file_reachability_connects_modules() {
        let entry_src = "pub fn entry(t: f64) -> f64 { helper::risky(t) }";
        let helper_src = "pub(crate) fn risky(t: f64) -> f64 { t.sqrt().partial_cmp(&t).map(|_| t).expect(\"finite\") }";
        let entry_lex = lex(entry_src);
        let helper_lex = lex(helper_src);
        let entry_parsed = parse(&entry_lex);
        let helper_parsed = parse(&helper_lex);
        let entry_rel = PathBuf::from("crates/core/src/entry.rs");
        let helper_rel = PathBuf::from("crates/core/src/helper.rs");
        let files = [
            SemFile {
                rel: &entry_rel,
                tokens: &entry_lex.tokens,
                parsed: &entry_parsed,
                test_ranges: &[],
            },
            SemFile {
                rel: &helper_rel,
                tokens: &helper_lex.tokens,
                parsed: &helper_parsed,
                test_ranges: &[],
            },
        ];
        let graph = Graph::build(&files);
        let pp = graph.panic_path_hits();
        assert_eq!(pp.len(), 1, "{pp:?}");
        assert_eq!(pp[0].0, 1, "finding lands in helper.rs");
        assert!(
            pp[0].1.message.contains("ntv_core::entry::entry"),
            "witness root names the public entry: {}",
            pp[0].1.message
        );
        // Linting helper.rs alone: `risky` is pub(crate), not a root.
        let alone = [files[1]];
        let graph_alone = Graph::build(&alone);
        assert!(graph_alone.panic_path_hits().is_empty());
    }
}
