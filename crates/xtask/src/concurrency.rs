//! Concurrency-soundness analysis: lock-order graph, atomic-ordering
//! classification, and blocking-under-lock detection.
//!
//! The serve stack plus the bounded operating-point cache hold the
//! workspace's densest concentration of `Mutex`/`RwLock`/`Atomic*` sites,
//! and the existing semantic rules reason about hold *regions* and
//! *effects* — never about acquisition order or memory ordering. This
//! layer closes that gap with three rules, all built on the
//! [`graph`] symbol table / confidence-tiered call graph and
//! the [`effects`](crate::effects) seed scan:
//!
//! * **`ntv::lock-order-cycle`** — every recognised acquisition is
//!   resolved to a *lock class* `(container, field-or-static path)` (e.g.
//!   `OpPointCache.entries`, `ntv_core::pair.REGISTRY`). A second class
//!   acquired inside a hold region — directly or through a confident call
//!   into a transitively-acquiring callee — adds an order edge with a
//!   witness `(fn, line)`. Any cycle in the resulting workspace-wide
//!   order graph is an ABBA deadlock and is denied with the full witness
//!   chain.
//! * **`ntv::atomic-ordering`** — every `Atomic*` operation site is
//!   classified by the `Ordering` arguments it carries. An all-`Relaxed`
//!   op is denied when its class participates in a cross-thread
//!   handshake: the same class is accessed with stronger orderings
//!   elsewhere (a lock-free publish/consume pair), or a fn touching it
//!   also touches a `Condvar`/`Barrier`/`fence`. Pure counters (classes
//!   that are `Relaxed` everywhere and nowhere near a handshake) stay
//!   clean by construction.
//! * **`ntv::blocking-under-lock`** — calls that can park the thread
//!   (`accept`, buffered reads, channel `recv`, `Condvar::wait`, thread
//!   `join`, io writes) and the effect layer's direct `io` seeds are
//!   blocking sites; blocking-ness propagates to callers over confident
//!   edges. A blocking site — or a confident call into a transitively
//!   blocking callee — inside a hold region is denied: precisely the bug
//!   shape that collapses a service p99.
//!
//! Like every other layer, the analysis is **name-shaped and
//! deterministic**: classes are resolved from receiver chains without type
//! inference (documented over/under-approximations: a field path reached
//! through differently-named locals unifies on the path; the same static
//! referenced from another file does not), symbols are visited in
//! ascending id order, and the `--report concurrency` inventory
//! (`ntv-concurrency/2`) is byte-identical across runs.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::effects::Effects;
use crate::graph::{self, Graph, SemFile};
use crate::json;
use crate::lexer::Token;
use crate::parser;
use crate::resolve::{Symbol, SymbolId};
use crate::rules::{Hit, RuleId};

/// Atomic methods whose argument list carries a
/// `std::sync::atomic::Ordering`. The `Ordering` ident in the balanced
/// argument span is what distinguishes `AtomicUsize::load` from
/// `io::Read::read`-adjacent names — no type inference needed.
const ATOMIC_OPS: &[&str] = &[
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_and",
    "fetch_max",
    "fetch_min",
    "fetch_nand",
    "fetch_or",
    "fetch_sub",
    "fetch_update",
    "fetch_xor",
    "load",
    "store",
    "swap",
];

/// The five `Ordering` variants, sorted.
const ORDERINGS: &[&str] = &["AcqRel", "Acquire", "Relaxed", "Release", "SeqCst"];

/// Method/path calls that can park the calling thread. `read`/`write` and
/// `join` need extra shape checks (see `scan_blocking`), so they are not
/// listed here.
const BLOCKING_CALLS: &[&str] = &[
    "accept",
    "connect",
    "flush",
    "park",
    "park_timeout",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "recv",
    "recv_deadline",
    "recv_timeout",
    "sleep",
    "wait",
    "wait_timeout",
    "wait_while",
    "write_all",
    "write_fmt",
];

/// Types whose mere mention in a fn body marks it as handshake-adjacent.
const HANDSHAKE_TYPES: &[&str] = &["Barrier", "Condvar"];

/// Method calls that mark a fn as handshake-adjacent.
const HANDSHAKE_METHODS: &[&str] = &[
    "notify_all",
    "notify_one",
    "wait",
    "wait_timeout",
    "wait_while",
];

/// One witnessed lock-order edge `from -> to` in the order graph.
struct OrderEdge {
    /// Symbol holding `from` when `to` was acquired.
    sym: SymbolId,
    /// Line of the second acquisition (or of the call that leads to it).
    line: u32,
    /// Confident callee the second acquisition happens through, if any.
    via: Option<SymbolId>,
}

/// One lock acquisition resolved to its class.
struct Acq {
    /// Index into the class table.
    class: usize,
    /// Index into `graph.acquisitions(sym)` (for hold-region lookup).
    idx: usize,
    line: u32,
    tok: usize,
}

/// One atomic operation site.
struct AtomicOp {
    sym: SymbolId,
    line: u32,
    op: String,
    /// Distinct `Ordering` idents in the argument list, sorted.
    orderings: Vec<String>,
    /// Every `Ordering` argument is `Relaxed`. A CAS with an `Acquire`
    /// success ordering and a `Relaxed` failure ordering is *not*
    /// all-relaxed and is never denied.
    relaxed_only: bool,
}

/// Everything known about one atomic class.
struct AtomicClass {
    ops: Vec<AtomicOp>,
    /// First fn touching this atomic that also touches a
    /// `Condvar`/`Barrier`/`fence` (handshake proximity), if any.
    handshake_via: Option<SymbolId>,
}

/// A direct potentially-blocking site inside a symbol body.
struct BlockSite {
    line: u32,
    /// Token index for hold-region containment; `None` for effect-seed
    /// sites, which are tested by line span instead.
    tok: Option<usize>,
    /// What was found, for messages.
    what: String,
}

/// The complete concurrency analysis result: raw rule hits (file-index
/// keyed, like every other semantic pass) plus the rendered
/// `ntv-concurrency/2` report.
pub struct Concurrency {
    hits: Vec<(usize, Hit)>,
    report: String,
}

impl Concurrency {
    /// Run the full analysis over one graph's worth of files.
    ///
    /// `eff` must be the I/O seeds for the same `graph`/`files` pair —
    /// each one doubles as a blocking site.
    #[must_use]
    #[allow(clippy::too_many_lines)] // one deterministic pipeline, stage-commented
    pub fn analyze(graph: &Graph, files: &[SemFile], eff: &Effects) -> Concurrency {
        let syms = &graph.table.symbols;
        let n = syms.len();

        // Innermost-span ownership (nested fns own their tokens), shared
        // by the atomic and blocking scans.
        let mut file_spans: Vec<Vec<(SymbolId, (usize, usize))>> = vec![Vec::new(); files.len()];
        for (id, sym) in syms.iter().enumerate() {
            if let Some(span) = sym.body {
                file_spans[sym.file].push((id, span));
            }
        }

        // ---- lock classes and per-symbol acquisitions ----
        let mut kinds: BTreeMap<String, &'static str> = BTreeMap::new();
        let mut raw: Vec<Vec<(String, usize)>> = (0..n).map(|_| Vec::new()).collect();
        for (id, sym) in syms.iter().enumerate() {
            if sym.body.is_none() {
                continue;
            }
            let tokens = files[sym.file].tokens;
            for (k, a) in graph.acquisitions(id).iter().enumerate() {
                let kind = match tokens[a.tok].ident() {
                    Some("lock") => "mutex",
                    _ => "rwlock",
                };
                let class = classify_chain(&receiver_chain(tokens, a.tok), sym);
                kinds.entry(class.clone()).or_insert(kind);
                raw[id].push((class, k));
            }
        }
        let classes: Vec<(String, &'static str)> = kinds.into_iter().collect();
        let cid: BTreeMap<&str, usize> = classes
            .iter()
            .enumerate()
            .map(|(i, (name, _))| (name.as_str(), i))
            .collect();
        let acqs: Vec<Vec<Acq>> = (0..n)
            .map(|id| {
                raw[id]
                    .iter()
                    .map(|(class, k)| {
                        let a = &graph.acquisitions(id)[*k];
                        Acq {
                            class: cid[class.as_str()],
                            idx: *k,
                            line: a.line,
                            tok: a.tok,
                        }
                    })
                    .collect()
            })
            .collect();

        // ---- confident call edges (the only ones facts travel over) ----
        let conf: Vec<Vec<SymbolId>> = (0..n)
            .map(|id| {
                let mut out: Vec<SymbolId> = graph
                    .calls(id)
                    .iter()
                    .filter(|c| c.confident)
                    .flat_map(|c| c.candidates.iter().copied())
                    .collect();
                out.sort_unstable();
                out.dedup();
                out
            })
            .collect();

        // ---- transitive acquire-sets, fixed-pointed over conf edges ----
        let mut trans_acq: Vec<BTreeSet<usize>> = (0..n)
            .map(|id| acqs[id].iter().map(|a| a.class).collect())
            .collect();
        loop {
            let mut changed = false;
            for id in 0..n {
                for &t in &conf[id] {
                    if t == id {
                        continue;
                    }
                    let add: Vec<usize> = trans_acq[t]
                        .iter()
                        .copied()
                        .filter(|c| !trans_acq[id].contains(c))
                        .collect();
                    if !add.is_empty() {
                        trans_acq[id].extend(add);
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // ---- order edges from hold regions ----
        let mut order: BTreeMap<(usize, usize), OrderEdge> = BTreeMap::new();
        for (id, sym) in syms.iter().enumerate() {
            let Some(span) = sym.body else { continue };
            if acqs[id].is_empty() {
                continue;
            }
            let tokens = files[sym.file].tokens;
            for held in &acqs[id] {
                let region = graph::hold_region(tokens, span, &graph.acquisitions(id)[held.idx]);
                // Token-ordered events, so the first witness per edge wins
                // deterministically.
                let mut events: Vec<(usize, usize, u32, Option<SymbolId>)> = Vec::new();
                for other in &acqs[id] {
                    if other.class != held.class && (region.start..region.end).contains(&other.tok)
                    {
                        events.push((other.tok, other.class, other.line, None));
                    }
                }
                for call in graph.calls(id) {
                    if !call.confident || !(region.start..region.end).contains(&call.site.tok) {
                        continue;
                    }
                    for &t in &call.candidates {
                        for &c in &trans_acq[t] {
                            if c != held.class {
                                events.push((call.site.tok, c, call.site.line, Some(t)));
                            }
                        }
                    }
                }
                events.sort_by_key(|&(tok, class, _, _)| (tok, class));
                for (_, to, line, via) in events {
                    order
                        .entry((held.class, to))
                        .or_insert(OrderEdge { sym: id, line, via });
                }
            }
        }

        let mut hits: Vec<(usize, Hit)> = Vec::new();
        cycle_hits(&classes, &order, syms, &mut hits);

        // ---- atomic operation sites, classified by Ordering ----
        let mut atomics: BTreeMap<String, AtomicClass> = BTreeMap::new();
        for (id, sym) in syms.iter().enumerate() {
            let Some(span) = sym.body else { continue };
            let tokens = files[sym.file].tokens;
            let spans = &file_spans[sym.file];
            let marker = handshake_marker(tokens, span);
            for i in span.0..span.1.min(tokens.len()) {
                if owner(spans, i) != Some(id) {
                    continue;
                }
                let Some(op) = scan_atomic_op(tokens, i) else {
                    continue;
                };
                let class = classify_chain(&receiver_chain(tokens, i), sym);
                let entry = atomics.entry(class).or_insert(AtomicClass {
                    ops: Vec::new(),
                    handshake_via: None,
                });
                entry.ops.push(AtomicOp {
                    sym: id,
                    line: tokens[i].line,
                    op: op.0,
                    orderings: op.1,
                    relaxed_only: op.2,
                });
                if marker && entry.handshake_via.is_none() {
                    entry.handshake_via = Some(id);
                }
            }
        }
        for (class, ac) in &atomics {
            let mixed =
                ac.ops.iter().any(|o| o.relaxed_only) && ac.ops.iter().any(|o| !o.relaxed_only);
            for op in &ac.ops {
                if !op.relaxed_only {
                    continue;
                }
                let reason = if mixed {
                    "is accessed with stronger orderings elsewhere".to_string()
                } else if let Some(h) = ac.handshake_via {
                    format!(
                        "synchronises via a `Condvar`/`fence` handshake in `{}`",
                        syms[h].fq
                    )
                } else {
                    continue; // pure counter: Relaxed everywhere, no handshake
                };
                hits.push((
                    syms[op.sym].file,
                    Hit {
                        rule: RuleId::AtomicOrdering,
                        line: op.line,
                        message: format!(
                            "`Relaxed`-only `{}` on atomic `{class}`, which {reason}",
                            op.op
                        ),
                    },
                ));
            }
        }

        // ---- blocking sites and propagation ----
        let mut sites: Vec<Vec<BlockSite>> = (0..n).map(|_| Vec::new()).collect();
        for (id, sym) in syms.iter().enumerate() {
            let Some(span) = sym.body else { continue };
            let tokens = files[sym.file].tokens;
            let spans = &file_spans[sym.file];
            for i in span.0..span.1.min(tokens.len()) {
                if owner(spans, i) != Some(id) {
                    continue;
                }
                if let Some(what) = scan_blocking(tokens, i) {
                    sites[id].push(BlockSite {
                        line: tokens[i].line,
                        tok: Some(i),
                        what,
                    });
                }
            }
            for seed in &eff.seeds[id] {
                sites[id].push(BlockSite {
                    line: seed.line,
                    tok: None,
                    what: seed.what.clone(),
                });
            }
        }
        let mut trans_block: Vec<bool> = sites.iter().map(|s| !s.is_empty()).collect();
        loop {
            let mut changed = false;
            for id in 0..n {
                if trans_block[id] {
                    continue;
                }
                if conf[id].iter().any(|&t| trans_block[t]) {
                    trans_block[id] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        for (id, sym) in syms.iter().enumerate() {
            let Some(span) = sym.body else { continue };
            if acqs[id].is_empty() {
                continue;
            }
            let tokens = files[sym.file].tokens;
            for held in &acqs[id] {
                let region = graph::hold_region(tokens, span, &graph.acquisitions(id)[held.idx]);
                if region.end <= region.start {
                    continue;
                }
                let lo = tokens.get(region.start).map_or(u32::MAX, |t| t.line);
                let hi = tokens
                    .get(region.end.min(tokens.len()).saturating_sub(1))
                    .map_or(0, |t| t.line);
                for site in &sites[id] {
                    let inside = match site.tok {
                        Some(tok) => (region.start..region.end).contains(&tok),
                        None => site.line >= lo && site.line <= hi,
                    };
                    if inside {
                        hits.push((
                            sym.file,
                            Hit {
                                rule: RuleId::BlockingUnderLock,
                                line: site.line,
                                message: format!(
                                    "blocking {} in `{}` while a `{}` guard is held",
                                    site.what, sym.fq, classes[held.class].0
                                ),
                            },
                        ));
                    }
                }
                for call in graph.calls(id) {
                    if !call.confident || !(region.start..region.end).contains(&call.site.tok) {
                        continue;
                    }
                    if let Some(&t) = call.candidates.iter().find(|&&t| trans_block[t]) {
                        hits.push((
                            sym.file,
                            Hit {
                                rule: RuleId::BlockingUnderLock,
                                line: call.site.line,
                                message: format!(
                                    "`{}` guard held in `{}` across call into potentially \
                                     blocking `{}`",
                                    classes[held.class].0, sym.fq, syms[t].fq
                                ),
                            },
                        ));
                    }
                }
            }
        }

        hits.sort_by(|a, b| {
            (a.0, a.1.rule, a.1.line, a.1.message.as_str()).cmp(&(
                b.0,
                b.1.rule,
                b.1.line,
                b.1.message.as_str(),
            ))
        });
        hits.dedup_by(|a, b| a.0 == b.0 && a.1.rule == b.1.rule && a.1.line == b.1.line);

        let report = render_report(files, syms, &classes, &acqs, &order, &atomics);
        Concurrency { hits, report }
    }

    /// The raw hits, (file index, hit)-keyed like every semantic pass.
    #[must_use]
    pub fn into_hits(self) -> Vec<(usize, Hit)> {
        self.hits
    }

    /// The rendered `ntv-concurrency/2` report (byte-identical across
    /// runs over the same inputs).
    #[must_use]
    pub fn report(&self) -> &str {
        &self.report
    }
}

/// Innermost-span token ownership: nested fns own their tokens.
fn owner(spans: &[(SymbolId, (usize, usize))], tok: usize) -> Option<SymbolId> {
    spans
        .iter()
        .filter(|(_, (a, b))| (*a..*b).contains(&tok))
        .max_by_key(|(_, (a, _))| *a)
        .map(|&(o, _)| o)
}

/// Walk the receiver chain backwards from the method ident at `m`,
/// returning it root-first: `self.gate.free.load(..)` with `m` at `load`
/// yields `["self", "gate", "free"]`. A call segment contributes its name
/// (`OpPointCache::global().stats(..)` yields `["global()"]`); anything
/// unrecognisable truncates the chain at that point.
fn receiver_chain(tokens: &[Token], m: usize) -> Vec<String> {
    let mut rev: Vec<String> = Vec::new();
    let mut dot = match m.checked_sub(1) {
        Some(d) if tokens[d].is_punct('.') => d,
        _ => {
            return rev;
        }
    };
    'walk: while let Some(end) = dot.checked_sub(1) {
        if let Some(seg) = tokens[end].ident() {
            rev.push(seg.to_string());
            match end.checked_sub(1) {
                Some(p) if tokens[p].is_punct('.') => dot = p,
                _ => break,
            }
        } else if tokens[end].is_punct(')') {
            // A call segment: skip backwards over the balanced `(..)` and
            // take the name before it.
            let mut depth = 0i64;
            let mut k = end;
            loop {
                if tokens[k].is_punct(')') {
                    depth += 1;
                } else if tokens[k].is_punct('(') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                let Some(prev) = k.checked_sub(1) else {
                    break 'walk;
                };
                k = prev;
            }
            let Some(seg) = k.checked_sub(1).and_then(|p| tokens[p].ident()) else {
                break;
            };
            rev.push(format!("{seg}()"));
            match k.checked_sub(2) {
                Some(p) if tokens[p].is_punct('.') => dot = p,
                _ => break,
            }
        } else {
            break;
        }
    }
    rev.reverse();
    rev
}

/// SCREAMING_CASE identifies a `static` (module-scoped) lock or atomic.
fn is_screaming(s: &str) -> bool {
    s.chars().any(|c| c.is_ascii_uppercase())
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// The module prefix of a symbol's fully-qualified name (everything
/// before the optional `::Type` and the `::name` tail).
fn module_of(sym: &Symbol) -> String {
    let tail = sym.name.len() + 2 + sym.impl_ty.as_ref().map_or(0, |t| t.len() + 2);
    sym.fq[..sym.fq.len().saturating_sub(tail)].to_string()
}

/// Resolve a receiver chain to its lock/atomic class name.
///
/// Identity is `(container, field-or-static path)`: a SCREAMING static is
/// scoped to the using module; otherwise the leading receiver ident
/// (`self`, a local, a param) is stripped and the remaining field path is
/// scoped to the enclosing impl type (or module for free fns), so
/// `self.entries` and `cache.entries` in `OpPointCache` methods both
/// resolve to `OpPointCache.entries`.
fn classify_chain(chain: &[String], sym: &Symbol) -> String {
    let module = module_of(sym);
    if chain.is_empty() {
        return format!("{module}.<expr>");
    }
    if is_screaming(&chain[0]) {
        return format!("{module}.{}", chain.join("."));
    }
    let container = sym.impl_ty.clone().unwrap_or(module);
    let path = if chain.len() > 1 { &chain[1..] } else { chain };
    format!("{container}.{}", path.join("."))
}

/// Does this fn body mention a `Condvar`/`Barrier`, a `fence(..)`, or a
/// `.wait(..)`/`.notify_*(..)` call — i.e. is it handshake-adjacent?
fn handshake_marker(tokens: &[Token], span: (usize, usize)) -> bool {
    for i in span.0..span.1.min(tokens.len()) {
        let Some(id) = tokens[i].ident() else {
            continue;
        };
        if HANDSHAKE_TYPES.contains(&id) {
            return true;
        }
        if id == "fence" && tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
            return true;
        }
        if HANDSHAKE_METHODS.contains(&id)
            && i > 0
            && tokens[i - 1].is_punct('.')
            && tokens.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            return true;
        }
    }
    false
}

/// If token `i` is an atomic operation (`.op(..)` whose balanced argument
/// span names at least one `Ordering` variant), return
/// `(op, sorted distinct orderings, all-Relaxed?)`.
fn scan_atomic_op(tokens: &[Token], i: usize) -> Option<(String, Vec<String>, bool)> {
    let name = tokens[i].ident()?;
    if !ATOMIC_OPS.contains(&name) {
        return None;
    }
    if i == 0 || !tokens[i - 1].is_punct('.') {
        return None;
    }
    if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let end = parser::skip_balanced(tokens, i + 1);
    let mut ords: Vec<&str> = Vec::new();
    for tok in &tokens[(i + 2)..end.saturating_sub(1)] {
        if let Some(o) = tok.ident() {
            if ORDERINGS.contains(&o) {
                ords.push(o);
            }
        }
    }
    if ords.is_empty() {
        return None; // `.load(..)` et al. without an Ordering is not atomic
    }
    let relaxed_only = ords.iter().all(|&o| o == "Relaxed");
    let mut sorted: Vec<String> = ords.iter().map(|s| (*s).to_string()).collect();
    sorted.sort();
    sorted.dedup();
    Some((name.to_string(), sorted, relaxed_only))
}

/// If token `i` is a call that can park the thread, return its display
/// form. Shape checks: `fn name(` definitions are skipped; `.read(..)` /
/// `.write(..)` only count with a non-empty argument list (empty is a
/// lock acquisition); `join` only counts with an empty one (slice
/// `.join(", ")` takes a separator).
fn scan_blocking(tokens: &[Token], i: usize) -> Option<String> {
    let name = tokens[i].ident()?;
    let open = i + 1;
    if !tokens.get(open).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    if i > 0 && tokens[i - 1].ident() == Some("fn") {
        return None;
    }
    let empty = tokens.get(open + 1).is_some_and(|t| t.is_punct(')'));
    let blocking = match name {
        "read" | "write" => i > 0 && tokens[i - 1].is_punct('.') && !empty,
        "join" => empty,
        _ => BLOCKING_CALLS.contains(&name),
    };
    blocking.then(|| format!("`.{name}(..)`"))
}

/// Find every cycle in the order graph and emit one diagnostic per cycle,
/// anchored at the first edge's witness. Each cycle is discovered exactly
/// once: a BFS from class `s` restricted to classes `>= s` finds the
/// shortest cycle whose minimum class is `s`.
fn cycle_hits(
    classes: &[(String, &'static str)],
    order: &BTreeMap<(usize, usize), OrderEdge>,
    syms: &[Symbol],
    hits: &mut Vec<(usize, Hit)>,
) {
    let nc = classes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nc];
    for &(a, b) in order.keys() {
        adj[a].push(b);
    }
    for s in 0..nc {
        let mut parent: Vec<Option<usize>> = vec![None; nc];
        let mut seen = vec![false; nc];
        seen[s] = true;
        let mut queue = VecDeque::from([s]);
        let mut closing: Option<usize> = None;
        'bfs: while let Some(u) = queue.pop_front() {
            for &v in &adj[u] {
                if v == s {
                    closing = Some(u);
                    break 'bfs;
                }
                if v > s && !seen[v] {
                    seen[v] = true;
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }
        let Some(mut u) = closing else { continue };
        let mut nodes = vec![u];
        while let Some(p) = parent[u] {
            nodes.push(p);
            u = p;
        }
        nodes.reverse(); // [s, .., closing]
        let mut msg = format!("`{}`", classes[nodes[0]].0);
        for w in 0..nodes.len() {
            let from = nodes[w];
            let to = nodes[(w + 1) % nodes.len()];
            let e = &order[&(from, to)];
            let via = e
                .via
                .map_or(String::new(), |t| format!(", via `{}`", syms[t].fq));
            msg.push_str(&format!(
                " -> `{}` (acquired in `{}` line {}{via})",
                classes[to].0, syms[e.sym].fq, e.line
            ));
        }
        let e0 = &order[&(nodes[0], nodes[1 % nodes.len()])];
        hits.push((
            syms[e0.sym].file,
            Hit {
                rule: RuleId::LockOrderCycle,
                line: e0.line,
                message: format!("lock-order cycle: {msg}"),
            },
        ));
    }
}

/// Render the `ntv-concurrency/2` inventory: every lock class with its
/// acquisition sites, every order edge with its witness, every atomic
/// class with its per-op orderings and handshake flag. Sorted at every
/// level, so the output is byte-identical across runs. A site is keyed by
/// its function and `nth`, its 0-based position among that function's
/// sites in the same list, never by line, so an edit that only shifts
/// lines leaves the report unchanged.
fn render_report(
    files: &[SemFile],
    syms: &[Symbol],
    classes: &[(String, &'static str)],
    acqs: &[Vec<Acq>],
    order: &BTreeMap<(usize, usize), OrderEdge>,
    atomics: &BTreeMap<String, AtomicClass>,
) -> String {
    let rel = |fi: usize| files[fi].rel.to_string_lossy().replace('\\', "/");
    let lock_items: Vec<String> = classes
        .iter()
        .enumerate()
        .map(|(c, (name, kind))| {
            let mut sites: Vec<String> = Vec::new();
            for (id, sym) in syms.iter().enumerate() {
                let here = acqs[id].iter().filter(|a| a.class == c).count();
                for nth in 0..here {
                    sites.push(format!(
                        "{{\"fn\": \"{}\", \"file\": \"{}\", \"nth\": {nth}}}",
                        json::escape(&sym.fq),
                        json::escape(&rel(sym.file)),
                    ));
                }
            }
            format!(
                "{{\"class\": \"{}\", \"kind\": \"{kind}\", \"acquisitions\": [{}]}}",
                json::escape(name),
                sites.join(", ")
            )
        })
        .collect();
    let order_items: Vec<String> = order
        .iter()
        .map(|(&(a, b), e)| {
            let via = e.via.map_or(String::new(), |t| {
                format!(", \"via\": \"{}\"", json::escape(&syms[t].fq))
            });
            format!(
                "{{\"from\": \"{}\", \"to\": \"{}\", \"fn\": \"{}\", \"file\": \"{}\"{via}}}",
                json::escape(&classes[a].0),
                json::escape(&classes[b].0),
                json::escape(&syms[e.sym].fq),
                json::escape(&rel(syms[e.sym].file)),
            )
        })
        .collect();
    let atomic_items: Vec<String> = atomics
        .iter()
        .map(|(class, ac)| {
            let mixed =
                ac.ops.iter().any(|o| o.relaxed_only) && ac.ops.iter().any(|o| !o.relaxed_only);
            let handshake = mixed || ac.handshake_via.is_some();
            let mut union: Vec<String> = ac
                .ops
                .iter()
                .flat_map(|o| o.orderings.iter().cloned())
                .collect();
            union.sort();
            union.dedup();
            let ops: Vec<String> = ac
                .ops
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    let nth = ac.ops[..i].iter().filter(|p| p.sym == o.sym).count();
                    format!(
                        "{{\"fn\": \"{}\", \"file\": \"{}\", \"nth\": {nth}, \"op\": \"{}\", \
                         \"orderings\": {}}}",
                        json::escape(&syms[o.sym].fq),
                        json::escape(&rel(syms[o.sym].file)),
                        o.op,
                        json::string_array(&o.orderings)
                    )
                })
                .collect();
            format!(
                "{{\"class\": \"{}\", \"orderings\": {}, \"handshake\": {handshake}, \
                 \"ops\": [{}]}}",
                json::escape(class),
                json::string_array(&union),
                ops.join(", ")
            )
        })
        .collect();
    format!(
        "{{\n  \"schema\": \"ntv-concurrency/2\",\n  \"locks\": {},\n  \"order\": {},\n  \
         \"atomics\": {}\n}}\n",
        json::array(&lock_items, 4, 2),
        json::array(&order_items, 4, 2),
        json::array(&atomic_items, 4, 2),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;
    use std::path::Path;

    fn analyze(inputs: &[(&str, &str)]) -> (Vec<(usize, Hit)>, String) {
        let lexed: Vec<_> = inputs.iter().map(|(_, s)| lex(s)).collect();
        let parsed: Vec<_> = lexed.iter().map(parse).collect();
        let sem: Vec<SemFile> = inputs
            .iter()
            .enumerate()
            .map(|(i, (rel, _))| SemFile {
                rel: Path::new(*rel),
                tokens: &lexed[i].tokens,
                parsed: &parsed[i],
                test_ranges: &[],
            })
            .collect();
        let g = Graph::build(&sem);
        let eff = Effects::collect(&g, &sem);
        let conc = Concurrency::analyze(&g, &sem, &eff);
        let report = conc.report().to_string();
        (conc.into_hits(), report)
    }

    fn rules_of(hits: &[(usize, Hit)]) -> Vec<RuleId> {
        hits.iter().map(|(_, h)| h.rule).collect()
    }

    const CYCLE_SRC: &str = "
use std::sync::Mutex;
static REGISTRY: Mutex<Vec<u64>> = Mutex::new(Vec::new());
static JOURNAL: Mutex<Vec<u64>> = Mutex::new(Vec::new());
pub fn record(v: u64) {
    let mut reg = REGISTRY.lock().expect(\"registry\");
    let mut jl = JOURNAL.lock().expect(\"journal\");
    reg.push(v);
    jl.push(v);
}
pub fn replay() -> usize {
    let jl = JOURNAL.lock().expect(\"journal\");
    let reg = REGISTRY.lock().expect(\"registry\");
    jl.len() + reg.len()
}
";

    #[test]
    fn opposite_order_acquisitions_form_a_cycle() {
        let (hits, _) = analyze(&[("crates/core/src/pair.rs", CYCLE_SRC)]);
        assert_eq!(rules_of(&hits), vec![RuleId::LockOrderCycle], "{hits:?}");
        let (_, hit) = &hits[0];
        // Anchored at the minimum class's first edge: JOURNAL -> REGISTRY
        // is witnessed by `replay`'s REGISTRY acquisition on line 13.
        assert_eq!(hit.line, 13);
        assert!(hit.message.contains("ntv_core::pair.JOURNAL"), "{hit:?}");
        assert!(hit.message.contains("ntv_core::pair.REGISTRY"), "{hit:?}");
        assert!(hit.message.contains("ntv_core::pair::record"), "{hit:?}");
        assert!(hit.message.contains("ntv_core::pair::replay"), "{hit:?}");
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = CYCLE_SRC.replace(
            "let jl = JOURNAL.lock().expect(\"journal\");\n    let reg = REGISTRY.lock().expect(\"registry\");",
            "let reg = REGISTRY.lock().expect(\"registry\");\n    let jl = JOURNAL.lock().expect(\"journal\");",
        );
        let (hits, report) = analyze(&[("crates/core/src/pair.rs", &src)]);
        assert!(hits.is_empty(), "{hits:?}");
        // The consistent edge is still inventoried.
        assert!(
            report.contains("\"from\": \"ntv_core::pair.REGISTRY\""),
            "{report}"
        );
    }

    #[test]
    fn cross_file_opposite_order_cycles_only_when_analyzed_together() {
        let a = "
use std::sync::Mutex;
pub struct SplitPair { pub left: Mutex<u64>, pub right: Mutex<u64> }
impl SplitPair {
    pub fn lr(&self) -> u64 {
        let l = self.left.lock().expect(\"left\");
        let r = self.right.lock().expect(\"right\");
        *l + *r
    }
}
";
        let b = "
use crate::split_a::SplitPair;
impl SplitPair {
    pub fn rl(&self) -> u64 {
        let r = self.right.lock().expect(\"right\");
        let l = self.left.lock().expect(\"left\");
        *l + *r
    }
}
";
        let (alone_a, _) = analyze(&[("crates/core/src/split_a.rs", a)]);
        let (alone_b, _) = analyze(&[("crates/core/src/split_b.rs", b)]);
        assert!(alone_a.is_empty(), "{alone_a:?}");
        assert!(alone_b.is_empty(), "{alone_b:?}");
        let (together, _) = analyze(&[
            ("crates/core/src/split_a.rs", a),
            ("crates/core/src/split_b.rs", b),
        ]);
        assert_eq!(
            rules_of(&together),
            vec![RuleId::LockOrderCycle],
            "{together:?}"
        );
        assert!(together[0].1.message.contains("SplitPair.left"));
        assert!(together[0].1.message.contains("SplitPair.right"));
    }

    #[test]
    fn mixed_ordering_class_denies_relaxed_but_not_cas_failure() {
        let src = "
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
pub struct Flag { ready: AtomicBool, hits: AtomicU64 }
impl Flag {
    pub fn publish(&self) { self.ready.store(true, Ordering::Relaxed); }
    pub fn consume(&self) -> bool { self.ready.load(Ordering::Acquire) }
    pub fn try_claim(&self) -> bool {
        self.ready.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok()
    }
    pub fn count(&self) { self.hits.fetch_add(1, Ordering::Relaxed); }
    pub fn total(&self) -> u64 { self.hits.load(Ordering::Relaxed) }
}
";
        let (hits, report) = analyze(&[("crates/core/src/flag.rs", src)]);
        // Only the all-Relaxed store on the mixed class fires; the CAS's
        // Relaxed *failure* ordering and the all-Relaxed counter stay
        // clean.
        assert_eq!(rules_of(&hits), vec![RuleId::AtomicOrdering], "{hits:?}");
        assert_eq!(hits[0].1.line, 5);
        assert!(hits[0].1.message.contains("Flag.ready"), "{hits:?}");
        assert!(
            report.contains(
                "\"class\": \"Flag.hits\", \"orderings\": [\"Relaxed\"], \"handshake\": false"
            ),
            "{report}"
        );
    }

    #[test]
    fn fence_proximity_denies_relaxed_ops() {
        let src = "
use std::sync::atomic::{fence, AtomicU64, Ordering};
pub struct Seq { head: AtomicU64 }
impl Seq {
    pub fn bump(&self) {
        fence(Ordering::Release);
        self.head.fetch_add(1, Ordering::Relaxed);
    }
}
";
        let (hits, _) = analyze(&[("crates/core/src/seq.rs", src)]);
        assert_eq!(rules_of(&hits), vec![RuleId::AtomicOrdering], "{hits:?}");
        assert_eq!(hits[0].1.line, 7);
        assert!(hits[0].1.message.contains("Seq::bump"), "{hits:?}");
    }

    #[test]
    fn blocking_inside_guard_fires_and_outside_stays_clean() {
        let src = "
use std::sync::Mutex;
static LOG: Mutex<Vec<String>> = Mutex::new(Vec::new());
pub fn drain(rx: &std::sync::mpsc::Receiver<String>) {
    let mut log = LOG.lock().expect(\"log\");
    let item = rx.recv().expect(\"sender alive\");
    log.push(item);
}
pub fn drain_ok(rx: &std::sync::mpsc::Receiver<String>) {
    let item = rx.recv().expect(\"sender alive\");
    let mut log = LOG.lock().expect(\"log\");
    log.push(item);
}
";
        let (hits, _) = analyze(&[("crates/core/src/q.rs", src)]);
        assert_eq!(rules_of(&hits), vec![RuleId::BlockingUnderLock], "{hits:?}");
        assert_eq!(hits[0].1.line, 6);
        assert!(hits[0].1.message.contains("recv"), "{hits:?}");
    }

    #[test]
    fn transitive_blocking_through_confident_call_fires() {
        let src = "
use std::sync::mpsc::Receiver;
use std::sync::Mutex;
static STATE: Mutex<u64> = Mutex::new(0);
pub fn tick(rx: &Receiver<u64>) -> u64 {
    let mut state = STATE.lock().expect(\"state\");
    *state += pump(rx);
    *state
}
fn pump(rx: &Receiver<u64>) -> u64 { rx.recv().unwrap_or(0) }
";
        let (hits, _) = analyze(&[("crates/core/src/t.rs", src)]);
        assert_eq!(rules_of(&hits), vec![RuleId::BlockingUnderLock], "{hits:?}");
        assert_eq!(hits[0].1.line, 7);
        assert!(hits[0].1.message.contains("pump"), "{hits:?}");
    }

    #[test]
    fn receiver_chains_unify_self_and_local_receivers() {
        let src = "
use std::sync::RwLock;
pub struct Cache { entries: RwLock<u64> }
impl Cache {
    pub fn read_len(&self) -> u64 { *self.entries.read().expect(\"lock\") }
    pub fn write_zero(cache: &Cache) { *cache.entries.write().expect(\"lock\") = 0; }
}
";
        let (hits, report) = analyze(&[("crates/core/src/c.rs", src)]);
        assert!(hits.is_empty(), "{hits:?}");
        // Both acquisitions land on one class despite different receivers.
        assert!(
            report.contains("\"class\": \"Cache.entries\", \"kind\": \"rwlock\""),
            "{report}"
        );
        assert_eq!(report.matches("\"class\": ").count(), 1, "{report}");
        assert_eq!(report.matches("\"fn\": ").count(), 2, "{report}");
    }

    #[test]
    fn report_is_deterministic_and_shaped() {
        let (_, report) = analyze(&[("crates/core/src/pair.rs", CYCLE_SRC)]);
        assert!(
            report.starts_with("{\n  \"schema\": \"ntv-concurrency/2\","),
            "{report}"
        );
        assert!(report.contains("\"locks\": ["), "{report}");
        assert!(report.contains("\"kind\": \"mutex\""), "{report}");
        assert!(report.contains("\"order\": ["), "{report}");
        assert!(report.ends_with("\"atomics\": []\n}\n"), "{report}");
        // Sites are keyed by function and per-function position, not line;
        // `replay` takes REGISTRY second, after its JOURNAL acquisition.
        assert!(!report.contains("\"line\""), "{report}");
        assert!(
            report.contains("\"fn\": \"ntv_core::pair::replay\", \"file\": \"crates/core/src/pair.rs\", \"nth\": 0}"),
            "{report}"
        );
        let (_, again) = analyze(&[("crates/core/src/pair.rs", CYCLE_SRC)]);
        assert_eq!(report, again);
    }

    #[test]
    fn report_is_unchanged_when_lines_shift() {
        let (hits, report) = analyze(&[("crates/core/src/pair.rs", CYCLE_SRC)]);
        let shifted = format!("\n\n\n{CYCLE_SRC}");
        let (shifted_hits, shifted_report) = analyze(&[("crates/core/src/pair.rs", &shifted)]);
        assert_eq!(report, shifted_report);
        // Diagnostics keep their source lines.
        assert_eq!(shifted_hits[0].1.line, hits[0].1.line + 3);
    }
}
