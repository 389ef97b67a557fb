//! Expression-level numeric dataflow over the declaration parser's output.
//!
//! The lint pass so far reasons about *names* (token rules) and *edges*
//! (the call graph). This layer reasons about *values*: per-function
//! def-use facts — which bindings are floats, which carry `ntv-units`
//! newtypes, which token spans are loop bodies — assembled by a single
//! forward scan over the body token stream. Three rules consume the
//! facts:
//!
//! * **`ntv::reduction-order`** — sequential non-associative f64
//!   accumulation (`+=` / `*=` on a float binding inside a loop, `.sum()`,
//!   a float-seeded `.fold(..)`) in a function reachable from a public
//!   Library API. Every flagged site is a place where SIMD lane reordering
//!   would change the result bit pattern, which is exactly what the
//!   deterministic executor forbids. Stride updates (`width *= 2.0` — a
//!   lone-literal right-hand side) are not accumulations and are skipped;
//!   min/max folds seeded from `f64::INFINITY` are order-free and pass;
//!   calls into `ntv_mc::reduce` are the sanctioned fixed-order shape.
//! * **`ntv::lossy-cast`** — truncating/rounding `as` casts: float → int,
//!   `f64 as f32`, and width-narrowing casts of length/count values. A
//!   cast is *guarded* (not flagged) when the value is provably bounded in
//!   the same function: a `.min(..)` / `.clamp(..)` directly on the cast
//!   chain, a clamp inside the operand, or a later rebind of the cast's
//!   `let` binding through `.min(..)` / `.clamp(..)`.
//! * **`ntv::unit-escape`** — a `.0` projection of an `ntv-units` newtype
//!   returned from a `pub` fn as a bare float, the dataflow extension of
//!   the signature-level `ntv::bare-unit` rule. Only *escapes* are flagged
//!   — a projection that feeds arithmetic produces a new (documented,
//!   scale-suffixed) quantity and is the intended use of `.0`.
//!
//! Like the rest of the pass, the analysis is name-shaped and total: no
//! type inference, just deterministic scans that over-approximate in the
//! direction each rule can afford (reduction/cast facts err toward
//! flagging with a waiver escape hatch; unit facts err toward silence so
//! the rule never fires on a non-unit tuple field).

use std::collections::BTreeSet;

use crate::graph::{Graph, SemFile};
use crate::lexer::Token;
use crate::parser::{self, FnSig, ParsedFile};
use crate::resolve::SymbolId;
use crate::rules::{Hit, RuleId};

/// The `ntv-units` newtype idents whose `.0` projection is tracked.
const UNIT_TYPES: &[&str] = &["Volts", "Seconds"];

/// Integer cast targets (a float operand makes the cast lossy).
const INT_TARGETS: &[&str] = &[
    "usize", "isize", "u8", "u16", "u32", "u64", "u128", "i8", "i16", "i32", "i64", "i128",
];

/// Narrow integer targets: a length/count operand makes the cast lossy.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Method names whose result is a length/count (`usize`-shaped).
const LEN_SOURCES: &[&str] = &["len", "partition_point", "count"];

/// Method names that mark an expression as float-valued.
const FLOAT_METHODS: &[&str] = &[
    "powi", "powf", "sqrt", "exp", "ln", "floor", "ceil", "round", "trunc", "exp_m1", "ln_1p",
    "hypot", "mul_add", "recip", "erfc",
];

/// One reduction site inside a function body.
#[derive(Debug, Clone)]
pub struct ReductionSite {
    /// 1-based source line.
    pub line: u32,
    /// What shape of reduction this is (for the message).
    pub kind: ReductionKind,
}

/// The reduction shapes the scan distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionKind {
    /// `x += ..` / `x *= ..` on a float binding inside a loop body.
    LoopAccumulate,
    /// `.sum()` / `.sum::<f64>()` terminal.
    IterSum,
    /// `.fold(<float literal>, ..)` terminal.
    FloatFold,
}

impl ReductionKind {
    /// Short label used in diagnostics.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReductionKind::LoopAccumulate => "loop-accumulate",
            ReductionKind::IterSum => "iter-sum",
            ReductionKind::FloatFold => "float-fold",
        }
    }
}

/// Per-function dataflow facts from one forward scan of the body.
#[derive(Debug, Default)]
struct FnFacts {
    /// Bindings (params + lets) known to hold f64/f32 values.
    floats: BTreeSet<String>,
    /// Bindings known to hold an `ntv-units` newtype.
    units: BTreeSet<String>,
    /// Bindings produced by a bare `let y = x.0;` unit projection.
    escaped: BTreeSet<String>,
    /// Token spans (half-open) of `for`/`while`/`loop` bodies.
    loops: Vec<(usize, usize)>,
}

/// Is `range` of `tokens` float-valued, given the known float bindings?
fn is_floaty(tokens: &[Token], range: (usize, usize), floats: &BTreeSet<String>) -> bool {
    (range.0..range.1.min(tokens.len())).any(|i| {
        let t = &tokens[i];
        if t.is_float_literal() {
            return true;
        }
        match t.ident() {
            Some("f64" | "f32") => true,
            Some(m) if FLOAT_METHODS.contains(&m) => i > 0 && tokens[i - 1].is_punct('.'),
            Some(id) => floats.contains(id),
            None => false,
        }
    })
}

/// Token index just past the end of the statement containing `i`: the
/// first `;` at or below the statement's brace depth, or the `}` that
/// closes the surrounding block.
fn stmt_end(tokens: &[Token], span: (usize, usize), i: usize) -> usize {
    let mut depth = 0i64;
    let mut j = i;
    let limit = span.1.min(tokens.len());
    while j < limit {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('}') {
            if depth == 0 {
                return j;
            }
            depth -= 1;
        } else if t.is_punct(';') && depth <= 0 {
            return j;
        }
        j += 1;
    }
    j
}

/// Start of the statement containing `i`: the token after the nearest
/// `;` / `{` / `}` at or before `i`.
fn stmt_start(tokens: &[Token], span: (usize, usize), i: usize) -> usize {
    let mut s = i;
    while s > span.0 + 1 {
        let p = &tokens[s - 1];
        if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
            break;
        }
        s -= 1;
    }
    s
}

/// Collect per-function facts: float/unit bindings, escapes, loop bodies.
/// One forward pass — Rust's def-before-use makes that sufficient for the
/// straight-line `let` chains this layer cares about.
fn collect_facts(tokens: &[Token], sig: &FnSig) -> FnFacts {
    let mut facts = FnFacts::default();
    for p in &sig.params {
        // Scalar floats only: a slice/Vec of floats is not itself a float
        // value (its `.len()` is a usize, its name cannot be `+=`'d).
        if (p.ty.contains("f64") || p.ty.contains("f32"))
            && !p.ty.contains('[')
            && !p.ty.contains("Vec")
        {
            for name in p
                .name
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .filter(|s| !s.is_empty() && *s != "_" && *s != "mut" && *s != "ref")
            {
                facts.floats.insert(name.to_owned());
            }
        }
        if UNIT_TYPES.iter().any(|u| p.ty.contains(u)) && !p.ty.contains('[') {
            facts.units.insert(p.name.clone());
        }
    }
    let Some(span) = sig.body else { return facts };
    let limit = span.1.min(tokens.len());
    let mut i = span.0;
    while i < limit {
        let t = &tokens[i];
        match t.ident() {
            // Loop body spans. `for` must head a `pat in iter {` form so
            // `impl Trait for Type {` inside a body never matches.
            Some(kw @ ("for" | "while" | "loop")) => {
                if let Some(body) = loop_body(tokens, limit, i, kw) {
                    facts.loops.push(body);
                }
            }
            Some("let") => {
                classify_let(tokens, span, i, &mut facts);
            }
            _ => {}
        }
        i += 1;
    }
    facts
}

/// From a `for`/`while`/`loop` keyword at `i`, the token span of the loop
/// body block, if this is a loop header.
fn loop_body(tokens: &[Token], limit: usize, i: usize, kw: &str) -> Option<(usize, usize)> {
    let mut depth = 0i64;
    let mut saw_in = kw != "for"; // `for` requires `pat in iter`
    let mut j = i + 1;
    while j < limit {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if depth == 0 && t.ident() == Some("in") {
            saw_in = true;
        } else if depth == 0 && t.is_punct('{') {
            if !saw_in {
                return None; // `impl .. for Type {`
            }
            return Some((j, parser::skip_balanced(tokens, j)));
        } else if t.is_punct(';') || t.is_punct('}') {
            return None; // ran off the statement without a body
        }
        j += 1;
    }
    None
}

/// Classify the `let` statement starting at token `i` (the `let` ident):
/// record float/unit bindings and bare `x.0` escapes.
fn classify_let(tokens: &[Token], span: (usize, usize), i: usize, facts: &mut FnFacts) {
    let end = stmt_end(tokens, span, i);
    // Split the statement at the top-level `=` (if any).
    let mut depth = 0i64;
    let mut eq = None;
    let mut colon = None;
    for j in i + 1..end {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') || t.is_punct('<') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') || t.is_punct('>') {
            depth -= 1;
        } else if depth == 0 && t.is_punct('=') && eq.is_none() {
            // `==` / `=>` never appear at a let's top level; `<=`-style
            // compound tokens arrive as two puncts but sit inside the
            // initializer, after `eq` is already set.
            eq = Some(j);
            break;
        } else if depth == 0 && t.is_punct(':') && colon.is_none() {
            let next_colon = tokens.get(j + 1).is_some_and(|n| n.is_punct(':'));
            let prev_colon = j > 0 && tokens[j - 1].is_punct(':');
            if !next_colon && !prev_colon {
                colon = Some(j); // a type annotation, not a `::` path
            }
        }
    }
    let names_end = colon.or(eq).unwrap_or(end);
    let names: Vec<&str> = tokens[i + 1..names_end]
        .iter()
        .filter_map(Token::ident)
        .filter(|s| !matches!(*s, "mut" | "ref"))
        .collect();
    if names.is_empty() {
        return;
    }

    // Annotated type wins.
    if let (Some(c), Some(stop)) = (colon, eq.or(Some(end))) {
        let has = |needle: &str| tokens[c..stop].iter().any(|t| t.ident() == Some(needle));
        if has("f64") || has("f32") {
            for n in &names {
                facts.floats.insert((*n).to_owned());
            }
        }
        if UNIT_TYPES.iter().any(|u| has(u)) {
            for n in &names {
                facts.units.insert((*n).to_owned());
            }
        }
    }
    let Some(eq) = eq else { return };

    // Bare escape: `let y = x.0;` where `x` is a unit binding.
    if names.len() == 1 && end - eq == 4 {
        if let (Some(src), true, Some("0")) = (
            tokens[eq + 1].ident(),
            tokens[eq + 2].is_punct('.'),
            tokens[eq + 3].literal(),
        ) {
            if facts.units.contains(src) {
                facts.escaped.insert(names[0].to_owned());
                return;
            }
        }
    }

    // Initializer-shape classification (no annotation needed).
    let init = (eq + 1, end);
    if colon.is_none() {
        if is_floaty(tokens, init, &facts.floats) {
            for n in &names {
                facts.floats.insert((*n).to_owned());
            }
        }
        // Unit constructor `Volts(..)` / propagation `let v = vdd;`.
        let ctor = tokens[init.0..init.1.min(tokens.len())]
            .windows(2)
            .any(|w| w[0].ident().is_some_and(|id| UNIT_TYPES.contains(&id)) && w[1].is_punct('('));
        let propagated = init.1 - init.0 == 1
            && tokens[init.0]
                .ident()
                .is_some_and(|id| facts.units.contains(id));
        if names.len() == 1 && (ctor || propagated) {
            facts.units.insert(names[0].to_owned());
        }
    }
}

/// Scan one function body for reduction sites. `own` filters out tokens
/// owned by a nested fn.
fn reduction_sites(
    tokens: &[Token],
    sig: &FnSig,
    facts: &FnFacts,
    own: impl Fn(usize) -> bool,
) -> Vec<ReductionSite> {
    let mut out = Vec::new();
    let Some(span) = sig.body else { return out };
    let limit = span.1.min(tokens.len());
    for i in span.0..limit {
        if !own(i) {
            continue;
        }
        let t = &tokens[i];
        if let Some(id) = t.ident() {
            if id == "sum" && i > 0 && tokens[i - 1].is_punct('.') {
                if let Some(kind) = classify_sum(tokens, span, sig, i) {
                    out.push(ReductionSite { line: t.line, kind });
                }
                continue;
            }
            if id == "fold"
                && i > 0
                && tokens[i - 1].is_punct('.')
                && tokens.get(i + 1).is_some_and(|n| n.is_punct('('))
                && tokens.get(i + 2).is_some_and(Token::is_float_literal)
            {
                out.push(ReductionSite {
                    line: t.line,
                    kind: ReductionKind::FloatFold,
                });
                continue;
            }
            // `acc += term` / `acc *= factor` on a float binding in a loop.
            if facts.floats.contains(id)
                && !(i > 0 && tokens[i - 1].is_punct('.'))
                && facts.loops.iter().any(|&(a, b)| (a..b).contains(&i))
            {
                let compound = matches!(
                    (tokens.get(i + 1), tokens.get(i + 2)),
                    (Some(op), Some(e)) if (op.is_punct('+') || op.is_punct('*')) && e.is_punct('=')
                );
                if compound && !lone_literal_rhs(tokens, span, i + 3) {
                    out.push(ReductionSite {
                        line: t.line,
                        kind: ReductionKind::LoopAccumulate,
                    });
                }
            }
        }
    }
    out
}

/// Is the right-hand side starting at `rhs` a lone literal (`width *= 2.0`
/// — a stride update, not an accumulation)?
fn lone_literal_rhs(tokens: &[Token], span: (usize, usize), rhs: usize) -> bool {
    let end = stmt_end(tokens, span, rhs);
    end == rhs + 1 && tokens.get(rhs).is_some_and(|t| t.literal().is_some())
}

/// Classify a `.sum` at token `i`: `IterSum` when it is a float reduction,
/// `None` when the element type cannot be shown float (an integer sum is
/// exact and order-free).
fn classify_sum(
    tokens: &[Token],
    span: (usize, usize),
    sig: &FnSig,
    i: usize,
) -> Option<ReductionKind> {
    // Turbofish `.sum::<f64>()` is explicit.
    if tokens.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && tokens.get(i + 2).is_some_and(|t| t.is_punct(':'))
    {
        let close = (i + 3..span.1.min(tokens.len()))
            .find(|&j| tokens[j].is_punct('('))
            .unwrap_or(i + 3);
        let floatish = tokens[i + 3..close]
            .iter()
            .any(|t| matches!(t.ident(), Some("f64" | "f32")));
        return floatish.then_some(ReductionKind::IterSum);
    }
    if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    // Bare `.sum()`: float when the enclosing `let` is annotated f64, or
    // the statement is the fn's tail/return and the fn returns f64.
    let s = stmt_start(tokens, span, i);
    if tokens.get(s).and_then(Token::ident) == Some("let") {
        let end = stmt_end(tokens, span, i);
        let floatish = tokens[s..end.min(tokens.len())]
            .iter()
            .take_while(|t| !t.is_punct('='))
            .any(|t| matches!(t.ident(), Some("f64" | "f32")));
        return floatish.then_some(ReductionKind::IterSum);
    }
    let ret_float = sig
        .ret
        .as_deref()
        .is_some_and(|r| r.contains("f64") || r.contains("f32"));
    if !ret_float {
        return None;
    }
    let is_return = tokens.get(s).and_then(Token::ident) == Some("return");
    let end = stmt_end(tokens, span, i);
    let is_tail = tokens.get(end).is_some_and(|t| t.is_punct('}'));
    (is_return || is_tail).then_some(ReductionKind::IterSum)
}

/// One lossy-cast site (pre-guard-analysis).
struct CastSite {
    line: u32,
    /// Why the cast is lossy (used in the message).
    what: &'static str,
    guarded: bool,
}

/// Scan one function body for lossy `as` casts with guard analysis.
fn cast_sites(tokens: &[Token], sig: &FnSig, facts: &FnFacts) -> Vec<CastSite> {
    let mut out = Vec::new();
    let Some(span) = sig.body else { return out };
    let limit = span.1.min(tokens.len());
    for i in span.0..limit {
        if tokens[i].ident() != Some("as") {
            continue;
        }
        let Some(target) = tokens.get(i + 1).and_then(Token::ident) else {
            continue;
        };
        let operand = operand_span(tokens, span, i);
        let lenish = tokens[operand.0..operand.1.min(tokens.len())]
            .iter()
            .enumerate()
            .any(|(k, t)| {
                t.ident().is_some_and(|id| LEN_SOURCES.contains(&id))
                    && (operand.0 + k > 0 && tokens[operand.0 + k - 1].is_punct('.'))
            });
        // A length/count-producing chain is usize-shaped whatever its
        // receiver held, so it pre-empts the float classification.
        let floaty = !lenish && operand_is_floaty(tokens, operand, &facts.floats);
        let what = if INT_TARGETS.contains(&target) && floaty {
            "float value cast to integer truncates"
        } else if NARROW_TARGETS.contains(&target) && lenish {
            "length/count narrowed to a smaller integer wraps"
        } else if target == "f32" && floaty {
            "f64 narrowed to f32 loses precision"
        } else {
            continue;
        };
        let guarded = cast_is_guarded(tokens, span, sig, i, operand);
        out.push(CastSite {
            line: tokens[i].line,
            what,
            guarded,
        });
    }
    out
}

/// Float classification for a cast operand: like [`is_floaty`], but only
/// the *surface* of the postfix chain counts — tokens inside call/index
/// argument groups describe other values (`self.hint[Self::bucket(g)]` is
/// an integer element however float `g` is). The leading group of a
/// parenthesized operand (`(x * 10.0) as usize`) is the value itself and
/// is included whole.
fn operand_is_floaty(tokens: &[Token], operand: (usize, usize), floats: &BTreeSet<String>) -> bool {
    let (a, b) = (operand.0, operand.1.min(tokens.len()));
    if a >= b {
        return false;
    }
    if tokens[a].is_punct('(') {
        let close = parser::skip_balanced(tokens, a);
        if is_floaty(tokens, (a, close.min(b)), floats) {
            return true;
        }
        // The rest of the chain after the leading group, surface-only.
        return surface_floaty(tokens, (close, b), floats);
    }
    surface_floaty(tokens, (a, b), floats)
}

/// [`is_floaty`] restricted to depth-0 tokens of `range`.
fn surface_floaty(tokens: &[Token], range: (usize, usize), floats: &BTreeSet<String>) -> bool {
    let mut depth = 0i64;
    for j in range.0..range.1.min(tokens.len()) {
        let t = &tokens[j];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
            continue;
        }
        if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            continue;
        }
        if depth > 0 {
            continue;
        }
        if is_floaty(tokens, (j, j + 1), floats) {
            return true;
        }
    }
    false
}

/// The operand token span of an `as` at token `i`: walk the postfix chain
/// backwards (idents, literals, `.`-chains, balanced `()`/`[]` groups).
fn operand_span(tokens: &[Token], span: (usize, usize), i: usize) -> (usize, usize) {
    let mut s = i;
    loop {
        if s <= span.0 + 1 {
            break;
        }
        let p = &tokens[s - 1];
        if p.is_punct(')') || p.is_punct(']') {
            // Balanced group: walk back to its opener.
            let mut depth = 0i64;
            let mut j = s - 1;
            loop {
                let t = &tokens[j];
                if t.is_punct(')') || t.is_punct(']') {
                    depth += 1;
                } else if t.is_punct('(') || t.is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == span.0 {
                    break;
                }
                j -= 1;
            }
            s = j;
            continue;
        }
        if p.ident().is_some() || p.literal().is_some() {
            s -= 1;
            continue;
        }
        if p.is_punct('.') || p.is_punct(':') {
            s -= 1;
            continue;
        }
        break;
    }
    (s, i)
}

/// Guard analysis for a lossy cast at token `i` with `operand` span.
fn cast_is_guarded(
    tokens: &[Token],
    span: (usize, usize),
    sig: &FnSig,
    i: usize,
    operand: (usize, usize),
) -> bool {
    let limit = span.1.min(tokens.len());
    let clampish = |id: Option<&str>| matches!(id, Some("min" | "clamp"));
    // (1) Clamp inside the operand itself: `x.clamp(0.0, 255.0) as u8`.
    for k in operand.0..operand.1 {
        if clampish(tokens[k].ident()) && k > 0 && tokens[k - 1].is_punct('.') {
            return true;
        }
    }
    // (2) Clamp applied to the cast chain: `(t as usize).min(N)` /
    //     `t as usize % n` — skip closing parens after the target type.
    let mut j = i + 2; // token after the target type
    while j < limit && tokens[j].is_punct(')') {
        j += 1;
    }
    if j + 1 < limit && tokens[j].is_punct('.') && clampish(tokens[j + 1].ident()) {
        return true;
    }
    if j < limit && tokens[j].is_punct('%') {
        return true;
    }
    // (3) The cast's `let` binding is later clamped or rebound through a
    //     clamp: `let idx = .. as usize; let idx = idx.min(len - 1);`.
    let s = stmt_start(tokens, span, i);
    let mut names = tokens[s..operand.0.max(s)].iter();
    if names.next().and_then(Token::ident) != Some("let") {
        return false;
    }
    let Some(bind) = tokens[s + 1..operand.0]
        .iter()
        .filter_map(Token::ident)
        .find(|id| !matches!(*id, "mut" | "ref"))
    else {
        return false;
    };
    let end = stmt_end(tokens, span, i);
    let body_limit = sig.body.map_or(limit, |(_, b)| b.min(tokens.len()));
    let mut k = end;
    while k + 2 < body_limit {
        if tokens[k].ident() == Some(bind)
            && tokens[k + 1].is_punct('.')
            && clampish(tokens[k + 2].ident())
        {
            return true;
        }
        k += 1;
    }
    false
}

/// Unit-escape sites in one function: `return x.0;`-shaped exits of `pub`
/// fns (tail expression or `return` statement that is exactly a projection
/// of a unit binding, an escaped binding, or a tuple of those).
fn escape_sites(tokens: &[Token], sig: &FnSig, facts: &FnFacts) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    if !sig.is_pub {
        return out;
    }
    let ret_bare = sig
        .ret
        .as_deref()
        .is_some_and(|r| r.contains("f64") && !UNIT_TYPES.iter().any(|u| r.contains(u)));
    if !ret_bare {
        return out;
    }
    let Some(span) = sig.body else { return out };
    let limit = span.1.min(tokens.len());
    // `return <expr> ;` statements.
    for i in span.0..limit {
        if tokens[i].ident() == Some("return") {
            let end = stmt_end(tokens, span, i);
            if let Some(name) = escaping_expr(tokens, (i + 1, end), facts) {
                out.push((tokens[i].line, name));
            }
        }
    }
    // The body tail expression: tokens after the last top-level `;`/`{`.
    let close = limit.saturating_sub(1);
    if close > span.0 {
        let mut s = close;
        let mut depth = 0i64;
        while s > span.0 + 1 {
            let p = &tokens[s - 1];
            if p.is_punct(')') || p.is_punct(']') || p.is_punct('}') {
                depth += 1;
            } else if p.is_punct('(') || p.is_punct('[') || p.is_punct('{') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            } else if depth == 0 && p.is_punct(';') {
                break;
            }
            s -= 1;
        }
        if let Some(name) = escaping_expr(tokens, (s, close), facts) {
            out.push((tokens[s].line, name));
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Does `range` consist exactly of a bare unit escape: `x.0`, an escaped
/// ident, or a parenthesized tuple of those? Returns the escaping binding.
fn escaping_expr(tokens: &[Token], range: (usize, usize), facts: &FnFacts) -> Option<String> {
    let (a, b) = (range.0, range.1.min(tokens.len()));
    if a >= b {
        return None;
    }
    // Strip one level of parens (tuple or grouping).
    if tokens[a].is_punct('(') && parser::skip_balanced(tokens, a) == b {
        // Split on top-level commas; every element must escape.
        let mut depth = 0i64;
        let mut start = a + 1;
        let mut first = None;
        for j in a + 1..b - 1 {
            let t = &tokens[j];
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(',') {
                let name = escaping_expr(tokens, (start, j), facts)?;
                first.get_or_insert(name);
                start = j + 1;
            }
        }
        if start >= b - 1 {
            return None; // empty tuple / trailing comma only
        }
        let name = escaping_expr(tokens, (start, b - 1), facts)?;
        return Some(first.unwrap_or(name));
    }
    match b - a {
        1 => {
            let id = tokens[a].ident()?;
            facts.escaped.contains(id).then(|| id.to_owned())
        }
        3 => {
            let id = tokens[a].ident()?;
            (facts.units.contains(id)
                && tokens[a + 1].is_punct('.')
                && tokens[a + 2].literal() == Some("0"))
            .then(|| id.to_owned())
        }
        _ => None,
    }
}

/// Per-file pass: `ntv::lossy-cast` and `ntv::unit-escape` hits for one
/// parsed file. Policy (class, test regions, waivers) is applied by the
/// engine.
#[must_use]
pub fn file_hits(tokens: &[Token], parsed: &ParsedFile) -> Vec<Hit> {
    let mut out = Vec::new();
    for sig in &parsed.fns {
        let facts = collect_facts(tokens, sig);
        for c in cast_sites(tokens, sig, &facts) {
            if c.guarded {
                continue;
            }
            out.push(Hit {
                rule: RuleId::LossyCast,
                line: c.line,
                message: format!(
                    "{} and the value is not `.min(..)`/`.clamp(..)`-bounded in `{}`",
                    c.what, sig.name
                ),
            });
        }
        for (line, bind) in escape_sites(tokens, sig, &facts) {
            out.push(Hit {
                rule: RuleId::UnitEscape,
                line,
                message: format!(
                    "unit newtype `{bind}` leaves public fn `{}` as a bare float \
                     via `.0` projection",
                    sig.name
                ),
            });
        }
    }
    out.sort_by(|a, b| (a.line, a.rule.name()).cmp(&(b.line, b.rule.name())));
    out
}

/// Graph pass: `ntv::reduction-order` hits — reduction sites inside
/// functions reachable from a public Library root, as (file index, hit).
#[must_use]
pub fn reduction_hits(graph: &Graph, files: &[SemFile]) -> Vec<(usize, Hit)> {
    // Innermost-span ownership, mirroring `Graph::build`.
    let mut file_spans: Vec<Vec<(SymbolId, (usize, usize))>> = vec![Vec::new(); files.len()];
    for (id, sym) in graph.table.symbols.iter().enumerate() {
        if let Some(span) = sym.body {
            file_spans[sym.file].push((id, span));
        }
    }
    let mut out = Vec::new();
    for (id, sym) in graph.table.symbols.iter().enumerate() {
        if sym.body.is_none() {
            continue;
        }
        let Some(root) = graph.witness_root(id) else {
            continue;
        };
        let file = &files[sym.file];
        let sig = &file.parsed.fns[sym.sig];
        let facts = collect_facts(file.tokens, sig);
        let spans = &file_spans[sym.file];
        let own = |tok: usize| {
            spans
                .iter()
                .filter(|(_, (a, b))| (*a..*b).contains(&tok))
                .max_by_key(|(_, (a, _))| *a)
                .map(|&(o, _)| o)
                == Some(id)
        };
        let root_fq = &graph.table.symbols[root].fq;
        for site in reduction_sites(file.tokens, sig, &facts, own) {
            out.push((
                sym.file,
                Hit {
                    rule: RuleId::ReductionOrder,
                    line: site.line,
                    message: format!(
                        "order-sensitive f64 reduction ({}) in `{}` reachable from \
                         public API `{root_fq}`; vectorization would change the \
                         result — use `ntv_mc::reduce`",
                        site.kind.label(),
                        sym.fq
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

    fn facts_of(src: &str) -> (Vec<Token>, ParsedFile) {
        let lexed = lex(src);
        let parsed = parse(&lexed);
        (lexed.tokens, parsed)
    }

    fn one_graph(src: &str) -> Vec<(usize, Hit)> {
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
        reduction_hits(&graph, &files)
    }

    #[test]
    fn loop_accumulation_reachable_from_pub_is_flagged() {
        let hits = one_graph(
            "pub fn total(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for &x in xs { acc += x; }\n    acc\n}",
        );
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].1.line, 3);
        assert!(hits[0].1.message.contains("loop-accumulate"));
    }

    #[test]
    fn unreachable_private_accumulation_is_not_flagged() {
        let hits = one_graph(
            "fn helper(xs: &[f64]) -> f64 {\n    let mut acc = 0.0;\n    for &x in xs { acc += x; }\n    acc\n}",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn stride_updates_and_int_counters_pass() {
        let hits = one_graph(
            "pub fn probe(xs: &[f64]) -> f64 {\n    let mut width = 1.0;\n    let mut n = 0usize;\n    for _ in xs { width *= 2.0; n += 1; }\n    width + n as f64\n}",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn iter_sum_and_float_fold_are_flagged_min_fold_passes() {
        let hits = one_graph(
            "pub fn s(xs: &[f64]) -> f64 { xs.iter().sum() }\npub fn t(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }\npub fn f(xs: &[f64]) -> f64 { xs.iter().fold(0.0, |a, b| a + b) }\npub fn m(xs: &[f64]) -> f64 { xs.iter().copied().fold(f64::INFINITY, f64::min) }",
        );
        let lines: Vec<u32> = hits.iter().map(|h| h.1.line).collect();
        assert_eq!(lines, vec![1, 2, 3], "{hits:?}");
    }

    #[test]
    fn integer_sum_is_not_flagged() {
        let hits = one_graph(
            "pub fn n(xs: &[u32]) -> u32 { xs.iter().sum() }\npub fn m(xs: &[u64]) -> u64 { xs.iter().sum::<u64>() }",
        );
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn ordered_helper_calls_pass() {
        let hits = one_graph("pub fn total(xs: &[f64]) -> f64 { sum_ordered(xs.iter().copied()) }");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn unguarded_float_to_int_cast_is_flagged_guarded_passes() {
        let (tokens, parsed) = facts_of(
            "fn bin(x: f64) -> usize { (x * 10.0) as usize }\nfn ok(x: f64) -> usize { ((x * 10.0) as usize).min(9) }\nfn ok2(x: f64, n: usize) -> usize { let i = (x * 10.0) as usize; i.min(n - 1) }\nfn ok3(x: f64) -> u8 { x.clamp(0.0, 255.0) as u8 }",
        );
        let hits = file_hits(&tokens, &parsed);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].line, 1);
        assert_eq!(hits[0].rule, RuleId::LossyCast);
    }

    #[test]
    fn narrow_len_cast_flagged_widening_passes() {
        let (tokens, parsed) = facts_of(
            "fn narrow(xs: &[f64]) -> u32 { xs.len() as u32 }\nfn widen(n: u32) -> f64 { n as f64 }\nfn wide_len(xs: &[f64]) -> u64 { xs.len() as u64 }",
        );
        let hits = file_hits(&tokens, &parsed);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("narrowed"));
    }

    #[test]
    fn float_index_argument_does_not_make_an_int_cast_lossy() {
        // `hint[bucket(g)]` is a u32 element; float `g` inside the index
        // expression must not classify the widening cast as float→int.
        let (tokens, parsed) =
            facts_of("fn seed(hint: &[u32], g: f64) -> usize { hint[bucket(g)] as usize }");
        let hits = file_hits(&tokens, &parsed);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn f64_to_f32_is_flagged() {
        let (tokens, parsed) = facts_of("fn shrink(x: f64) -> f32 { x as f32 }");
        let hits = file_hits(&tokens, &parsed);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("f32"));
    }

    #[test]
    fn unit_escape_tail_and_return_are_flagged() {
        let (tokens, parsed) = facts_of(
            "pub fn leak(v: Volts) -> f64 { v.0 }\npub fn leak2(v: Volts) -> f64 { let raw = v.0; return raw; }\npub fn pair(v: Volts, t: Seconds) -> (f64, f64) { (v.0, t.0) }",
        );
        let hits = file_hits(&tokens, &parsed);
        assert_eq!(hits.len(), 3, "{hits:?}");
        assert!(hits.iter().all(|h| h.rule == RuleId::UnitEscape));
    }

    #[test]
    fn derived_quantities_and_private_fns_pass() {
        let (tokens, parsed) = facts_of(
            "pub fn scaled_ps(t: Seconds) -> f64 { t.0 * 1e12 }\nfn private(v: Volts) -> f64 { v.0 }\npub fn typed(v: Volts) -> Volts { v }\npub fn tuple_index(pair: (f64, f64)) -> f64 { pair.0 }",
        );
        let hits = file_hits(&tokens, &parsed);
        assert!(hits.is_empty(), "{hits:?}");
    }
}
