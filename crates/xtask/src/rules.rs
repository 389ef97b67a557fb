//! Lint rules: domain invariants of the Monte-Carlo workspace, expressed as
//! token-stream patterns.
//!
//! Three families, mirroring the repo's correctness contract:
//!
//! * **Determinism** — every figure is a Monte-Carlo statistic, so all
//!   randomness must flow through `ntv_mc::rng` labelled seed streams. The
//!   path-level bans (clocks, host reads, hash-order containers, uncached
//!   builds, the `panic!` family) are clippy's, on resolved paths: see
//!   `crates/clippy.toml` and `[workspace.lints.clippy]`.
//! * **Float totality** — order statistics must be NaN-safe:
//!   `partial_cmp(..).unwrap()` is a latent panic on the exact inputs
//!   (NaN-bearing samples) the pipeline must reject gracefully; use
//!   `f64::total_cmp` or an explicit NaN-rejecting constructor.
//! * **Unit safety** — public library APIs must not pass physical quantities
//!   (volts, seconds) as bare `f64`; use the `ntv-units` newtypes so the
//!   compiler rejects a voltage where a time is expected. This family is
//!   signature-aware: it runs on the [`parser`](crate::parser) extraction,
//!   not the raw token stream.

use crate::lexer::Token;
use crate::parser::ParsedFile;

/// Identity of a lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Direct stateful-generator use (`SmallRng`, `rand::rngs`) — library
    /// code must draw through the index-addressed counter streams so
    /// sample *i* never depends on draw history.
    StatefulRng,
    /// `partial_cmp(..).unwrap()` / `.expect(..)` float orderings.
    PartialCmpUnwrap,
    /// Bare `f64` (or f64 tuple) carrying a physical unit in a public
    /// library signature — use the `ntv-units` newtypes instead.
    BareUnit,
    /// Malformed `ntv:allow(..)` waiver comment (missing rule or reason).
    BadWaiver,
    /// Panicking operation (`.expect(..)`, slice indexing by a
    /// caller-supplied parameter) reachable from a public Library-class API — found by the
    /// [`graph`](crate::graph) call-graph pass, not token scanning.
    PanicPath,
    /// Lock guard held across a call into lock-acquiring code, a second
    /// acquisition, or the Gauss–Hermite build path — the discipline that
    /// keeps `ntv_core::op_cache` deadlock-free and build-outside-lock.
    LockDiscipline,
    /// Sequential non-associative f64 accumulation (`+=`/`*=` in a loop,
    /// `.sum()`, a float-seeded `.fold(..)`) in Library code reachable from
    /// a public API — exactly where SIMD lane reordering would change the
    /// result bit pattern. Found by the [`dataflow`](crate::dataflow) pass
    /// over the call graph.
    ReductionOrder,
    /// Truncating/rounding `as` cast (`f64 as usize`, `f64 as f32`, a
    /// width-narrowing integer cast on a length/count) whose operand is not
    /// provably bounds-guarded (`.min(..)` / `.clamp(..)`) in the same
    /// function.
    LossyCast,
    /// A `.0` projection of an `ntv-units` newtype that flows back out of a
    /// public fn as a bare float — the dataflow extension of the
    /// signature-level `bare-unit` rule.
    UnitEscape,
    /// An I/O seed (`println!`, `std::fs`, `std::io`) reachable from a
    /// public Library-class fn — found by the [`effects`](crate::effects)
    /// seed scan over the call graph, not token scanning.
    HiddenIo,
    /// A cycle in the workspace lock-order graph: two lock classes each
    /// acquirable while the other is held (possibly through confident call
    /// edges), i.e. a latent ABBA deadlock — found by the
    /// [`concurrency`](crate::concurrency) pass.
    LockOrderCycle,
    /// An all-`Relaxed` atomic operation on an atomic that participates in
    /// a cross-thread handshake (mixed-ordering publication, `Condvar`, or
    /// an explicit `fence`); pure counters stay `Relaxed` without a waiver.
    AtomicOrdering,
    /// A call that can transitively block (socket/file I/O, `Condvar::wait`,
    /// channel `recv`, `join`, `sleep`) while a lock guard is live — the
    /// bug shape that convoys every other thread behind one slow caller.
    BlockingUnderLock,
    /// An `ntv:allow(..)` waiver that suppresses zero findings (reported
    /// only under `xtask lint --check-waivers`, so waivers cannot rot).
    DeadWaiver,
}

impl RuleId {
    /// Every rule, in diagnostic-name order.
    pub const ALL: &'static [RuleId] = &[
        RuleId::StatefulRng,
        RuleId::PartialCmpUnwrap,
        RuleId::BareUnit,
        RuleId::BadWaiver,
        RuleId::PanicPath,
        RuleId::LockDiscipline,
        RuleId::ReductionOrder,
        RuleId::LossyCast,
        RuleId::UnitEscape,
        RuleId::HiddenIo,
        RuleId::LockOrderCycle,
        RuleId::AtomicOrdering,
        RuleId::BlockingUnderLock,
        RuleId::DeadWaiver,
    ];

    /// Full diagnostic name, e.g. `ntv::panic-path`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RuleId::StatefulRng => "ntv::stateful-rng",
            RuleId::PartialCmpUnwrap => "ntv::partial-cmp-unwrap",
            RuleId::BareUnit => "ntv::bare-unit",
            RuleId::BadWaiver => "ntv::bad-waiver",
            RuleId::PanicPath => "ntv::panic-path",
            RuleId::LockDiscipline => "ntv::lock-discipline",
            RuleId::ReductionOrder => "ntv::reduction-order",
            RuleId::LossyCast => "ntv::lossy-cast",
            RuleId::UnitEscape => "ntv::unit-escape",
            RuleId::HiddenIo => "ntv::hidden-io",
            RuleId::LockOrderCycle => "ntv::lock-order-cycle",
            RuleId::AtomicOrdering => "ntv::atomic-ordering",
            RuleId::BlockingUnderLock => "ntv::blocking-under-lock",
            RuleId::DeadWaiver => "ntv::dead-waiver",
        }
    }

    /// Short name accepted inside `ntv:allow(..)` waivers.
    #[must_use]
    pub fn short_name(self) -> &'static str {
        match self {
            RuleId::StatefulRng => "stateful-rng",
            RuleId::PartialCmpUnwrap => "partial-cmp-unwrap",
            RuleId::BareUnit => "bare-unit",
            RuleId::BadWaiver => "bad-waiver",
            RuleId::PanicPath => "panic-path",
            RuleId::LockDiscipline => "lock-discipline",
            RuleId::ReductionOrder => "reduction-order",
            RuleId::LossyCast => "lossy-cast",
            RuleId::UnitEscape => "unit-escape",
            RuleId::HiddenIo => "hidden-io",
            RuleId::LockOrderCycle => "lock-order-cycle",
            RuleId::AtomicOrdering => "atomic-ordering",
            RuleId::BlockingUnderLock => "blocking-under-lock",
            RuleId::DeadWaiver => "dead-waiver",
        }
    }

    /// Resolve a waiver name (`panic-path` or `ntv::panic-path`) to a rule.
    #[must_use]
    pub fn from_waiver_name(name: &str) -> Option<RuleId> {
        let name = name.trim().trim_start_matches("ntv::");
        RuleId::ALL.iter().copied().find(|r| r.short_name() == name)
    }

    /// One-line explanation shown with each diagnostic.
    #[must_use]
    pub fn help(self) -> &'static str {
        match self {
            RuleId::StatefulRng => {
                "draw through `ntv_mc::CounterRng` index-addressed streams \
                 and their `CounterDraws` cursors; a stateful generator's \
                 sequential draw history breaks thread-count invariance"
            }
            RuleId::PartialCmpUnwrap => {
                "panics on NaN; order floats with `f64::total_cmp`, or reject \
                 NaN at the boundary and document it"
            }
            RuleId::BareUnit => {
                "physical quantities in public signatures must use the \
                 `ntv-units` newtypes (`Volts`, `Seconds`) so unit mix-ups \
                 fail to compile; scale-suffixed names (`_ps`, `_mv`, \
                 `_fo4`, ...) stay `f64` by convention"
            }
            RuleId::BadWaiver => {
                "waivers must name a rule and give a reason: \
                 `// ntv:allow(<rule>): <reason>`"
            }
            RuleId::PanicPath => {
                "this panic is reachable from a public API, so a malformed \
                 input can abort a full Monte-Carlo sweep mid-grid; return \
                 `Result`, bound the index through an accessor, or waive \
                 with the invariant that makes the panic unreachable"
            }
            RuleId::LockDiscipline => {
                "never hold a map lock across a build or another \
                 acquisition: take the guard in a statement-scoped \
                 temporary, clone the per-entry `Arc<OnceLock>`, and build \
                 outside the lock (the `ntv_core::op_cache` pattern)"
            }
            RuleId::ReductionOrder => {
                "float addition is not associative, so this sequential \
                 accumulation pins a summation order that SIMD lane \
                 reordering would silently change; route it through \
                 `ntv_mc::reduce` (`sum_ordered` / `sum_compensated`), or \
                 waive with the invariant that fixes the order"
            }
            RuleId::LossyCast => {
                "this `as` cast silently truncates or rounds; clamp the \
                 value first (`.min(..)` / `.clamp(..)` in the same \
                 function), convert through a checked path, or waive with \
                 the invariant that bounds the operand"
            }
            RuleId::UnitEscape => {
                "the `.0` projection strips the `ntv-units` newtype before \
                 the value leaves a public fn, reopening the unit-mix-up \
                 hole the newtype closed; return the newtype, or convert \
                 through a named accessor at the boundary"
            }
            RuleId::HiddenIo => {
                "this I/O operation is reachable from a public library fn, \
                 so library consumers inherit a hidden stdout/filesystem \
                 dependency; return the data and let the caller print, or \
                 move the printing into the bin harness"
            }
            RuleId::LockOrderCycle => {
                "two lock classes can each be acquired while the other is \
                 held, so two threads taking them in opposite orders \
                 deadlock; pick one global order (document it where the \
                 first lock lives), or drop the inner guard before taking \
                 the outer"
            }
            RuleId::AtomicOrdering => {
                "this atomic takes part in a cross-thread handshake (it is \
                 written with stronger orderings elsewhere, or sits next to \
                 a `Condvar`/`fence`), so a fully `Relaxed` operation can \
                 observe torn protocol state; use `Acquire`/`Release` on \
                 the handshake edges, or waive with the invariant that \
                 makes `Relaxed` sufficient"
            }
            RuleId::BlockingUnderLock => {
                "a call that can block (socket/file I/O, `Condvar::wait`, \
                 channel `recv`, `join`, `sleep`) runs while a lock guard \
                 is live, so one slow peer stalls every thread behind the \
                 lock; drop the guard first, or move the blocking call out \
                 of the critical section (the `op_cache` build-outside-lock \
                 pattern)"
            }
            RuleId::DeadWaiver => {
                "this waiver suppresses no finding — the code it excused \
                 was fixed or moved; delete the comment so the waiver \
                 inventory stays honest"
            }
        }
    }
}

/// A raw rule hit before policy (file class, test regions, waivers) is
/// applied.
#[derive(Debug, Clone)]
pub struct Hit {
    /// The violated rule.
    pub rule: RuleId,
    /// 1-based source line of the violation.
    pub line: u32,
    /// What was found, e.g. ``stateful generator `SmallRng` ``.
    pub message: String,
}

/// Scan a token stream for every rule violation, regardless of file class —
/// filtering by class/policy/waiver happens in `engine`.
#[must_use]
pub fn scan(tokens: &[Token]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for (i, tok) in tokens.iter().enumerate() {
        let Some(ident) = tok.ident() else { continue };
        match ident {
            "SmallRng" => hits.push(Hit {
                rule: RuleId::StatefulRng,
                line: tok.line,
                message: "stateful generator `SmallRng`".to_string(),
            }),
            "rand" if path_call(tokens, i, "rngs") => hits.push(Hit {
                rule: RuleId::StatefulRng,
                line: tok.line,
                message: "stateful generator via `rand::rngs`".to_string(),
            }),
            "partial_cmp" => {
                if let Some(method) = partial_cmp_then_unwrap(tokens, i) {
                    hits.push(Hit {
                        rule: RuleId::PartialCmpUnwrap,
                        line: tok.line,
                        message: format!("`partial_cmp(..).{method}(..)` panics on NaN"),
                    });
                }
            }
            _ => {}
        }
    }
    hits
}

/// Scan extracted declarations for the signature-aware `ntv::bare-unit`
/// family. Only *public* functions are policed (and methods only when their
/// self type is not a private struct of the same file): the rule protects
/// the API surface other crates consume.
#[must_use]
pub fn scan_signatures(parsed: &ParsedFile) -> Vec<Hit> {
    let mut hits = Vec::new();
    for f in &parsed.fns {
        if !f.is_pub {
            continue;
        }
        if let Some(self_ty) = &f.in_impl {
            if parsed.struct_is_pub(self_ty) == Some(false) {
                continue;
            }
        }
        for p in &f.params {
            if is_bare_f64(&p.ty) && has_unit_segment(&p.name) && !has_scale_segment(&p.name) {
                hits.push(Hit {
                    rule: RuleId::BareUnit,
                    line: p.line,
                    message: format!(
                        "parameter `{}: {}` of public fn `{}` carries a physical unit as bare f64",
                        p.name, p.ty, f.name
                    ),
                });
            }
        }
        if let Some(ret) = &f.ret {
            if is_bare_f64(ret)
                && !has_scale_segment(&f.name)
                && (has_unit_segment(&f.name) || doc_names_unit(&f.doc).is_some())
            {
                let why = if has_unit_segment(&f.name) {
                    "its name".to_string()
                } else {
                    // Checked by the condition above.
                    let unit = doc_names_unit(&f.doc).unwrap_or("a unit");
                    format!("its doc (\"in {unit}\")")
                };
                hits.push(Hit {
                    rule: RuleId::BareUnit,
                    line: f.line,
                    message: format!(
                        "public fn `{}` returns `{ret}` but {why} names a physical unit",
                        f.name
                    ),
                });
            }
        }
    }
    hits
}

/// `f64` itself, or a tuple type containing only `f64` fields.
fn is_bare_f64(ty: &str) -> bool {
    if ty == "f64" {
        return true;
    }
    ty.strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .is_some_and(|inner| {
            let mut any = false;
            for field in inner.split(',').filter(|f| !f.is_empty()) {
                if field != "f64" {
                    return false;
                }
                any = true;
            }
            any
        })
}

/// Snake-case segments that *are* a physical quantity: a parameter named
/// `vdd` or `half_life_seconds` holds volts/seconds and must be typed so.
const UNIT_SEGMENTS: &[&str] = &["vdd", "vth", "volt", "volts", "voltage", "seconds", "secs"];

/// Scale-suffix segments exempting a name: by workspace convention these are
/// plain numbers in a *stated* scale (`t_clk_ns`, `margin_mv`,
/// `fo4_unit_ps`) and the SI-base newtypes would force silent rescaling.
const SCALE_SEGMENTS: &[&str] = &[
    "ps", "ns", "us", "ms", "fs", "fj", "pj", "nj", "mv", "uv", "fo4", "pct",
];

fn segments(name: &str) -> impl Iterator<Item = String> + '_ {
    name.split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
        .map(str::to_lowercase)
}

fn has_unit_segment(name: &str) -> bool {
    segments(name).any(|s| UNIT_SEGMENTS.contains(&s.as_str()))
}

fn has_scale_segment(name: &str) -> bool {
    segments(name).any(|s| SCALE_SEGMENTS.contains(&s.as_str()))
}

/// Does the doc comment explicitly state the value's unit (`... in volts`)?
/// Restricted to the `in <unit>` phrase so prose that merely *mentions*
/// voltage (e.g. "at the given supply") does not flag dimensionless returns.
fn doc_names_unit(doc: &str) -> Option<&'static str> {
    let doc = doc.to_lowercase();
    ["volts", "seconds"]
        .into_iter()
        .find(|unit| doc.contains(&format!("in {unit}")))
}

/// Is token `i` followed by `::`?
pub(crate) fn double_colon(tokens: &[Token], i: usize) -> bool {
    matches!(
        (tokens.get(i + 1), tokens.get(i + 2)),
        (Some(a), Some(b)) if a.is_punct(':') && b.is_punct(':')
    )
}

/// Is token `i` followed by `::name`?
pub(crate) fn path_call(tokens: &[Token], i: usize, name: &str) -> bool {
    double_colon(tokens, i) && tokens.get(i + 3).and_then(Token::ident) == Some(name)
}

/// From `partial_cmp` at index `i`: skip the balanced call parentheses, then
/// report `Some("unwrap" | "expect")` if that is the next method called.
fn partial_cmp_then_unwrap(tokens: &[Token], i: usize) -> Option<&'static str> {
    let open = i + 1;
    if !tokens.get(open)?.is_punct('(') {
        return None; // `f64::partial_cmp` passed as a function value
    }
    let mut depth = 0usize;
    let mut j = open;
    loop {
        let t = tokens.get(j)?;
        if t.is_punct('(') {
            depth += 1;
        } else if t.is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    if !tokens.get(j + 1)?.is_punct('.') {
        return None;
    }
    match tokens.get(j + 2)?.ident()? {
        "unwrap" => Some("unwrap"),
        "expect" => Some("expect"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rules_hit(src: &str) -> Vec<RuleId> {
        let mut v: Vec<RuleId> = scan(&lex(src).tokens).into_iter().map(|h| h.rule).collect();
        v.dedup();
        v
    }

    #[test]
    fn detects_stateful_generators() {
        assert_eq!(
            rules_hit("use rand::rngs::SmallRng;"),
            vec![RuleId::StatefulRng]
        );
        assert_eq!(
            rules_hit("let r = SmallRng::seed_from_u64(7);"),
            vec![RuleId::StatefulRng]
        );
        // The sanctioned entry points don't mention the generator at all.
        assert!(rules_hit("let s = CounterRng::new(seed, \"label\");").is_empty());
        assert!(rules_hit("use rand::Rng;").is_empty());
    }

    #[test]
    fn detects_partial_cmp_unwrap_and_expect() {
        assert_eq!(
            rules_hit("v.sort_by(|a, b| a.partial_cmp(b).unwrap());"),
            vec![RuleId::PartialCmpUnwrap]
        );
        assert_eq!(
            rules_hit("let o = x.partial_cmp(&y).expect(\"no NaN\");"),
            vec![RuleId::PartialCmpUnwrap]
        );
        assert!(rules_hit("v.sort_by(f64::total_cmp);").is_empty());
        assert!(rules_hit("let f = f64::partial_cmp;").is_empty());
    }

    fn sig_hits(src: &str) -> Vec<Hit> {
        scan_signatures(&crate::parser::parse(&lex(src)))
    }

    #[test]
    fn bare_unit_flags_unit_named_f64_params_on_public_fns() {
        let hits = sig_hits("pub fn delay(vdd: f64, n: usize) -> f64 { 0.0 }");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RuleId::BareUnit);
        assert!(hits[0].message.contains("vdd"), "{}", hits[0].message);
        // Private and crate-restricted functions are not API surface.
        assert!(sig_hits("fn delay(vdd: f64) -> f64 { 0.0 }").is_empty());
        assert!(sig_hits("pub(crate) fn delay(vdd: f64) -> f64 { 0.0 }").is_empty());
    }

    #[test]
    fn bare_unit_flags_unit_named_returns_and_doc_units() {
        assert_eq!(sig_hits("pub fn nominal_vdd() -> f64 { 0.9 }").len(), 1);
        let doc = "/// Critical-path period, in seconds.\npub fn period() -> f64 { 1e-9 }";
        assert_eq!(sig_hits(doc).len(), 1);
        // Prose mentioning a quantity without stating the unit is fine.
        let prose =
            "/// Yield at the given supply voltage point.\npub fn yield_at() -> f64 { 0.9 }";
        assert!(sig_hits(prose).is_empty());
    }

    #[test]
    fn bare_unit_exempts_scale_suffixed_names_and_newtypes() {
        assert!(sig_hits("pub fn fo4_unit_ps(vdd_mv: f64) -> f64 { 441.0 }").is_empty());
        assert!(sig_hits("pub fn target_delay_ns() -> f64 { 22.0 }").is_empty());
        assert!(sig_hits("pub fn delay(vdd: Volts) -> Seconds { Seconds(0.0) }").is_empty());
        // Slices/containers of f64 are aggregates, not a single quantity.
        assert!(sig_hits("pub fn vdd_grid() -> Vec<f64> { vec![] }").is_empty());
        // A quantity `ntv-units` has no newtype for has nothing to be typed as.
        assert!(sig_hits("pub fn f(freq_hz: f64) {}").is_empty());
        // A frequency scale does not make a voltage name scale-suffixed.
        assert_eq!(sig_hits("pub fn f(vdd_mhz: f64) {}").len(), 1);
    }

    #[test]
    fn bare_unit_flags_f64_tuples_and_private_impl_methods_pass() {
        assert_eq!(
            sig_hits("pub fn vdd_bounds() -> (f64, f64) { (0.0, 1.0) }").len(),
            1
        );
        let private_impl =
            "struct Inner;\nimpl Inner {\n    pub fn vth_shift(&self) -> f64 { 0.0 }\n}";
        assert!(sig_hits(private_impl).is_empty());
        let public_impl =
            "pub struct Outer;\nimpl Outer {\n    pub fn vth_shift(&self) -> f64 { 0.0 }\n}";
        assert_eq!(sig_hits(public_impl).len(), 1);
    }
}
