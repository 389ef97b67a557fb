//! Property-style tests for the expression shapes the dataflow layer
//! consumes: compound assignment across every loop form, method chains of
//! arbitrary depth, closures nested inside public fns, and the literal
//! classification the float-binding facts depend on.
//!
//! Each case is generated programmatically and pushed through the full
//! `lint_source` pipeline (lexer → parser → call graph → dataflow), so a
//! regression in any layer shows up as a wrong rule set for some shape.

use std::path::Path;

use xtask::lexer::lex;
use xtask::{engine, RuleId};

/// Lint a generated source as Library code, returning the deduped rules.
fn rules_of(source: &str) -> Vec<RuleId> {
    let ws_rel = Path::new("crates/xtask/tests/fixtures/library/generated_case.rs");
    let mut rules: Vec<RuleId> = engine::lint_source(ws_rel, source)
        .into_iter()
        .map(|d| d.rule)
        .collect();
    rules.dedup();
    rules
}

/// `+=` and `*=` on an f64 accumulator fire in every loop form; the same
/// shapes with an integer accumulator never do.
#[test]
fn compound_assignment_fires_in_every_loop_form_for_floats_only() {
    let loops = [
        ("for", "for i in 0..n {", "}"),
        ("while", "let mut i = 0usize; while i < n { i += 1;", "}"),
        (
            "loop",
            "let mut i = 0usize; loop { if i >= n { break; } i += 1;",
            "}",
        ),
    ];
    for op in ["+=", "*="] {
        for (label, open, close) in loops {
            let float = format!(
                "pub fn f(n: usize, xs: &[f64]) -> f64 {{\n\
                 let mut acc = 1.0;\n{open}\nacc {op} xs[i % xs.len()];\n{close}\nacc\n}}\n"
            );
            assert_eq!(
                rules_of(&float),
                vec![RuleId::ReductionOrder],
                "float {op} in {label}"
            );

            let int = format!(
                "pub fn f(n: usize, xs: &[u64]) -> u64 {{\n\
                 let mut acc = 1u64;\n{open}\nacc {op} xs[i % xs.len()];\n{close}\nacc\n}}\n"
            );
            assert_eq!(rules_of(&int), vec![], "integer {op} in {label}");
        }
    }
}

/// The same accumulation *outside* any loop is a straight-line sum of a
/// fixed number of terms — not a reduction.
#[test]
fn compound_assignment_outside_a_loop_is_quiet() {
    let src = "pub fn f(a: f64, b: f64) -> f64 {\n\
               let mut acc = 0.0;\nacc += a;\nacc += b;\nacc\n}\n";
    assert_eq!(rules_of(src), vec![]);
}

/// `.sum::<f64>()` is flagged at any method-chain depth; the equivalent
/// chain ending in an order-free terminal (`count`, min/max fold) is not.
#[test]
fn method_chain_depth_does_not_hide_a_sum() {
    for depth in 0..4 {
        let links = ".map(|x| x * 2.0)".repeat(depth);
        let flagged =
            format!("pub fn f(xs: &[f64]) -> f64 {{\nxs.iter().copied(){links}.sum::<f64>()\n}}\n");
        assert_eq!(
            rules_of(&flagged),
            vec![RuleId::ReductionOrder],
            "sum at chain depth {depth}"
        );

        let quiet = format!(
            "pub fn f(xs: &[f64]) -> f64 {{\n\
             xs.iter().copied(){links}.fold(f64::NEG_INFINITY, f64::max)\n}}\n"
        );
        assert_eq!(rules_of(&quiet), vec![], "max fold at chain depth {depth}");
    }
}

/// A reduction buried in a closure nested inside a public fn is still
/// attributed to that fn, and a trailing waiver still silences it there.
#[test]
fn nested_closures_neither_hide_nor_break_attribution() {
    for depth in 1..4 {
        let open: String = (0..depth)
            .map(|i| format!("let c{i} = |ys: &[f64]| {{\n"))
            .collect();
        let close = "};\n".repeat(depth);
        let src = format!(
            "pub fn f(xs: &[f64]) -> f64 {{\n{open}\
             let mut acc = 0.0;\nfor &y in ys {{\nacc += y;\n}}\nacc\n{close}c0(xs)\n}}\n"
        );
        assert_eq!(
            rules_of(&src),
            vec![RuleId::ReductionOrder],
            "closure depth {depth}"
        );

        let waived = src.replace(
            "acc += y;",
            "acc += y; // ntv:allow(reduction-order): golden order",
        );
        assert_eq!(rules_of(&waived), vec![], "waived closure depth {depth}");
    }
}

/// An unguarded truncating cast fires wherever the expression sits —
/// statement position or inside a closure body — and a clamp in the
/// operand silences every one of those shapes. (An *untyped* closure
/// param is not a known float binding: the facts err toward silence.)
#[test]
fn lossy_cast_shapes_fire_and_guards_silence() {
    let shapes = [
        "pub fn f(x: f64) -> usize {\nlet i = x as usize;\ni\n}\n".to_string(),
        "pub fn f(xs: &[f64]) -> Vec<usize> {\n\
         xs.iter().map(|&v| {\nlet x: f64 = v;\nx as usize\n}).collect()\n}\n"
            .to_string(),
    ];
    for (i, src) in shapes.iter().enumerate() {
        assert_eq!(rules_of(src), vec![RuleId::LossyCast], "shape {i}");
        let guarded = src.replace("x as usize", "x.clamp(0.0, 63.0) as usize");
        assert_eq!(rules_of(&guarded), vec![], "guarded shape {i}");
    }

    let untyped =
        "pub fn f(xs: &[f64]) -> Vec<usize> {\nxs.iter().map(|&x| x as usize).collect()\n}\n";
    assert_eq!(
        rules_of(untyped),
        vec![],
        "untyped closure param stays quiet"
    );
}

/// Literal classification: integer suffixes (including the `e`-carrying
/// `usize`/`isize`), base prefixes and float forms must sort correctly —
/// the float-binding facts are built on this.
#[test]
fn numeric_literal_classification_matrix() {
    let float_forms = [
        "1.0", "0.5", "1e3", "2E-4", "1.5e2", "3f64", "2f32", "1_000.25",
    ];
    let int_forms = [
        "1", "42", "0usize", "7isize", "1u8", "2i8", "3u16", "4i16", "5u32", "6i32", "7u64",
        "8i64", "9u128", "10i128", "1_000", "0xfe", "0o17", "0b1010",
    ];
    for (forms, want) in [(&float_forms[..], true), (&int_forms[..], false)] {
        for lit in forms {
            let lexed = lex(&format!("let x = {lit};"));
            let tok = lexed
                .tokens
                .iter()
                .find(|t| t.literal().is_some())
                .expect("every generated statement holds one literal token");
            assert_eq!(tok.is_float_literal(), want, "{lit}");
        }
    }
    // String/char literal content is discarded: a float spelled inside a
    // message can never look like a float literal to the dataflow layer.
    for lit in ["\"1.5e3\"", "'e'"] {
        let lexed = lex(&format!("let x = {lit};"));
        assert!(
            lexed
                .tokens
                .iter()
                .filter_map(|t| t.literal())
                .all(str::is_empty),
            "{lit}"
        );
    }
}

/// Formatting noise — interleaved comments, multi-line parameter lists,
/// odd whitespace — must not change what the dataflow layer sees.
#[test]
fn formatting_noise_is_invariant() {
    let dense = "pub fn f(xs: &[f64], scale: f64) -> f64 {\n\
                 let mut acc = 0.0;\nfor &x in xs {\nacc += x * scale;\n}\nacc\n}\n";
    let noisy = "pub fn f(\n    xs: &[f64], // the samples\n    scale: f64,\n) -> f64 {\n\
                 // running total\n    let mut acc = 0.0;\n    for &x in xs\n    {\n\
                 acc += x /* weight applied */ * scale;\n    }\n    acc\n}\n";
    assert_eq!(rules_of(dense), rules_of(noisy));
    assert_eq!(rules_of(dense), vec![RuleId::ReductionOrder]);
}
