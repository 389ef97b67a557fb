//! SARIF 2.1.0 rendering of lint reports.
//!
//! Hand-assembled JSON (the workspace is offline; no serde in the tool) in
//! a fixed key order over diagnostics already sorted by (file, line, rule),
//! so the output is byte-identical across runs and thread counts by
//! construction. The document targets GitHub code scanning: one run, the
//! full rule catalog in `tool.driver.rules` (indexed by `ruleIndex`), and
//! workspace-relative artifact URIs under the `SRCROOT` base id.

use crate::engine::Diagnostic;
use crate::json::escape as esc;
use crate::rules::RuleId;

/// Render diagnostics (pre-sorted by (file, line, rule)) as a SARIF 2.1.0
/// document with a trailing newline.
#[must_use]
pub fn render(diags: &[&Diagnostic]) -> String {
    let mut out = String::with_capacity(4096 + diags.len() * 256);
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"ntv-xtask-lint\",\n");
    out.push_str(&format!(
        "          \"version\": \"{}\",\n",
        esc(env!("CARGO_PKG_VERSION"))
    ));
    out.push_str("          \"informationUri\": \"https://github.com/ntv-simd/ntv-simd\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, rule) in RuleId::ALL.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}, \
             \"fullDescription\": {{\"text\": \"{}\"}}, \
             \"defaultConfiguration\": {{\"level\": \"error\"}}}}{}\n",
            esc(rule.name()),
            esc(rule.short_name()),
            esc(&normalize_ws(rule.help())),
            if i + 1 < RuleId::ALL.len() { "," } else { "" },
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str(
        "      \"originalUriBaseIds\": {\"SRCROOT\": {\"description\": \
         {\"text\": \"workspace root\"}}},\n",
    );
    let results: Vec<String> = diags
        .iter()
        .map(|d| {
            let index = RuleId::ALL
                .iter()
                .position(|&r| r == d.rule)
                .unwrap_or(usize::MAX);
            format!(
                "{{\"ruleId\": \"{}\", \"ruleIndex\": {index}, \
                 \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \
                 \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": \
                 {{\"uri\": \"{}\", \"uriBaseId\": \"SRCROOT\"}}, \"region\": \
                 {{\"startLine\": {}}}}}}}]}}",
                esc(d.rule.name()),
                esc(&d.message),
                esc(&d.file.display().to_string().replace('\\', "/")),
                d.line,
            )
        })
        .collect();
    out.push_str("      \"results\": ");
    out.push_str(&crate::json::array(&results, 8, 6));
    out.push('\n');
    out.push_str("    }\n  ]\n}\n");
    out
}

/// Collapse the multi-line rustfmt-wrapped help strings to single spaces.
fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn diag(file: &str, line: u32, rule: RuleId) -> Diagnostic {
        Diagnostic {
            rule,
            file: PathBuf::from(file),
            line,
            message: format!("test finding with \"quotes\" at {line}"),
        }
    }

    #[test]
    fn renders_schema_rules_and_results() {
        let d1 = diag("crates/core/src/engine.rs", 12, RuleId::PanicPath);
        let d2 = diag("crates/mc/src/quantile.rs", 50, RuleId::LossyCast);
        let doc = render(&[&d1, &d2]);
        assert!(doc.contains("\"version\": \"2.1.0\""), "{doc}");
        assert!(doc.contains("sarif-2.1.0.json"), "{doc}");
        assert!(doc.contains("\"ruleId\": \"ntv::panic-path\""), "{doc}");
        assert!(doc.contains("\"startLine\": 12"), "{doc}");
        assert!(doc.contains("\\\"quotes\\\""), "{doc}");
        // Every rule appears in the catalog, and ruleIndex points into it.
        for rule in RuleId::ALL {
            assert!(
                doc.contains(&format!("\"id\": \"{}\"", rule.name())),
                "{doc}"
            );
        }
        let cast_index = RuleId::ALL
            .iter()
            .position(|&r| r == RuleId::LossyCast)
            .expect("catalog rule");
        assert!(
            doc.contains(&format!("\"ruleIndex\": {cast_index}")),
            "{doc}"
        );
        // Deterministic: same input renders byte-identically.
        assert_eq!(doc, render(&[&d1, &d2]));
    }

    #[test]
    fn empty_report_is_valid_and_stable() {
        let doc = render(&[]);
        assert!(doc.contains("\"results\": []"), "{doc}");
        assert_eq!(doc, render(&[]));
        assert!(doc.ends_with("}\n"), "trailing newline for clean files");
    }
}
