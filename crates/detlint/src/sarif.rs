//! Machine-readable output: a hand-rendered SARIF 2.1.0 subset and a
//! compact custom JSON format.
//!
//! Both renderers emit keys in a fixed order and findings in the report's
//! already-deterministic (path, line, rule) order, with no timestamps or
//! absolute paths — two runs over the same tree produce byte-identical
//! output, which is what lets CI diff the artifact and the tests commit a
//! golden fixture. The SARIF subset carries exactly what code-scanning
//! UIs need: the rule table, per-result level/message/location, and a
//! `partialFingerprints` entry (the snippet with whitespace collapsed) so
//! external tools can follow a finding across line-number churn.

use crate::rules::{Finding, Rule};
use crate::Report;
use e2c_journal::json::Escaped;
use std::fmt::Write as _;

/// Whitespace-collapsed snippet text: identifies a finding independent of
/// its line number and indentation.
fn fingerprint(snippet: &str) -> String {
    let mut out = String::with_capacity(snippet.len());
    let mut pending_space = false;
    for ch in snippet.trim().chars() {
        if ch.is_whitespace() {
            pending_space = !out.is_empty();
        } else {
            if pending_space {
                out.push(' ');
                pending_space = false;
            }
            out.push(ch);
        }
    }
    out
}

fn sarif_result(out: &mut String, f: &Finding, indent: &str) {
    let _ = writeln!(out, "{indent}{{");
    let _ = writeln!(out, "{indent}  \"ruleId\": \"{}\",", f.rule.code());
    let _ = writeln!(out, "{indent}  \"ruleIndex\": {},", f.rule.index());
    let _ = writeln!(out, "{indent}  \"level\": \"error\",");
    let _ = writeln!(
        out,
        "{indent}  \"message\": {{ \"text\": \"{}\" }},",
        Escaped(&f.message)
    );
    let _ = writeln!(out, "{indent}  \"locations\": [");
    let _ = writeln!(out, "{indent}    {{");
    let _ = writeln!(out, "{indent}      \"physicalLocation\": {{");
    let _ = writeln!(
        out,
        "{indent}        \"artifactLocation\": {{ \"uri\": \"{}\" }},",
        Escaped(&f.file)
    );
    let _ = writeln!(
        out,
        "{indent}        \"region\": {{ \"startLine\": {}, \"snippet\": {{ \"text\": \"{}\" }} }}",
        f.line,
        Escaped(f.snippet.trim_end())
    );
    let _ = writeln!(out, "{indent}      }}");
    let _ = writeln!(out, "{indent}    }}");
    let _ = writeln!(out, "{indent}  ],");
    let _ = writeln!(
        out,
        "{indent}  \"partialFingerprints\": {{ \"detlint/v1\": \"{}\" }}",
        Escaped(&fingerprint(&f.snippet))
    );
    let _ = write!(out, "{indent}}}");
}

/// Render the report as a SARIF 2.1.0 subset: one `error`-level result
/// per unsuppressed finding.
pub fn to_sarif(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n");
    out.push_str("    {\n");
    out.push_str("      \"tool\": {\n");
    out.push_str("        \"driver\": {\n");
    out.push_str("          \"name\": \"detlint\",\n");
    let _ = writeln!(
        out,
        "          \"version\": \"{}\",",
        env!("CARGO_PKG_VERSION")
    );
    out.push_str("          \"rules\": [\n");
    for (i, rule) in Rule::ALL.iter().enumerate() {
        let _ = write!(
            out,
            "            {{ \"id\": \"{}\", \"shortDescription\": {{ \"text\": \"{}\" }} }}",
            rule.code(),
            Escaped(rule.summary())
        );
        out.push_str(if i + 1 < Rule::ALL.len() { ",\n" } else { "\n" });
    }
    out.push_str("          ]\n");
    out.push_str("        }\n");
    out.push_str("      },\n");
    out.push_str("      \"results\": [\n");
    for (i, f) in report.errors.iter().enumerate() {
        sarif_result(&mut out, f, "        ");
        out.push_str(if i + 1 < report.errors.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("      ]\n");
    out.push_str("    }\n");
    out.push_str("  ]\n");
    out.push_str("}\n");
    out
}

fn json_finding(out: &mut String, f: &Finding, indent: &str) {
    let _ = write!(
        out,
        "{indent}{{ \"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\", \"fingerprint\": \"{}\" }}",
        f.rule.code(),
        Escaped(&f.file),
        f.line,
        Escaped(&f.message),
        Escaped(f.snippet.trim_end()),
        Escaped(&fingerprint(&f.snippet))
    );
}

/// Render the report as compact custom JSON: one object with the error
/// and suppressed finding arrays plus the scan counter. Fixed key order, byte-stable.
pub fn to_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"detlint\",\n");
    let _ = writeln!(out, "  \"version\": \"{}\",", env!("CARGO_PKG_VERSION"));
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let buckets: [(&str, &[Finding]); 2] = [
        ("errors", &report.errors),
        ("suppressed", &report.suppressed),
    ];
    for (bi, (name, list)) in buckets.iter().enumerate() {
        let _ = writeln!(out, "  \"{name}\": [");
        for (i, f) in list.iter().enumerate() {
            json_finding(&mut out, f, "    ");
            out.push_str(if i + 1 < list.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]");
        out.push_str(if bi + 1 < buckets.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> Report {
        let f = Finding {
            rule: Rule::RawArtifactWrite,
            file: "src/x.rs".to_string(),
            line: 7,
            message: "raw write \"quoted\"".to_string(),
            snippet: "  std::fs::write(p, b)?;\n".to_string(),
            suppression: None,
        };
        let mut r = Report {
            files_scanned: 3,
            ..Report::default()
        };
        r.errors.push(f.clone());
        r.suppressed.push(Finding {
            rule: Rule::UnwrapInCritical,
            line: 2,
            ..f
        });
        r
    }

    #[test]
    fn fingerprint_collapses_whitespace() {
        assert_eq!(fingerprint("  let x =\t1;  "), "let x = 1;");
        assert_eq!(fingerprint("a\n b"), "a b");
        assert_eq!(fingerprint(""), "");
    }

    #[test]
    fn sarif_is_byte_stable_and_escaped() {
        let r = report();
        let a = to_sarif(&r);
        let b = to_sarif(&r);
        assert_eq!(a, b);
        assert!(a.contains("\\\"quoted\\\""));
        assert!(a.contains("\"version\": \"2.1.0\""));
        // Suppressed findings stay out of the SARIF results.
        assert_eq!(a.matches("\"ruleId\"").count(), 1);
        // Every rule appears in the driver rule table.
        for rule in Rule::ALL {
            assert!(a.contains(&format!("\"id\": \"{}\"", rule.code())));
        }
    }

    #[test]
    fn json_buckets_and_counts() {
        let r = report();
        let j = to_json(&r);
        assert!(j.contains("\"files_scanned\": 3"));
        assert!(j.contains("\"errors\": ["));
        assert!(j.contains("\"fingerprint\": \"std::fs::write(p, b)?;\""));
        assert_eq!(to_json(&r), j);
    }
}
