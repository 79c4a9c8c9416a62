//! Machine-readable output: a hand-rendered SARIF 2.1.0 subset and a
//! compact custom JSON format.
//!
//! Both renderers emit keys in a fixed order and findings in the report's
//! already-deterministic (path, line, rule) order, with no timestamps or
//! absolute paths — two runs over the same tree produce byte-identical
//! output, which is what lets CI diff the artifact and the tests commit a
//! golden fixture. The SARIF subset carries exactly what code-scanning
//! UIs need: the rule table, per-result level/message/location, and a
//! `partialFingerprints` entry matching the baseline fingerprint so
//! external tools dedupe the same way the baseline gate does.

use crate::baseline::fingerprint;
use crate::rules::{Finding, Rule};
use crate::Report;
use e2c_journal::json::Escaped;
use std::fmt::Write as _;

fn sarif_result(out: &mut String, f: &Finding, level: &str, baselined: bool, indent: &str) {
    let _ = writeln!(out, "{indent}{{");
    let _ = writeln!(out, "{indent}  \"ruleId\": \"{}\",", f.rule.code());
    let _ = writeln!(out, "{indent}  \"ruleIndex\": {},", f.rule.index());
    let _ = writeln!(out, "{indent}  \"level\": \"{level}\",");
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
    let _ = write!(
        out,
        "{indent}  \"partialFingerprints\": {{ \"detlint/v1\": \"{}\" }}",
        Escaped(&fingerprint(&f.snippet))
    );
    if baselined {
        let _ = writeln!(out, ",");
        let _ = writeln!(
            out,
            "{indent}  \"suppressions\": [ {{ \"kind\": \"external\", \"justification\": \"accepted in lint.baseline\" }} ]"
        );
    } else {
        let _ = writeln!(out);
    }
    let _ = write!(out, "{indent}}}");
}

/// Render the report as a SARIF 2.1.0 subset. Errors map to level
/// `error`, warnings to `warning`; baselined findings are included with an
/// external-suppression marker so scanners show them as accepted, not new.
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
    let groups: [(&[Finding], &str, bool); 3] = [
        (&report.errors, "error", false),
        (&report.warnings, "warning", false),
        (&report.baselined, "error", true),
    ];
    let total: usize = groups.iter().map(|(list, _, _)| list.len()).sum();
    let mut emitted = 0usize;
    for (list, level, baselined) in groups {
        for f in list {
            sarif_result(&mut out, f, level, baselined, "        ");
            emitted += 1;
            out.push_str(if emitted < total { ",\n" } else { "\n" });
        }
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

/// Render the report as compact custom JSON: one object with bucketed
/// finding arrays plus scan counters. Fixed key order, byte-stable.
pub fn to_json(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"detlint\",\n");
    let _ = writeln!(out, "  \"version\": \"{}\",", env!("CARGO_PKG_VERSION"));
    let _ = writeln!(out, "  \"files_scanned\": {},", report.files_scanned);
    let _ = writeln!(out, "  \"stale_baseline\": {},", report.stale_baseline);
    let buckets: [(&str, &[Finding]); 4] = [
        ("errors", &report.errors),
        ("warnings", &report.warnings),
        ("baselined", &report.baselined),
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
        r.baselined.push(Finding {
            rule: Rule::UnwrapInCritical,
            line: 2,
            ..f
        });
        r
    }

    #[test]
    fn sarif_is_byte_stable_and_escaped() {
        let r = report();
        let a = to_sarif(&r);
        let b = to_sarif(&r);
        assert_eq!(a, b);
        assert!(a.contains("\\\"quoted\\\""));
        assert!(a.contains("\"version\": \"2.1.0\""));
        assert!(a.contains("\"kind\": \"external\""));
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
