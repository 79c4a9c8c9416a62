//! Fixture-corpus coverage of the token-level rule families
//! (PANIC001–003, IO001–002, LOCK001, SUP001) plus byte-stability of the
//! machine-readable renderers. Each fixture under `tests/fixtures/` is a
//! plain `.rs` text file — never compiled, and excluded from workspace
//! lint runs by the default `fixtures` skip-dir — with at least one
//! positive and one suppressed case per family.

use detlint::{lint_source, Config, Finding, Report};
use std::path::Path;

/// Lint a fixture under a config that marks the fixture corpus as both
/// crash-safety-critical and artifact-persisting.
fn lint(name: &str, text: &str) -> Vec<Finding> {
    let mut config = Config::default();
    config.critical_paths.push("fixtures/".to_string());
    config.artifact_paths.push("fixtures/".to_string());
    lint_source(&format!("fixtures/{name}"), text, &config)
}

/// `(code, line, justifiably suppressed)` per finding, in report order.
fn shape(findings: &[Finding]) -> Vec<(&'static str, usize, bool)> {
    findings
        .iter()
        .map(|f| (f.rule.code(), f.line, f.suppressed_with_justification()))
        .collect()
}

#[test]
fn panic_family_positives_and_test_region_exemption() {
    let findings = lint(
        "panic_positive.rs",
        include_str!("fixtures/panic_positive.rs"),
    );
    assert_eq!(
        shape(&findings),
        vec![
            ("PANIC001", 6, false),  // .unwrap()
            ("PANIC001", 7, false),  // .expect(...)
            ("PANIC002", 9, false),  // panic!
            ("PANIC003", 11, false), // frames[len / 2]
            ("PANIC003", 12, false), // frames[1..3]
            ("PANIC002", 20, false), // todo!
        ],
        "full-range slices, array literals, `for _ in [..]` and the \
         #[cfg(test)] module must stay clean: {findings:?}"
    );
}

#[test]
fn panic_family_suppressed() {
    let findings = lint(
        "panic_suppressed.rs",
        include_str!("fixtures/panic_suppressed.rs"),
    );
    assert_eq!(
        shape(&findings),
        vec![
            ("PANIC003", 5, true),  // standalone allow above
            ("PANIC003", 6, true),  // trailing allow
            ("PANIC001", 12, true), // standalone allow above
        ],
        "{findings:?}"
    );
}

#[test]
fn io_family_positives() {
    let findings = lint("io_positive.rs", include_str!("fixtures/io_positive.rs"));
    assert_eq!(
        shape(&findings),
        vec![
            ("IO001", 7, false),  // std::fs::write
            ("IO001", 8, false),  // fs::write
            ("IO001", 9, false),  // File::create
            ("IO002", 15, false), // rename without dir fsync
        ],
        "the fsync'd rename in publish_durably must stay clean: {findings:?}"
    );
}

#[test]
fn io_family_suppressed() {
    let findings = lint(
        "io_suppressed.rs",
        include_str!("fixtures/io_suppressed.rs"),
    );
    assert_eq!(shape(&findings), vec![("IO001", 5, true)], "{findings:?}");
}

#[test]
fn lock_family_positives() {
    let findings = lint(
        "lock_positive.rs",
        include_str!("fixtures/lock_positive.rs"),
    );
    assert_eq!(
        shape(&findings),
        vec![
            ("LOCK001", 6, false),  // let-bound guard spans the append
            ("LOCK001", 12, false), // temporary guard spans the fsync
        ],
        "the scoped guard in clean() must not flag the append after its \
         block: {findings:?}"
    );
}

#[test]
fn lock_family_suppressed() {
    let findings = lint(
        "lock_suppressed.rs",
        include_str!("fixtures/lock_suppressed.rs"),
    );
    assert_eq!(shape(&findings), vec![("LOCK001", 6, true)], "{findings:?}");
}

#[test]
fn stale_and_unknown_suppressions_are_flagged() {
    let findings = lint("sup_stale.rs", include_str!("fixtures/sup_stale.rs"));
    assert_eq!(
        shape(&findings),
        vec![
            ("SUP001", 4, false), // allow matching no finding
            ("SUP001", 6, false), // allow naming an unknown rule
        ],
        "{findings:?}"
    );
    assert!(findings[1].message.contains("DET999"));
}

#[test]
fn sup001_is_itself_suppressible() {
    let findings = lint(
        "sup_suppressed.rs",
        include_str!("fixtures/sup_suppressed.rs"),
    );
    assert_eq!(shape(&findings), vec![("SUP001", 5, true)], "{findings:?}");
}

#[test]
fn doc_comment_mentions_of_the_allow_syntax_are_not_directives() {
    let text = "//! Suppress with `detlint: allow(DET001) <why>` on the line.\n\
                /// See `detlint: allow(DET002)` for clock reads.\n\
                fn f() {}\n";
    let findings = lint("doc_mentions.rs", text);
    assert!(findings.is_empty(), "{findings:?}");
}

/// The report the machine-readable renderers are tested against: the IO
/// and SUP positives as errors, the suppressed PANIC findings.
fn fixture_report() -> Report {
    let mut report = Report {
        files_scanned: 3,
        ..Report::default()
    };
    report.errors.extend(lint(
        "io_positive.rs",
        include_str!("fixtures/io_positive.rs"),
    ));
    report
        .errors
        .extend(lint("sup_stale.rs", include_str!("fixtures/sup_stale.rs")));
    for f in lint(
        "panic_suppressed.rs",
        include_str!("fixtures/panic_suppressed.rs"),
    ) {
        report.suppressed.push(f);
    }
    report
}

#[test]
fn sarif_and_json_are_byte_stable() {
    let report = fixture_report();
    assert_eq!(detlint::to_sarif(&report), detlint::to_sarif(&report));
    assert_eq!(detlint::to_json(&report), detlint::to_json(&report));
    // And stable across a fresh lint of the same sources.
    let again = fixture_report();
    assert_eq!(detlint::to_sarif(&report), detlint::to_sarif(&again));
}

#[test]
fn sarif_matches_the_committed_golden() {
    let sarif = detlint::to_sarif(&fixture_report());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/expected.sarif");
    if std::env::var_os("E2C_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &sarif).expect("write golden");
    }
    let expected = std::fs::read_to_string(&path).expect("committed golden fixture");
    assert_eq!(
        sarif, expected,
        "SARIF output drifted from tests/fixtures/expected.sarif; if the \
         change is intentional, regenerate with \
         `E2C_UPDATE_GOLDEN=1 cargo test -p detlint`"
    );
}
