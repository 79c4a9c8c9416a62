//! # detlint — determinism static analysis
//!
//! The paper's core claim is *reproducible* optimization: an archived run
//! must replay bit-for-bit from its seed. Seeding RNGs is not enough —
//! unordered `HashMap` iteration, raw wall-clock reads and entropy-based
//! randomness silently break replayability. This crate is a hand-rolled,
//! std-only scanner over `.rs` files that enforces those invariants:
//!
//! | rule   | hazard |
//! |--------|--------|
//! | DET001 | iteration over an unordered `HashMap`/`HashSet` |
//! | DET002 | wall-clock read (`Instant::now`/`SystemTime::now`) outside the approved clock module |
//! | DET003 | unseeded / entropy-based RNG construction |
//! | DET004 | `thread::sleep` / spin loops inside search or observe paths |
//! | DET005 | floating-point accumulation over an unordered collection |
//!
//! Findings are suppressed per line with
//! `// detlint: allow(DET00x) <justification>` — the justification text is
//! mandatory; an allow without one is itself reported. The comment goes at
//! the end of the offending line or alone on the line above it.
//!
//! The scanner is deliberately token-level, not a full parser: it strips
//! comments and string/char literals, tracks which local identifiers were
//! declared as unordered containers, and pattern-matches the remaining
//! code text. That keeps it dependency-free (the build environment is
//! offline) and fast enough to run as a CI gate, at the cost of being a
//! heuristic — which is why per-line suppressions carry justifications
//! instead of the tool trying to be clever.

mod baseline;
mod config;
mod lexer;
mod rules;
mod sarif;
mod scanner;
mod walk;

pub use baseline::{fingerprint, Baseline};
pub use config::{Config, Severity};
pub use lexer::{tokenize, Token, TokenKind};
pub use rules::{lint_source, Finding, Rule};
pub use sarif::{to_json, to_sarif};
pub use walk::collect_rust_files;

use std::fmt::Write as _;
use std::path::Path;

/// Outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Error-severity findings without a valid suppression. Any entry here
    /// should fail the build.
    pub errors: Vec<Finding>,
    /// Warn-severity findings without a valid suppression.
    pub warnings: Vec<Finding>,
    /// Error findings accepted by the committed `lint.baseline` — known
    /// debt being burned down, not a gate failure.
    pub baselined: Vec<Finding>,
    /// Findings silenced by a justified `detlint: allow(...)` comment.
    pub suppressed: Vec<Finding>,
    /// Baseline entries that matched no finding — the flagged code was
    /// fixed or moved; regenerate the baseline to shrink the file.
    pub stale_baseline: usize,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when nothing error-worthy remains.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// Human-readable report (stable ordering: findings come out in
    /// path + line order, so the lint output is itself deterministic).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (list, severity) in [(&self.errors, "error"), (&self.warnings, "warning")] {
            for f in list {
                let _ = writeln!(
                    out,
                    "{} [{severity}] {}:{}: {}",
                    f.rule.code(),
                    f.file,
                    f.line,
                    f.message
                );
                let _ = writeln!(out, "    | {}", f.snippet.trim_end());
            }
        }
        if self.stale_baseline > 0 {
            let _ = writeln!(
                out,
                "note: {} stale baseline entr{} — run `e2clab lint --update-baseline` to shrink lint.baseline",
                self.stale_baseline,
                if self.stale_baseline == 1 { "y" } else { "ies" }
            );
        }
        let _ = writeln!(
            out,
            "detlint: {} file(s), {} error(s), {} warning(s), {} baselined, {} suppressed",
            self.files_scanned,
            self.errors.len(),
            self.warnings.len(),
            self.baselined.len(),
            self.suppressed.len()
        );
        out
    }

    /// Move errors covered by `baseline` into the `baselined` bucket and
    /// record how many baseline entries went unmatched. Gating then keys
    /// off `errors` alone: only findings *new* since the baseline fail.
    pub fn apply_baseline(&mut self, baseline: &Baseline) {
        let mut remaining = baseline.clone();
        let mut kept = Vec::with_capacity(self.errors.len());
        for finding in self.errors.drain(..) {
            if remaining.consume(&finding) {
                self.baselined.push(finding);
            } else {
                kept.push(finding);
            }
        }
        self.errors = kept;
        self.stale_baseline = remaining.stale();
    }
}

/// Lint every `.rs` file under `dir` (skipping `Config::skip_dirs`),
/// sorting findings by path and line for deterministic output. Files are
/// labelled relative to `root` (`dir` itself or a parent of it), so a
/// subtree is judged by the same path-scoped rules as the whole.
pub fn lint_workspace(root: &Path, dir: &Path, config: &Config) -> std::io::Result<Report> {
    let files = collect_rust_files(dir, &config.skip_dirs)?;
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for path in &files {
        let text = std::fs::read_to_string(path)?;
        let label = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        for finding in lint_source(&label, &text, config) {
            match (
                finding.suppressed_with_justification(),
                config.severity(finding.rule),
            ) {
                (_, Severity::Off) => {}
                (true, _) => report.suppressed.push(finding),
                (false, Severity::Error) => report.errors.push(finding),
                (false, Severity::Warn) => report.warnings.push(finding),
            }
        }
    }
    for list in [
        &mut report.errors,
        &mut report.warnings,
        &mut report.suppressed,
    ] {
        list.sort_by(|a, b| {
            (&a.file, a.line, a.rule.code()).cmp(&(&b.file, b.line, b.rule.code()))
        });
    }
    Ok(report)
}
