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
//! Every rule is an error. Findings are suppressed per line with
//! `// detlint: allow(DET00x) <justification>` — the justification text is
//! mandatory; an allow without one is itself reported. The comment goes at
//! the end of the offending line or alone on the line above it. There is
//! no other override: no file of accepted findings, no per-rule level.
//!
//! The scanner is deliberately token-level, not a full parser: it strips
//! comments and string/char literals, tracks which local identifiers were
//! declared as unordered containers, and pattern-matches the remaining
//! code text. That keeps it dependency-free (the build environment is
//! offline) and fast enough to run as a CI gate, at the cost of being a
//! heuristic — which is why per-line suppressions carry justifications
//! instead of the tool trying to be clever.

mod config;
mod lexer;
mod rules;
mod sarif;
mod scanner;
mod walk;

pub use config::Config;
pub use lexer::{tokenize, Token, TokenKind};
pub use rules::{lint_source, Finding, Rule};
pub use sarif::{to_json, to_sarif};
pub use walk::collect_rust_files;

use std::fmt::Write as _;
use std::path::Path;

/// Outcome of linting a set of files.
#[derive(Debug, Default)]
pub struct Report {
    /// Findings without a valid suppression. Any entry here fails the
    /// build.
    pub errors: Vec<Finding>,
    /// Findings silenced by a justified `detlint: allow(...)` comment.
    pub suppressed: Vec<Finding>,
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
        for f in &self.errors {
            let _ = writeln!(
                out,
                "{} [error] {}:{}: {}",
                f.rule.code(),
                f.file,
                f.line,
                f.message
            );
            let _ = writeln!(out, "    | {}", f.snippet.trim_end());
        }
        let _ = writeln!(
            out,
            "detlint: {} file(s), {} error(s), {} suppressed",
            self.files_scanned,
            self.errors.len(),
            self.suppressed.len()
        );
        out
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
            if finding.suppressed_with_justification() {
                report.suppressed.push(finding);
            } else {
                report.errors.push(finding);
            }
        }
    }
    for list in [&mut report.errors, &mut report.suppressed] {
        list.sort_by(|a, b| {
            (&a.file, a.line, a.rule.code()).cmp(&(&b.file, b.line, b.rule.code()))
        });
    }
    Ok(report)
}
