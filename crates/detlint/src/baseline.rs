//! Committed-baseline gating.
//!
//! Growing an analyzer on a live codebase has a bootstrapping problem: the
//! day a new rule family lands, the workspace already violates it in dozens
//! of places, and failing CI on all of them at once blocks every unrelated
//! PR. The baseline file records the findings that existed when the rule
//! shipped; the lint gate then fails only on *new* findings, while the
//! recorded ones are burned down explicitly (each burn-down shrinks the
//! committed file, which reviewers see in the diff).
//!
//! Entries are matched as a multiset of `(rule, file, fingerprint)` where
//! the fingerprint is the finding's snippet with whitespace collapsed —
//! stable across reformatting and across line-number churn from unrelated
//! edits in the same file, but invalidated when the flagged code itself
//! changes.

use crate::rules::Finding;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whitespace-collapsed snippet text used to match a finding against a
/// baseline entry independent of line numbers and indentation.
pub fn fingerprint(snippet: &str) -> String {
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

fn key(rule: &str, file: &str, fp: &str) -> String {
    format!("{rule}\t{file}\t{fp}")
}

/// A multiset of accepted findings, keyed `rule \t file \t fingerprint`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Baseline {
    entries: BTreeMap<String, usize>,
}

impl Baseline {
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total entry count (multiset cardinality).
    pub fn len(&self) -> usize {
        self.entries.values().sum()
    }

    /// Parse the committed `lint.baseline` format: one tab-separated
    /// `CODE\tpath\tfingerprint` entry per line; `#` comments and blank
    /// lines ignored. Duplicate lines accumulate (multiset).
    pub fn parse(text: &str) -> Result<Baseline, String> {
        let mut entries = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim_end();
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, '\t');
            let (code, file, fp) = match (parts.next(), parts.next(), parts.next()) {
                (Some(c), Some(f), Some(p)) if !c.is_empty() && !f.is_empty() => (c, f, p),
                _ => {
                    return Err(format!(
                        "baseline line {}: expected `CODE<TAB>path<TAB>fingerprint`",
                        idx + 1
                    ))
                }
            };
            *entries.entry(key(code, file, fp)).or_insert(0) += 1;
        }
        Ok(Baseline { entries })
    }

    /// Build a baseline that accepts exactly the given findings.
    pub fn from_findings<'a>(findings: impl IntoIterator<Item = &'a Finding>) -> Baseline {
        let mut entries = BTreeMap::new();
        for f in findings {
            let k = key(f.rule.code(), &f.file, &fingerprint(&f.snippet));
            *entries.entry(k).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Render the committed file format: sorted, one entry per line,
    /// duplicates repeated. Byte-stable for a given entry set.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("# detlint baseline — accepted findings, one `CODE<TAB>path<TAB>fingerprint` per line.\n");
        out.push_str(
            "# Regenerate with `e2clab lint --update-baseline`; shrink it by fixing findings.\n",
        );
        for (k, count) in &self.entries {
            for _ in 0..*count {
                let _ = writeln!(out, "{k}");
            }
        }
        out
    }

    /// Consume one matching entry for the finding if present. Returns true
    /// when the finding was covered by the baseline.
    pub fn consume(&mut self, f: &Finding) -> bool {
        let k = key(f.rule.code(), &f.file, &fingerprint(&f.snippet));
        match self.entries.get_mut(&k) {
            Some(count) if *count > 0 => {
                *count -= 1;
                if *count == 0 {
                    self.entries.remove(&k);
                }
                true
            }
            _ => false,
        }
    }

    /// Entries never consumed — findings that were fixed (or moved) since
    /// the baseline was recorded. Reported so the file gets re-shrunk.
    pub fn stale(&self) -> usize {
        self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Rule;

    fn finding(rule: Rule, file: &str, snippet: &str) -> Finding {
        Finding {
            rule,
            file: file.to_string(),
            line: 1,
            message: String::new(),
            snippet: snippet.to_string(),
            suppression: None,
        }
    }

    #[test]
    fn fingerprint_collapses_whitespace() {
        assert_eq!(fingerprint("  let x =\t1;  "), "let x = 1;");
        assert_eq!(fingerprint("a\n b"), "a b");
        assert_eq!(fingerprint(""), "");
    }

    #[test]
    fn roundtrip_parse_render() {
        let f1 = finding(Rule::UnwrapInCritical, "a.rs", "x.unwrap()");
        let f2 = finding(Rule::RawArtifactWrite, "b.rs", "fs::write(p, b)");
        let b = Baseline::from_findings([&f1, &f2, &f1]);
        assert_eq!(b.len(), 3);
        let text = b.render();
        let b2 = Baseline::parse(&text).unwrap();
        assert_eq!(b2.len(), 3);
        assert_eq!(b2.render(), text);
    }

    #[test]
    fn consume_is_multiset_aware() {
        let f = finding(Rule::PanicMacro, "a.rs", "panic!(\"x\")");
        let mut b = Baseline::from_findings([&f, &f]);
        assert!(b.consume(&f));
        assert!(b.consume(&f));
        assert!(!b.consume(&f));
        assert_eq!(b.stale(), 0);
    }

    #[test]
    fn unconsumed_entries_are_stale() {
        let f = finding(Rule::LockAcrossWal, "a.rs", "guard.append(&e)");
        let b = Baseline::from_findings([&f]);
        assert_eq!(b.stale(), 1);
    }

    #[test]
    fn line_number_churn_does_not_invalidate() {
        let mut f = finding(Rule::SliceIndex, "a.rs", "buf[4..8]");
        let mut b = Baseline::from_findings([&f]);
        f.line = 99;
        assert!(b.consume(&f));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Baseline::parse("PANIC001 no tabs here").is_err());
        assert!(Baseline::parse("# fine\n\nPANIC001\ta.rs\tfp\n").is_ok());
    }
}
