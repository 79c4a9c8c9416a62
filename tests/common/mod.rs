//! Helpers the gate tests share: where their scratch directories root,
//! and the one both-ways comparison of two run trees.

use e2c_journal::Sameness;
use std::path::{Path, PathBuf};

/// Root for gate scratch directories: `E2C_GATE_DIR` when set (CI points
/// this at a workspace path and uploads it when a gate fails), the
/// system temp directory otherwise.
pub fn gate_root() -> PathBuf {
    std::env::var_os("E2C_GATE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

/// Assert that `want` and `got` hold the same files and directories with
/// the same bytes, both ways round (`e2c_journal::compare_tree`), so a
/// run that leaves a stray file fails too, and that neither is empty.
/// Returns the entries of `want`; `ctx` labels a failure.
pub fn assert_same_tree(want: &Path, got: &Path, ctx: &str) -> Vec<(String, Sameness)> {
    let mut listed = Vec::new();
    for (fresh, other) in [(want, got), (got, want)] {
        let entries = e2c_journal::compare_tree(fresh, other)
            .unwrap_or_else(|e| panic!("{ctx}: list {}: {e}", fresh.display()));
        assert!(!entries.is_empty(), "{ctx}: {} is empty", fresh.display());
        let bad: Vec<_> = entries
            .iter()
            .filter(|(_, same)| matches!(same, Sameness::Differs(..) | Sameness::Missing))
            .collect();
        assert!(
            bad.is_empty(),
            "{ctx}: {} against {}: {bad:?} — the trees are not byte-identical",
            fresh.display(),
            other.display()
        );
        if listed.is_empty() {
            listed = entries;
        }
    }
    listed
}
