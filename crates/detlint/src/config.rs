//! Lint configuration: the path scopes the rules apply in — the approved
//! clock module, the hot paths where sleeping is a hazard, the
//! crash-safety-critical and artifact-persisting modules — and the
//! directories to skip. The CLI always lints with [`Config::default`];
//! tests and benches set the fields in code.

#[derive(Debug, Clone)]
pub struct Config {
    /// Path suffixes allowed to read the wall clock (DET002). Exactly one
    /// sanctioned call site exists in this workspace: the tune clock
    /// module.
    pub approved_clock_files: Vec<String>,
    /// Path prefixes treated as search/observe hot paths (DET004).
    pub hot_paths: Vec<String>,
    /// Path prefixes (or suffixes) of crash-safety-critical modules — the
    /// WAL append/replay code, the commit sequencer, the atomic artifact
    /// writers. PANIC001–003 and LOCK001 apply only here: a panic or a
    /// blocked fsync in these files tears the crash-safety story.
    pub critical_paths: Vec<String>,
    /// Path prefixes of crates that persist run artifacts. IO001–002
    /// apply only here: these files must write through
    /// `e2c-journal::write_atomic` (or fsync directories themselves).
    pub artifact_paths: Vec<String>,
    /// Directory names skipped by the workspace walker.
    pub skip_dirs: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            approved_clock_files: vec!["crates/tune/src/clock.rs".to_string()],
            hot_paths: vec![
                "crates/tune/src/".to_string(),
                "crates/optim/src/".to_string(),
                "crates/des/src/".to_string(),
            ],
            critical_paths: vec![
                "crates/journal/src/".to_string(),
                "crates/tune/src/journal.rs".to_string(),
                "crates/tune/src/tuner.rs".to_string(),
                "crates/tune/src/logger.rs".to_string(),
            ],
            artifact_paths: vec![
                "crates/journal/src/".to_string(),
                "crates/tune/src/".to_string(),
                "crates/trace/src/".to_string(),
                "crates/core/src/".to_string(),
                "src/".to_string(),
            ],
            skip_dirs: vec![
                "target".to_string(),
                "vendor".to_string(),
                ".git".to_string(),
                "fixtures".to_string(),
            ],
        }
    }
}
