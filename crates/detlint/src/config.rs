//! Lint configuration: per-rule severity, the approved clock module, the
//! hot paths where sleeping is a hazard, and directories to skip.

use crate::rules::Rule;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Finding fails the lint (non-zero exit).
    Error,
    /// Finding is reported but does not fail the lint.
    Warn,
    /// Rule disabled.
    Off,
}

impl Severity {
    fn parse(s: &str) -> Option<Severity> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" | "deny" => Some(Severity::Error),
            "warn" | "warning" => Some(Severity::Warn),
            "off" | "allow" => Some(Severity::Off),
            _ => None,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Config {
    /// Severity per rule, indexed by `Rule::index()`.
    severities: [Severity; Rule::COUNT],
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
            severities: [Severity::Error; Rule::COUNT],
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

impl Config {
    pub fn severity(&self, rule: Rule) -> Severity {
        self.severities[rule.index()]
    }

    pub fn set_severity(&mut self, rule: Rule, severity: Severity) {
        self.severities[rule.index()] = severity;
    }

    /// Parse a plain `key = value` config file. Recognized keys: rule
    /// codes (`DET001 = warn`), `approve-clock` (adds a DET002-approved
    /// path suffix), `hot-path` (adds a DET004 prefix), `critical-path`
    /// (adds a PANIC/LOCK scope prefix), `artifact-path` (adds an IO
    /// scope prefix), `skip-dir`. A path key needs a value: an empty
    /// pattern would match every file. Lines starting with `#` and blank
    /// lines are ignored.
    pub fn apply_file(&mut self, text: &str) -> Result<(), String> {
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", idx + 1))?;
            let (key, value) = (key.trim(), value.trim());
            if let Some(rule) = Rule::from_code(key) {
                let severity = Severity::parse(value)
                    .ok_or_else(|| format!("line {}: unknown severity `{value}`", idx + 1))?;
                self.set_severity(rule, severity);
            } else {
                let key = key.to_ascii_lowercase();
                let paths = match key.as_str() {
                    "approve-clock" => &mut self.approved_clock_files,
                    "hot-path" => &mut self.hot_paths,
                    "critical-path" => &mut self.critical_paths,
                    "artifact-path" => &mut self.artifact_paths,
                    "skip-dir" => &mut self.skip_dirs,
                    other => return Err(format!("line {}: unknown key `{other}`", idx + 1)),
                };
                if value.is_empty() {
                    return Err(format!("line {}: `{key}` needs a path", idx + 1));
                }
                paths.push(value.to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_all_error() {
        let c = Config::default();
        for rule in Rule::ALL {
            assert_eq!(c.severity(rule), Severity::Error);
        }
    }

    #[test]
    fn config_file_overrides() {
        let mut c = Config::default();
        c.apply_file("# comment\nDET005 = warn\nDET004 = off\nhot-path = crates/x/\n")
            .unwrap();
        assert_eq!(c.severity(Rule::FloatAccumulation), Severity::Warn);
        assert_eq!(c.severity(Rule::SleepInHotPath), Severity::Off);
        assert_eq!(c.severity(Rule::UnorderedIteration), Severity::Error);
        assert!(c.hot_paths.iter().any(|p| p == "crates/x/"));
    }

    #[test]
    fn bad_lines_are_rejected() {
        let mut c = Config::default();
        assert!(c.apply_file("DET001 = loud").is_err());
        assert!(c.apply_file("nonsense").is_err());
        assert!(c.apply_file("mystery = 3").is_err());
    }

    #[test]
    fn empty_path_values_are_rejected_with_their_line() {
        for key in [
            "approve-clock",
            "hot-path",
            "critical-path",
            "artifact-path",
            "skip-dir",
        ] {
            let mut c = Config::default();
            let err = c.apply_file(&format!("# scope\n{key} =  \n")).unwrap_err();
            assert_eq!(err, format!("line 2: `{key}` needs a path"));
        }
    }
}
