//! Trial logging (Ray Tune "manages model checkpoints and logging").
//!
//! A [`TrialLogger`] writes one JSON-lines record per finished trial to
//! `trials.jsonl` in the experiment directory. It is plain text and
//! deterministic — the logging half of the Phase III
//! reproducibility story. [`TrialLogger::write_all`] atomically rewrites
//! the whole log from the settled trial set, so a resumed run converges
//! on the same bytes as an uninterrupted one.

use crate::trial::Trial;
use e2c_journal::json::{Escaped, Json};
use std::io;
use std::path::{Path, PathBuf};

/// On-disk trial log.
pub struct TrialLogger {
    root: PathBuf,
}

impl TrialLogger {
    /// Log under `root` (created if missing).
    pub fn new(root: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(root)?;
        Ok(TrialLogger {
            root: root.to_path_buf(),
        })
    }

    /// Atomically (re)write the whole log from a finished trial set:
    /// `trials.jsonl` is replaced via tmp+rename, so a crash mid-write leaves the previous snapshot
    /// intact and a resumed run overwrites stale pre-crash lines instead
    /// of appending duplicates.
    pub fn write_all(&self, trials: &[Trial]) -> io::Result<()> {
        let mut jsonl = String::new();
        for trial in trials {
            jsonl.push_str(&Self::to_json(trial));
            jsonl.push('\n');
        }
        e2c_journal::write_atomic(&self.root.join("trials.jsonl"), jsonl.as_bytes())
    }

    /// Serialize a trial as one JSON object (hand-rolled: flat structure,
    /// no external JSON dependency). The retry layer's bookkeeping rides
    /// along: `attempts` is the execution count and `failures` holds the
    /// error of every unsuccessful attempt, in order.
    fn to_json(trial: &Trial) -> String {
        let (status, value) = (trial.status.token(), trial.status.value());
        let config = trial
            .config
            .iter()
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let value_json = value
            .map(|v| v.to_string())
            .unwrap_or_else(|| "null".to_string());
        let failures = trial
            .attempts
            .iter()
            .filter_map(|a| a.error.as_ref())
            .map(|e| format!("\"{}\"", Escaped(&e.to_string())))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"id\":{},\"status\":\"{}\",\"config\":[{}],\"value\":{},\"attempts\":{},\"failures\":[{}]}}",
            trial.id,
            status,
            config,
            value_json,
            trial.attempt_count(),
            failures
        )
    }

    /// Read back the `(id, status, value)` triples from `trials.jsonl`
    /// (enough to verify logs in tests and to resume bookkeeping). A
    /// line that is not a JSON object with an integer `id` is
    /// `InvalidData`; a `null` value reads as `None`.
    pub fn load_index(&self) -> io::Result<Vec<(u64, String, Option<f64>)>> {
        let text = std::fs::read_to_string(self.root.join("trials.jsonl"))?;
        let mut out = Vec::new();
        for line in text.lines() {
            let bad = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
            let obj = match Json::parse(line) {
                Ok(Json::Obj(obj)) => obj,
                Ok(_) => return Err(bad("trial line is not a JSON object".into())),
                Err(e) => return Err(bad(e)),
            };
            let id = obj
                .get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| bad("bad id".into()))?;
            let status = obj.get("status").and_then(Json::as_str).unwrap_or_default();
            let value = obj.get("value").and_then(Json::as_f64);
            out.push((id, status.to_string(), value));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::{Attempt, TrialStatus};

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("e2c-tune-log-{}-{name}", std::process::id()))
    }

    #[test]
    fn logs_and_reloads_trials() {
        let dir = tmp("roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let logger = TrialLogger::new(&dir).unwrap();
        let mut t0 = Trial::new(0, vec![40.0, 7.0]);
        t0.status = TrialStatus::Terminated(2.5);
        let mut t1 = Trial::new(1, vec![20.0, 3.0]);
        t1.status = TrialStatus::Failed("boom".into());
        logger.write_all(&[t0, t1]).unwrap();

        let index = logger.load_index().unwrap();
        assert_eq!(index.len(), 2);
        assert_eq!(index[0], (0, "terminated".to_string(), Some(2.5)));
        assert_eq!(index[1], (1, "failed".to_string(), None));
        // The log is one file.
        assert!(!dir.join("trial_0").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_line_layout_is_stable() {
        // Config values and statuses are numeric/fixed tokens; failure
        // reasons are escaped. Spot-check a full line.
        let mut t = Trial::new(7, vec![1.5, -2.0]);
        t.status = TrialStatus::Terminated(0.25);
        let line = TrialLogger::to_json(&t);
        assert_eq!(
            line,
            "{\"id\":7,\"status\":\"terminated\",\"config\":[1.5,-2],\"value\":0.25,\"attempts\":1,\"failures\":[]}"
        );
    }

    #[test]
    fn retried_trial_records_attempts_and_escaped_failures() {
        use crate::trial::TrialError;
        let mut t = Trial::new(2, vec![3.0]);
        t.status = TrialStatus::Terminated(1.0);
        t.attempts = vec![
            Attempt {
                index: 0,
                error: Some(TrialError::Panicked("boom \"quoted\"\nline".into())),
                raw: None,
                notes: Vec::new(),
            },
            Attempt {
                index: 1,
                error: None,
                raw: Some(1.0),
                notes: Vec::new(),
            },
        ];
        let line = TrialLogger::to_json(&t);
        assert_eq!(
            line,
            "{\"id\":2,\"status\":\"terminated\",\"config\":[3],\"value\":1,\"attempts\":2,\"failures\":[\"boom \\\"quoted\\\"\\nline\"]}"
        );
    }

    #[test]
    fn write_all_replaces_stale_lines() {
        let dir = tmp("writeall");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t0 = Trial::new(0, vec![1.0]);
        t0.status = TrialStatus::Terminated(1.0);
        let mut t1 = Trial::new(1, vec![2.0]);
        t1.status = TrialStatus::Failed("broke".into());

        // A stale pre-crash snapshot must be overwritten, not appended to.
        let logger = TrialLogger::new(&dir).unwrap();
        logger.write_all(std::slice::from_ref(&t0)).unwrap();
        logger.write_all(&[t0.clone(), t1.clone()]).unwrap();

        let jsonl = std::fs::read_to_string(dir.join("trials.jsonl")).unwrap();
        let expected = format!(
            "{}\n{}\n",
            TrialLogger::to_json(&t0),
            TrialLogger::to_json(&t1)
        );
        assert_eq!(jsonl, expected);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
