//! Trial records.

use e2c_optim::space::Point;
use std::fmt;

/// Why one execution attempt failed — typed, so the journal can replay a
/// failure exactly and callers can distinguish a worker panic from an
/// overrun deadline without string matching.
///
/// `Display` renders the exact failure strings the untyped layer used
/// (raw panic payloads, `non-finite metric <v>`, `deadline exceeded`),
/// which keeps `evaluations.csv` / `trials.jsonl` byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialError {
    /// The objective (or a worker-side component) panicked; the payload
    /// rides along verbatim.
    Panicked(String),
    /// The objective returned a non-finite metric; the rendered value
    /// (`NaN`, `inf`, ...) rides along.
    NonFinite(String),
    /// The attempt overran its wall-clock budget.
    DeadlineExceeded,
    /// A scripted [`FaultPlan`](crate::fault::FaultPlan) fault failed the
    /// attempt; the full injected message rides along.
    Injected(String),
    /// The worker process executing this attempt died, hung past its
    /// heartbeat deadline, or spoke protocol garbage — and the farm's
    /// re-dispatch budget was spent (transparent re-dispatch to a healthy
    /// worker hides isolated deaths from the attempt record). The payload
    /// describes what was lost.
    WorkerLost(String),
}

impl TrialError {
    /// Stable token for the journal wire format.
    pub fn kind(&self) -> &'static str {
        match self {
            TrialError::Panicked(_) => "panicked",
            TrialError::NonFinite(_) => "nonfinite",
            TrialError::DeadlineExceeded => "deadline",
            TrialError::Injected(_) => "injected",
            TrialError::WorkerLost(_) => "workerlost",
        }
    }

    /// The variant's payload ("" for payload-free variants).
    pub fn payload(&self) -> &str {
        match self {
            TrialError::Panicked(s)
            | TrialError::NonFinite(s)
            | TrialError::Injected(s)
            | TrialError::WorkerLost(s) => s,
            TrialError::DeadlineExceeded => "",
        }
    }

    /// Rebuild from the journal wire format.
    pub fn from_parts(kind: &str, payload: &str) -> Result<TrialError, String> {
        match kind {
            "panicked" => Ok(TrialError::Panicked(payload.to_string())),
            "nonfinite" => Ok(TrialError::NonFinite(payload.to_string())),
            "deadline" => Ok(TrialError::DeadlineExceeded),
            "injected" => Ok(TrialError::Injected(payload.to_string())),
            "workerlost" => Ok(TrialError::WorkerLost(payload.to_string())),
            other => Err(format!("unknown trial error kind `{other}`")),
        }
    }
}

impl fmt::Display for TrialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialError::Panicked(s) | TrialError::Injected(s) | TrialError::WorkerLost(s) => {
                f.write_str(s)
            }
            TrialError::NonFinite(v) => write!(f, "non-finite metric {v}"),
            TrialError::DeadlineExceeded => f.write_str("deadline exceeded"),
        }
    }
}

/// Lifecycle state of a trial.
#[derive(Debug, Clone, PartialEq)]
pub enum TrialStatus {
    /// Asked but not started.
    Pending,
    /// Objective running.
    Running,
    /// Finished normally with a final metric value.
    Terminated(f64),
    /// Every attempt panicked, returned a non-finite value, or overran
    /// its deadline; the string is the last failure reason.
    Failed(String),
}

impl TrialStatus {
    /// Final metric value, if the trial produced one.
    pub fn value(&self) -> Option<f64> {
        match self {
            TrialStatus::Terminated(v) => Some(*v),
            _ => None,
        }
    }

    /// Stable lowercase name of the state, as journals, traces and trial
    /// logs spell it.
    pub fn token(&self) -> &'static str {
        match self {
            TrialStatus::Pending => "pending",
            TrialStatus::Running => "running",
            TrialStatus::Terminated(_) => "terminated",
            TrialStatus::Failed(_) => "failed",
        }
    }

    /// Whether the trial ended (in any way).
    pub fn is_finished(&self) -> bool {
        !matches!(self, TrialStatus::Pending | TrialStatus::Running)
    }

    /// The failure reason, if the trial failed.
    pub fn failure(&self) -> Option<&str> {
        match self {
            TrialStatus::Failed(reason) => Some(reason),
            _ => None,
        }
    }
}

/// Record of one execution attempt of a trial (the retry layer's
/// bookkeeping — every attempt lands in the trial log and the archive).
#[derive(Debug, Clone, PartialEq)]
pub struct Attempt {
    /// 0-based attempt index.
    pub index: u32,
    /// `None` on success; the typed failure otherwise.
    pub error: Option<TrialError>,
    /// The objective's raw return value when it was actually invoked and
    /// returned (even if the attempt was then classified as failed, e.g.
    /// a non-finite metric); `None` when the objective never ran or
    /// panicked. Feeds the observation histogram in canonical commit
    /// order — and survives crash-resume, because the journal carries it.
    pub raw: Option<f64>,
    /// Named values the objective attached to this attempt
    /// ([`TrialContext::note`](crate::tuner::TrialContext::note)), in the
    /// order it noted them. The journal carries them too; the archive and
    /// the trial log do not.
    pub notes: Vec<(String, f64)>,
}

impl Attempt {
    /// Whether this attempt produced a usable metric.
    pub fn succeeded(&self) -> bool {
        self.error.is_none()
    }

    /// The value of the first note named `name`.
    pub fn note(&self, name: &str) -> Option<f64> {
        self.notes.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }
}

/// One trial: a configuration and everything that happened to it.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Trial identifier (dense, starting at 0).
    pub id: u64,
    /// The evaluated configuration (external units).
    pub config: Point,
    /// Lifecycle state.
    pub status: TrialStatus,
    /// Every execution attempt, in order (empty only before the trial
    /// first runs).
    pub attempts: Vec<Attempt>,
}

impl Trial {
    /// A fresh pending trial.
    pub fn new(id: u64, config: Point) -> Self {
        Trial {
            id,
            config,
            status: TrialStatus::Pending,
            attempts: Vec::new(),
        }
    }

    /// Final value if finished successfully.
    pub fn value(&self) -> Option<f64> {
        self.status.value()
    }

    /// How many times the trial was executed (at least 1 once finished).
    pub fn attempt_count(&self) -> u32 {
        (self.attempts.len() as u32).max(1)
    }

    /// How many re-attempts the retry layer spent on this trial.
    pub fn retries(&self) -> u32 {
        (self.attempts.len() as u32).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_values() {
        assert_eq!(TrialStatus::Terminated(2.5).value(), Some(2.5));
        assert_eq!(TrialStatus::Pending.value(), None);
        assert_eq!(TrialStatus::Failed("x".into()).value(), None);
        assert!(TrialStatus::Terminated(0.0).is_finished());
        assert!(TrialStatus::Failed("x".into()).is_finished());
        assert!(!TrialStatus::Running.is_finished());
    }

    #[test]
    fn trial_lifecycle_fields() {
        let mut t = Trial::new(3, vec![1.0, 2.0]);
        assert_eq!(t.id, 3);
        assert_eq!(t.value(), None);
        t.status = TrialStatus::Terminated(4.0);
        assert_eq!(t.value(), Some(4.0));
        assert_eq!(t.status.token(), "terminated");
    }

    #[test]
    fn attempt_bookkeeping() {
        let mut t = Trial::new(0, vec![1.0]);
        assert_eq!(t.attempt_count(), 1, "unstarted trials count one attempt");
        assert_eq!(t.retries(), 0);
        t.attempts.push(Attempt {
            index: 0,
            error: Some(TrialError::Panicked("boom".into())),
            raw: None,
            notes: Vec::new(),
        });
        t.attempts.push(Attempt {
            index: 1,
            error: None,
            raw: Some(3.0),
            notes: Vec::new(),
        });
        t.status = TrialStatus::Terminated(3.0);
        assert_eq!(t.attempt_count(), 2);
        assert_eq!(t.retries(), 1);
        assert!(!t.attempts[0].succeeded());
        assert!(t.attempts[1].succeeded());
        assert_eq!(TrialStatus::Failed("x".into()).failure(), Some("x"));
        assert_eq!(t.status.failure(), None);
    }

    #[test]
    fn trial_error_display_is_byte_stable() {
        assert_eq!(
            TrialError::Panicked("boom at 3".into()).to_string(),
            "boom at 3"
        );
        assert_eq!(
            TrialError::NonFinite("NaN".into()).to_string(),
            "non-finite metric NaN"
        );
        assert_eq!(
            TrialError::DeadlineExceeded.to_string(),
            "deadline exceeded"
        );
        assert_eq!(
            TrialError::Injected("injected fault: fail (attempt 0)".into()).to_string(),
            "injected fault: fail (attempt 0)"
        );
    }

    #[test]
    fn trial_error_round_trips_through_parts() {
        for e in [
            TrialError::Panicked("p".into()),
            TrialError::NonFinite("inf".into()),
            TrialError::DeadlineExceeded,
            TrialError::Injected("i".into()),
            TrialError::WorkerLost("worker 2 died mid-trial".into()),
        ] {
            assert_eq!(TrialError::from_parts(e.kind(), e.payload()).unwrap(), e);
        }
        assert!(TrialError::from_parts("bogus", "").is_err());
    }
}
