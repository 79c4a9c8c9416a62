//! Experiment results.

use crate::trial::Trial;
use crate::tuner::Mode;

/// The outcome of a [`Tuner::run`](crate::tuner::Tuner::run): every trial,
/// plus helpers to find the best one and render a report.
#[derive(Debug, Clone)]
pub struct Analysis {
    mode: Mode,
    trials: Vec<Trial>,
}

impl Analysis {
    /// Package finished trials.
    pub fn new(mode: Mode, trials: Vec<Trial>) -> Self {
        Analysis { mode, trials }
    }

    /// All trials in id order.
    pub fn trials(&self) -> &[Trial] {
        &self.trials
    }

    /// The trial with the best final value (respecting the mode); `None`
    /// when every trial failed.
    pub fn best_trial(&self) -> Option<&Trial> {
        self.trials
            .iter()
            .filter_map(|t| t.value().map(|v| (t, v)))
            .min_by(|a, b| {
                let (ka, kb) = match self.mode {
                    Mode::Min => (a.1, b.1),
                    Mode::Max => (-a.1, -b.1),
                };
                ka.partial_cmp(&kb).expect("NaN metric in analysis")
            })
            .map(|(t, _)| t)
    }

    /// Best configuration (external units), if any trial succeeded.
    pub fn best_config(&self) -> Option<&[f64]> {
        self.best_trial().map(|t| t.config.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::TrialStatus;

    fn trial(id: u64, value: Option<f64>) -> Trial {
        let mut t = Trial::new(id, vec![id as f64]);
        t.status = match value {
            Some(v) => TrialStatus::Terminated(v),
            None => TrialStatus::Failed("x".into()),
        };
        t
    }

    #[test]
    fn best_trial_min_and_max() {
        let trials = vec![
            trial(0, Some(5.0)),
            trial(1, Some(2.0)),
            trial(2, Some(8.0)),
        ];
        let a = Analysis::new(Mode::Min, trials.clone());
        assert_eq!(a.best_trial().unwrap().id, 1);
        let a = Analysis::new(Mode::Max, trials);
        assert_eq!(a.best_trial().unwrap().id, 2);
    }

    #[test]
    fn failed_trials_excluded_from_best() {
        let trials = vec![trial(0, None), trial(1, Some(3.0))];
        let a = Analysis::new(Mode::Min, trials);
        assert_eq!(a.best_trial().unwrap().id, 1);
        assert_eq!(a.best_config(), Some(&[1.0][..]));
    }

    #[test]
    fn all_failed_yields_none() {
        let a = Analysis::new(Mode::Min, vec![trial(0, None)]);
        assert!(a.best_trial().is_none());
    }
}
