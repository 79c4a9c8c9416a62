//! Trial schedulers: FIFO and AsyncHyperBand (ASHA).

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Verdict for an intermediate report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep running.
    Continue,
    /// Terminate the trial now (its last report becomes its result).
    Stop,
}

/// Reacts to intermediate metric reports. Metric values arrive
/// sign-normalized (smaller = better).
pub trait Scheduler: Send + Sync {
    /// A trial reported `value` at iteration `iteration` (1-based).
    fn on_report(&self, trial_id: u64, iteration: u64, value: f64) -> Decision;
}

/// Never stops anything.
#[derive(Debug, Default)]
pub struct Fifo;

impl Scheduler for Fifo {
    fn on_report(&self, _trial_id: u64, _iteration: u64, _value: f64) -> Decision {
        Decision::Continue
    }
}

/// Asynchronous Successive Halving (the algorithm behind Ray Tune's
/// `AsyncHyperBandScheduler`).
///
/// Rungs sit at iterations `grace, grace·rf, grace·rf², …`. When a trial
/// reaches a rung, its value joins the rung's record; the trial continues
/// only if it is within the best `1/rf` fraction of everything that rung
/// has seen so far. Decisions are made asynchronously — no waiting for a
/// cohort, just like the paper's asynchronous optimization cycle.
pub struct AsyncHyperBand {
    grace: u64,
    reduction_factor: u64,
    max_t: u64,
    // Ordered maps throughout the scheduler state: rung/record contents
    // feed stop decisions, and the workspace determinism baseline
    // (detlint DET001) keeps every such collection enumeration-stable.
    rungs: Mutex<BTreeMap<u64, Vec<f64>>>,
}

impl AsyncHyperBand {
    /// `grace` = first rung iteration, `reduction_factor` = keep the top
    /// `1/rf` at each rung, `max_t` = iteration after which no stopping
    /// happens.
    pub fn new(grace: u64, reduction_factor: u64, max_t: u64) -> Self {
        assert!(grace >= 1, "grace period must be at least 1");
        assert!(reduction_factor >= 2, "reduction factor must be at least 2");
        AsyncHyperBand {
            grace,
            reduction_factor,
            max_t,
            rungs: Mutex::new(BTreeMap::new()),
        }
    }

    /// Rung iterations up to `max_t`.
    pub fn rung_levels(&self) -> Vec<u64> {
        let mut levels = Vec::new();
        let mut r = self.grace;
        while r <= self.max_t {
            levels.push(r);
            r = r.saturating_mul(self.reduction_factor);
        }
        levels
    }
}

impl Scheduler for AsyncHyperBand {
    /// A NaN report is never recorded at a rung and always continues:
    /// it ranks against nothing, and the tuner classifies the trial by
    /// its final value.
    fn on_report(&self, _trial_id: u64, iteration: u64, value: f64) -> Decision {
        if value.is_nan() || iteration > self.max_t || !self.rung_levels().contains(&iteration) {
            return Decision::Continue;
        }
        let mut rungs = self.rungs.lock().unwrap_or_else(PoisonError::into_inner);
        let rung = rungs.entry(iteration).or_default();
        rung.push(value);
        // Require enough evidence before cutting anything: with fewer than
        // 2·rf records at a rung, every trial survives.
        let rf = self.reduction_factor as usize;
        if rung.len() < 2 * rf {
            return Decision::Continue;
        }
        // Keep if within the best ceil(len/rf) values seen at this rung
        // (smaller is better).
        let mut sorted = rung.clone();
        sorted.sort_by(f64::total_cmp);
        let keep = sorted.len().div_ceil(rf);
        let cutoff = sorted[keep - 1];
        if value <= cutoff {
            Decision::Continue
        } else {
            Decision::Stop
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_never_stops() {
        let f = Fifo;
        for i in 0..100 {
            assert_eq!(f.on_report(0, i, i as f64), Decision::Continue);
        }
    }

    #[test]
    fn rung_levels_follow_geometric_schedule() {
        let s = AsyncHyperBand::new(1, 3, 27);
        assert_eq!(s.rung_levels(), vec![1, 3, 9, 27]);
    }

    #[test]
    fn off_rung_iterations_always_continue() {
        let s = AsyncHyperBand::new(2, 2, 16);
        assert_eq!(s.on_report(0, 3, 999.0), Decision::Continue);
        assert_eq!(s.on_report(0, 17, 999.0), Decision::Continue);
    }

    #[test]
    fn bad_trials_stop_at_rungs() {
        let s = AsyncHyperBand::new(1, 2, 64);
        // Three good trials seed the rung; below the 2·rf evidence
        // threshold nothing is cut.
        assert_eq!(s.on_report(0, 1, 1.0), Decision::Continue);
        assert_eq!(s.on_report(1, 1, 1.1), Decision::Continue);
        assert_eq!(s.on_report(2, 1, 1.2), Decision::Continue);
        // A clearly worse trial must be cut: keep = ceil(4/2) = 2 of
        // {1.0,1.1,1.2,9.0} → cutoff 1.1; 9.0 > 1.1.
        assert_eq!(s.on_report(3, 1, 9.0), Decision::Stop);
        // An excellent trial sails through.
        assert_eq!(s.on_report(4, 1, 0.5), Decision::Continue);
    }

    #[test]
    fn early_trials_always_survive() {
        // Below the evidence threshold (2·rf = 8) even terrible values
        // survive.
        let s = AsyncHyperBand::new(1, 4, 16);
        for id in 0..7 {
            assert_eq!(s.on_report(id, 1, 1e9 - id as f64), Decision::Continue);
        }
    }

    #[test]
    fn nan_reports_continue_and_never_join_a_rung() {
        let s = AsyncHyperBand::new(1, 2, 8);
        for id in 0..8 {
            assert_eq!(s.on_report(id, 1, f64::NAN), Decision::Continue);
        }
        // The NaNs left no record: the rung is still below the 2·rf
        // evidence threshold, so even a terrible value survives.
        for id in 8..11 {
            assert_eq!(s.on_report(id, 1, 1.0), Decision::Continue);
        }
        assert_eq!(s.on_report(11, 1, 9.0), Decision::Stop);
    }

    #[test]
    #[should_panic(expected = "reduction factor")]
    fn rf_one_rejected() {
        AsyncHyperBand::new(1, 1, 16);
    }
}
