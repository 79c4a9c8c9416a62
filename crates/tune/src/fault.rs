//! Fault-tolerant trial execution: retry policies and failure injection.
//!
//! On 42 real Grid'5000 nodes trial failures are the norm, not the
//! exception — deployments error out, services crash, stragglers overrun.
//! This module provides the two deterministic building blocks the
//! [`Tuner`](crate::tuner::Tuner) uses to tolerate (and to *test*
//! tolerating) them:
//!
//! * [`RetryPolicy`] — how many times a failed attempt is re-executed and
//!   how long to back off in between. The backoff jitter is drawn from the
//!   experiment seed, so a retried cycle replays bit-exactly;
//! * [`FaultPlan`] — a scripted set of injected faults ("fail trial 3 on
//!   attempt 0", "trial 2 returns NaN", "delay trial 1 by 250 ms") usable
//!   from tests and from the `e2clab optimize --faults` knob, so the
//!   robustness layer is itself testable.

use std::time::Duration;

/// Retry policy for failed trial attempts: exponential backoff with
/// seed-deterministic jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Re-attempts after the first failure (0 = fail immediately).
    pub max_retries: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Multiplier applied per further retry (>= 1).
    pub factor: f64,
    /// Upper bound on any single delay.
    pub max_delay: Duration,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a factor drawn
    /// deterministically from `(seed, trial, attempt)` in
    /// `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

impl RetryPolicy {
    /// No retries: a failed attempt fails the trial (the pre-existing
    /// behaviour).
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            factor: 1.0,
            max_delay: Duration::ZERO,
            jitter: 0.0,
        }
    }

    /// `max_retries` re-attempts with a 100 ms base delay doubling up to
    /// 10 s, 10 % jitter.
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            base_delay: Duration::from_millis(100),
            factor: 2.0,
            max_delay: Duration::from_secs(10),
            jitter: 0.1,
        }
    }

    /// Set the base delay.
    pub fn base_delay(mut self, d: Duration) -> Self {
        self.base_delay = d;
        self
    }

    /// Set the backoff multiplier (clamped to >= 1).
    pub fn factor(mut self, f: f64) -> Self {
        self.factor = f.max(1.0);
        self
    }

    /// Set the delay cap.
    pub fn max_delay(mut self, d: Duration) -> Self {
        self.max_delay = d;
        self
    }

    /// Set the jitter fraction (clamped to `[0, 1]`).
    pub fn jitter(mut self, j: f64) -> Self {
        self.jitter = j.clamp(0.0, 1.0);
        self
    }

    /// Total number of attempts a trial may consume.
    pub fn max_attempts(&self) -> u32 {
        self.max_retries + 1
    }

    /// The un-jittered delay before re-attempting after failed attempt
    /// number `attempt` (0-based): `base * factor^attempt`, capped.
    pub fn raw_backoff(&self, attempt: u32) -> Duration {
        let scale = self.factor.powi(attempt.min(64) as i32);
        let secs = self.base_delay.as_secs_f64() * scale;
        Duration::from_secs_f64(secs.min(self.max_delay.as_secs_f64().max(0.0)))
    }

    /// The delay before re-attempting after failed attempt number
    /// `attempt` (0-based), jittered deterministically from
    /// `(seed, trial, attempt)` — the same inputs always yield the same
    /// delay, preserving reproducible cycles.
    pub fn backoff(&self, seed: u64, trial: u64, attempt: u32) -> Duration {
        let raw = self.raw_backoff(attempt).as_secs_f64();
        if self.jitter <= 0.0 || raw == 0.0 {
            return Duration::from_secs_f64(raw);
        }
        // splitmix64 over the (seed, trial, attempt) triple → u in [0, 1).
        let mut x = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(trial)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(attempt as u64 + 1);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        let scale = 1.0 - self.jitter + 2.0 * self.jitter * u;
        Duration::from_secs_f64(raw * scale)
    }
}

/// What an injected fault does to one attempt of one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The objective panics (a crashed deployment).
    Fail,
    /// The objective returns NaN (a corrupted metric).
    Nan,
    /// The attempt is delayed by this long before the objective runs
    /// (a straggler; combined with a deadline this overruns the budget).
    Delay(Duration),
    /// The worker process executing the attempt is reported crashed
    /// (SIGKILL mid-trial, with the farm's re-dispatch budget spent): the
    /// attempt fails with a typed
    /// [`TrialError::WorkerLost`](crate::trial::TrialError::WorkerLost)
    /// without invoking the objective. Injected tuner-side so the record
    /// is byte-identical whether or not a real farm is attached.
    WorkerCrash,
    /// Like [`FaultAction::WorkerCrash`] but modelling a hang: the worker
    /// missed its heartbeat deadline and was declared lost.
    WorkerStall,
}

/// One scripted fault: which trial, which attempt, what happens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Target trial id.
    pub trial: u64,
    /// Target attempt (0-based); `None` hits every attempt.
    pub attempt: Option<u32>,
    /// The injected behaviour.
    pub action: FaultAction,
}

/// A deterministic failure-injection plan: a scripted set of
/// [`FaultSpec`]s the tuner consults before every attempt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan (no injected faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects anything at all.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The scripted faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Panic trial `trial` on attempt `attempt`.
    pub fn fail(mut self, trial: u64, attempt: u32) -> Self {
        self.specs.push(FaultSpec {
            trial,
            attempt: Some(attempt),
            action: FaultAction::Fail,
        });
        self
    }

    /// Panic trial `trial` on every attempt.
    pub fn fail_always(mut self, trial: u64) -> Self {
        self.specs.push(FaultSpec {
            trial,
            attempt: None,
            action: FaultAction::Fail,
        });
        self
    }

    /// Make trial `trial` return NaN on attempt `attempt`.
    pub fn nan(mut self, trial: u64, attempt: u32) -> Self {
        self.specs.push(FaultSpec {
            trial,
            attempt: Some(attempt),
            action: FaultAction::Nan,
        });
        self
    }

    /// Delay trial `trial` by `delay` on attempt `attempt`.
    pub fn delay(mut self, trial: u64, attempt: u32, delay: Duration) -> Self {
        self.specs.push(FaultSpec {
            trial,
            attempt: Some(attempt),
            action: FaultAction::Delay(delay),
        });
        self
    }

    /// Report the worker running trial `trial` crashed on attempt
    /// `attempt`.
    pub fn worker_crash(mut self, trial: u64, attempt: u32) -> Self {
        self.specs.push(FaultSpec {
            trial,
            attempt: Some(attempt),
            action: FaultAction::WorkerCrash,
        });
        self
    }

    /// Report the worker running trial `trial` hung past its heartbeat
    /// deadline on attempt `attempt`.
    pub fn worker_stall(mut self, trial: u64, attempt: u32) -> Self {
        self.specs.push(FaultSpec {
            trial,
            attempt: Some(attempt),
            action: FaultAction::WorkerStall,
        });
        self
    }

    /// The action scripted for `(trial, attempt)`, if any. The most
    /// recently added matching spec wins, letting narrower rules override
    /// `attempt: None` catch-alls.
    pub fn lookup(&self, trial: u64, attempt: u32) -> Option<FaultAction> {
        self.specs
            .iter()
            .rev()
            .find(|s| s.trial == trial && s.attempt.is_none_or(|a| a == attempt))
            .map(|s| s.action)
    }

    /// Parse the `--faults` knob: entries separated by `;` or `,`, each
    /// `fail:TRIAL[@ATTEMPT]`, `nan:TRIAL[@ATTEMPT]`,
    /// `delay:TRIAL[@ATTEMPT]:MILLIS`, `worker-crash:TRIAL[@ATTEMPT]` or
    /// `worker-stall:TRIAL[@ATTEMPT]`. Omitting `@ATTEMPT` hits every
    /// attempt of the trial.
    ///
    /// ```
    /// use e2c_tune::fault::{FaultAction, FaultPlan};
    /// let plan = FaultPlan::parse("fail:3@0;nan:2;delay:1@1:250").unwrap();
    /// assert_eq!(plan.lookup(3, 0), Some(FaultAction::Fail));
    /// assert_eq!(plan.lookup(3, 1), None);
    /// assert_eq!(plan.lookup(2, 7), Some(FaultAction::Nan));
    /// ```
    pub fn parse(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for entry in text
            .split([';', ','])
            .map(str::trim)
            .filter(|e| !e.is_empty())
        {
            let mut parts = entry.split(':');
            let kind = parts.next().unwrap_or_default();
            let target = parts
                .next()
                .ok_or_else(|| format!("`{entry}`: missing trial id"))?;
            let (trial, attempt) = parse_target(target).map_err(|e| format!("`{entry}`: {e}"))?;
            let action = match kind {
                "fail" => FaultAction::Fail,
                "nan" => FaultAction::Nan,
                "delay" => {
                    let ms: u64 = parts
                        .next()
                        .ok_or_else(|| format!("`{entry}`: delay needs `:MILLIS`"))?
                        .parse()
                        .map_err(|e| format!("`{entry}`: bad millis ({e})"))?;
                    FaultAction::Delay(Duration::from_millis(ms))
                }
                "worker-crash" => FaultAction::WorkerCrash,
                "worker-stall" => FaultAction::WorkerStall,
                other => {
                    return Err(format!(
                        "`{entry}`: unknown fault kind `{other}` (expected fail, nan, delay, \
                         worker-crash or worker-stall)"
                    ))
                }
            };
            if parts.next().is_some() {
                return Err(format!("`{entry}`: trailing fields"));
            }
            plan.specs.push(FaultSpec {
                trial,
                attempt,
                action,
            });
        }
        Ok(plan)
    }
}

/// The canonical `--faults` spelling: entries joined by `;` with no
/// spaces, each `KIND:TRIAL[@ATTEMPT][:MILLIS]`. [`FaultPlan::parse`]
/// reads it back to an equal plan.
impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                f.write_str(";")?;
            }
            let kind = match spec.action {
                FaultAction::Fail => "fail",
                FaultAction::Nan => "nan",
                FaultAction::Delay(_) => "delay",
                FaultAction::WorkerCrash => "worker-crash",
                FaultAction::WorkerStall => "worker-stall",
            };
            write!(f, "{kind}:{}", spec.trial)?;
            if let Some(attempt) = spec.attempt {
                write!(f, "@{attempt}")?;
            }
            if let FaultAction::Delay(delay) = spec.action {
                write!(f, ":{}", delay.as_millis())?;
            }
        }
        Ok(())
    }
}

fn parse_target(target: &str) -> Result<(u64, Option<u32>), String> {
    match target.split_once('@') {
        Some((t, a)) => {
            let trial = t.parse().map_err(|e| format!("bad trial id ({e})"))?;
            let attempt = a.parse().map_err(|e| format!("bad attempt ({e})"))?;
            Ok((trial, Some(attempt)))
        }
        None => Ok((
            target.parse().map_err(|e| format!("bad trial id ({e})"))?,
            None,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn none_policy_allows_one_attempt() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts(), 1);
        assert_eq!(p.backoff(1, 2, 0), Duration::ZERO);
    }

    #[test]
    fn raw_backoff_grows_and_caps() {
        let p = RetryPolicy::retries(8)
            .base_delay(Duration::from_millis(100))
            .factor(2.0)
            .max_delay(Duration::from_millis(500));
        assert_eq!(p.raw_backoff(0), Duration::from_millis(100));
        assert_eq!(p.raw_backoff(1), Duration::from_millis(200));
        assert_eq!(p.raw_backoff(2), Duration::from_millis(400));
        assert_eq!(p.raw_backoff(3), Duration::from_millis(500)); // capped
        assert_eq!(p.raw_backoff(30), Duration::from_millis(500));
    }

    #[test]
    fn jittered_backoff_is_deterministic() {
        let p = RetryPolicy::retries(3).jitter(0.5);
        for trial in 0..10u64 {
            for attempt in 0..4u32 {
                assert_eq!(
                    p.backoff(42, trial, attempt),
                    p.backoff(42, trial, attempt),
                    "same inputs must give the same delay"
                );
            }
        }
        // A different seed perturbs at least one delay.
        let differs = (0..10u64).any(|trial| p.backoff(1, trial, 0) != p.backoff(2, trial, 0));
        assert!(differs, "jitter ignored the seed");
    }

    #[test]
    fn plan_lookup_most_recent_wins() {
        let plan = FaultPlan::new().fail_always(4).nan(4, 1);
        assert_eq!(plan.lookup(4, 0), Some(FaultAction::Fail));
        assert_eq!(plan.lookup(4, 1), Some(FaultAction::Nan));
        assert_eq!(plan.lookup(5, 0), None);
    }

    #[test]
    fn plan_parses_the_cli_grammar() {
        let plan = FaultPlan::parse("fail:3@0; nan:2, delay:1@1:250").unwrap();
        assert_eq!(plan.specs().len(), 3);
        assert_eq!(plan.lookup(3, 0), Some(FaultAction::Fail));
        assert_eq!(plan.lookup(3, 1), None);
        assert_eq!(plan.lookup(2, 9), Some(FaultAction::Nan));
        assert_eq!(
            plan.lookup(1, 1),
            Some(FaultAction::Delay(Duration::from_millis(250)))
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn plan_parses_worker_fault_kinds() {
        let plan = FaultPlan::parse("worker-crash:2@0; worker-stall:3").unwrap();
        assert_eq!(plan.lookup(2, 0), Some(FaultAction::WorkerCrash));
        assert_eq!(plan.lookup(2, 1), None);
        assert_eq!(plan.lookup(3, 5), Some(FaultAction::WorkerStall));
        // Builders mirror the grammar.
        let built = FaultPlan::new().worker_crash(2, 0).worker_stall(1, 1);
        assert_eq!(built.lookup(2, 0), Some(FaultAction::WorkerCrash));
        assert_eq!(built.lookup(1, 1), Some(FaultAction::WorkerStall));
    }

    #[test]
    fn plan_renders_to_its_canonical_spelling() {
        let text = "fail:3@0; nan:2, delay:1@1:250,worker-crash:2@0;worker-stall:3";
        let plan = FaultPlan::parse(text).unwrap();
        let canonical = plan.to_string();
        assert_eq!(
            canonical,
            "fail:3@0;nan:2;delay:1@1:250;worker-crash:2@0;worker-stall:3"
        );
        assert_eq!(FaultPlan::parse(&canonical).unwrap(), plan);
        assert_eq!(FaultPlan::new().to_string(), "");
    }

    #[test]
    fn plan_rejects_bad_specs() {
        assert!(FaultPlan::parse("explode:1").is_err());
        assert!(FaultPlan::parse("fail").is_err());
        assert!(FaultPlan::parse("fail:x").is_err());
        assert!(FaultPlan::parse("delay:1@0").is_err()); // missing millis
        assert!(FaultPlan::parse("fail:1@0:9").is_err()); // trailing field
    }

    proptest! {
        /// The un-jittered schedule is monotone non-decreasing in the
        /// attempt number.
        #[test]
        fn raw_backoff_is_monotone(
            base_ms in 0u64..1_000,
            factor in 1.0f64..4.0,
            cap_ms in 0u64..60_000,
            attempt in 0u32..20,
        ) {
            let p = RetryPolicy::retries(20)
                .base_delay(Duration::from_millis(base_ms))
                .factor(factor)
                .max_delay(Duration::from_millis(cap_ms));
            prop_assert!(p.raw_backoff(attempt + 1) >= p.raw_backoff(attempt));
        }

        /// Jitter stays inside the `[1 - j, 1 + j]` band around the raw
        /// delay and never exceeds the cap by more than the band allows.
        #[test]
        fn jitter_stays_in_band(
            seed in any::<u64>(),
            trial in 0u64..1_000,
            attempt in 0u32..10,
            jitter in 0.0f64..1.0,
        ) {
            let p = RetryPolicy::retries(10)
                .base_delay(Duration::from_millis(50))
                .factor(2.0)
                .max_delay(Duration::from_secs(5))
                .jitter(jitter);
            let raw = p.raw_backoff(attempt).as_secs_f64();
            let got = p.backoff(seed, trial, attempt).as_secs_f64();
            prop_assert!(got >= raw * (1.0 - jitter) - 1e-9);
            prop_assert!(got <= raw * (1.0 + jitter) + 1e-9);
        }

        /// The attempt cap is exactly `max_retries + 1`.
        #[test]
        fn attempt_cap_honored(retries in 0u32..100) {
            prop_assert_eq!(RetryPolicy::retries(retries).max_attempts(), retries + 1);
        }
    }
}
