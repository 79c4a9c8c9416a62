//! The parallel trial runner.
//!
//! [`Tuner::run`] is the analogue of the paper's `tune.run(...)` call
//! (Listing 1): it pulls configurations from a [`Searcher`], executes the
//! user objective on a pool of worker threads, feeds results back
//! asynchronously, and lets a [`Scheduler`] stop hopeless trials early.
//!
//! On real edge-to-cloud testbeds trial failures are routine, so the
//! runner is fault tolerant: failed attempts are retried under a
//! [`RetryPolicy`] (with seed-deterministic backoff jitter), every trial
//! can carry a wall-clock `time_budget` enforced cooperatively through
//! [`TrialContext`] and checked again when the attempt returns, and a
//! [`FaultPlan`] injects deterministic failures so the robustness layer
//! is itself testable.
//!
//! Runs stay deterministic through a *commit sequencer*
//! ([`crate::sequencer`]): trials execute concurrently on the worker
//! pool, but each trial's effects with observable order — searcher
//! tells, scheduler feeds, journal appends, trace events — are buffered
//! and applied at its *commit*, in ask-index order. One worker is simply
//! a commit window of one. The journal, trace and artifacts of a run are
//! therefore a pure function of (configuration, seed, worker count),
//! byte-identical under any thread interleaving, and crash-resume
//! replays them exactly.

use crate::analysis::Analysis;
use crate::clock;
use crate::fault::{FaultAction, FaultPlan, RetryPolicy};
use crate::journal::{ResumeState, RunEvent, RunJournal};
use crate::scheduler::{Decision, Scheduler};
use crate::searcher::Searcher;
use crate::sequencer::{AskOutcome, Dispatch, Sequencer};
use crate::trial::{Attempt, Trial, TrialError, TrialStatus};
use e2c_optim::space::Point;
use e2c_trace::Fields;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Safety-net timeout for workers parked on the commit sequencer: they
/// are woken whenever a journal turn ends, but re-check this often so a
/// missed edge can never stall the run.
const SUGGEST_WAIT: Duration = Duration::from_millis(50);

/// Optimization direction of the user metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Smaller metric is better (`mode="min"`).
    Min,
    /// Larger metric is better (`mode="max"`).
    Max,
}

/// Handle given to the objective for intermediate reporting.
///
/// Call [`TrialContext::report`] once per training iteration / evaluation
/// window. The scheduler judges the reports at the trial's commit: the
/// first report it stops becomes the trial's final value and the later
/// ones are dropped.
pub struct TrialContext<'a> {
    /// This trial's id.
    pub trial_id: u64,
    /// 0-based execution attempt (> 0 when the retry layer re-runs a
    /// failed trial).
    pub attempt: u32,
    tracer: Option<&'a e2c_trace::Tracer>,
    reports: Vec<(u64, f64)>,
    notes: Vec<(String, f64)>,
    deadline: Option<Instant>,
    /// Set by [`TrialContext::fail_attempt`]: the attempt is settled with
    /// this typed error instead of whatever value the objective returned.
    abort: Option<TrialError>,
}

impl<'a> TrialContext<'a> {
    /// Report an intermediate metric value (user orientation). Returns
    /// [`Decision::Stop`] once the trial's deadline has passed, else
    /// [`Decision::Continue`]: the scheduler is consulted at the trial's
    /// commit, not live, so the early stop (with its truncated report
    /// list) is settled in canonical order for every worker count and
    /// interleaving.
    pub fn report(&mut self, value: f64) -> Decision {
        if self.deadline_exceeded() {
            return Decision::Stop;
        }
        let iteration = self.reports.len() as u64 + 1;
        self.reports.push((iteration, value));
        Decision::Continue
    }

    /// The trace sink for this attempt's engine-side events: a per-trial
    /// buffer whose events are spliced into the run trace at the trial's
    /// commit. Objectives that trace must use this handle, never a
    /// captured tracer, or their events land in the run trace out of
    /// canonical order.
    pub fn tracer(&self) -> Option<&e2c_trace::Tracer> {
        self.tracer
    }

    /// Attach a named value to this attempt's record (see
    /// [`Attempt::notes`]): a by-product of the evaluation that must
    /// outlive it, such as a traced run's completed-request count.
    pub fn note(&mut self, name: impl Into<String>, value: f64) {
        self.notes.push((name.into(), value));
    }

    /// Fail this attempt with a typed infrastructure error (e.g. a worker
    /// farm reporting [`TrialError::WorkerLost`] after its re-dispatch
    /// budget ran out). The returned `f64` is a placeholder to hand back
    /// from the objective — once an abort is set the return value is
    /// ignored, the attempt records no raw value, and the retry layer
    /// treats the error exactly like one raised inside the tuner.
    pub fn fail_attempt(&mut self, error: TrialError) -> f64 {
        self.abort = Some(error);
        f64::NAN
    }

    /// Whether this attempt's wall-clock budget is spent, read from the
    /// monotonic clock. Cooperative objectives should check this in long
    /// loops and return promptly when it turns true; the attempt is then
    /// marked `Failed("deadline exceeded")`.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| clock::now() >= d)
    }
}

/// The [`Sequencer`] behind the workers' one mutex, plus the condvar
/// that wakes them whenever a journal turn ends. Turn holders do their
/// I/O with the mutex released.
struct SharedSeq {
    state: Mutex<Sequencer>,
    cv: Condvar,
}

impl SharedSeq {
    /// Apply `f` under the lock, then wake every waiting worker.
    fn update<T>(&self, f: impl FnOnce(&mut Sequencer) -> T) -> T {
        let out = f(&mut self.state.lock().unwrap_or_else(PoisonError::into_inner));
        self.cv.notify_all();
        out
    }

    /// Block until `f` returns `Some`, re-checking after each wake-up.
    fn until<T>(&self, mut f: impl FnMut(&mut Sequencer) -> Option<T>) -> T {
        let mut st = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(out) = f(&mut st) {
                return out;
            }
            st = self
                .cv
                .wait_timeout(st, SUGGEST_WAIT)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// One executed attempt plus the intermediate reports it buffered (fed
/// to the scheduler at commit).
struct ExecAttempt {
    attempt: Attempt,
    reports: Vec<(u64, f64)>,
}

/// Runs trials in parallel until the sample budget is spent.
pub struct Tuner {
    /// Total number of trials (`num_samples`).
    pub num_samples: usize,
    /// Worker threads executing objectives concurrently, and the commit
    /// sequencer's in-flight window. Note the *searcher-side* concurrency
    /// cap is the [`ConcurrencyLimiter`](crate::searcher::ConcurrencyLimiter)'s
    /// job; workers beyond the cap
    /// simply wait.
    pub workers: usize,
    /// Metric direction.
    pub mode: Mode,
    /// Retry policy for failed attempts (default: none — a failed attempt
    /// fails the trial).
    pub retry: RetryPolicy,
    /// Per-trial wall-clock budget (default: unlimited).
    pub time_budget: Option<Duration>,
    /// Deterministic failure injection (default: empty).
    pub faults: FaultPlan,
    /// Experiment seed; drives the retry backoff jitter.
    pub seed: u64,
    /// Optional trace sink for the worker lifecycle (ask → execute →
    /// retry/fault → tell), keyed by the tracer's virtual clock.
    pub tracer: Option<e2c_trace::Tracer>,
    /// Optional write-ahead run journal: every ask/report/attempt/tell is
    /// appended (fsync'd) before the run proceeds, making the run
    /// crash-resumable.
    pub journal: Option<RunJournal>,
    /// State recovered by [`crate::journal::replay`] when resuming a
    /// journaled run: settled trials, dangling trials to re-execute, and
    /// the continuation id.
    pub resume: Option<ResumeState>,
}

impl Tuner {
    /// A tuner with the given budget, worker count and direction.
    pub fn new(num_samples: usize, workers: usize, mode: Mode) -> Self {
        assert!(num_samples > 0, "num_samples must be positive");
        assert!(workers > 0, "workers must be positive");
        Tuner {
            num_samples,
            workers,
            mode,
            retry: RetryPolicy::none(),
            time_budget: None,
            faults: FaultPlan::new(),
            seed: 0,
            tracer: None,
            journal: None,
            resume: None,
        }
    }

    /// Set the retry policy for failed attempts.
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Set the per-trial wall-clock budget.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Install a failure-injection plan.
    pub fn faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Set the experiment seed (backoff jitter determinism).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach a tracer recording the worker lifecycle.
    pub fn trace(mut self, tracer: e2c_trace::Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Attach a write-ahead run journal (crash safety).
    pub fn journal(mut self, journal: RunJournal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Continue from replayed journal state instead of starting fresh.
    pub fn resume(mut self, resume: ResumeState) -> Self {
        self.resume = Some(resume);
        self
    }

    /// Execute the experiment. The objective receives the configuration
    /// and a [`TrialContext`]; it returns the final metric value (user
    /// orientation). Panicking, non-finite or deadline-overrunning
    /// attempts are retried under the [`RetryPolicy`]; only when every
    /// attempt fails is the trial marked failed and the searcher fed a
    /// large penalty so Bayesian search avoids the region while its
    /// in-flight bookkeeping stays consistent.
    pub fn run<F>(
        &self,
        searcher: Box<dyn Searcher>,
        scheduler: Arc<dyn Scheduler>,
        objective: F,
    ) -> Analysis
    where
        F: Fn(&Point, &mut TrialContext<'_>) -> f64 + Send + Sync,
    {
        let resume = self.resume.clone().unwrap_or_else(ResumeState::empty);
        // Dangling trials from a resumed journal (`pending`): asked
        // pre-crash but never settled. They re-execute from attempt 0
        // with their journaled configuration (no fresh suggest — the
        // replay already advanced the searcher past their asks).
        let seq = SharedSeq {
            state: Mutex::new(Sequencer::new(
                self.workers,
                self.num_samples,
                resume.next_id,
                resume.trials.iter().map(|t| t.id).collect(),
                resume.pending,
            )),
            cv: Condvar::new(),
        };
        // Only the holder of the journal turn touches the searcher, so
        // suggest order, journal order and RNG draw order coincide.
        let searcher = Mutex::new(searcher);
        let asks_at_mark = resume.asks_at_mark;
        // Trace events already carried by journaled tells: a resumed run
        // starts past its restored prefix. Only the journal-turn holder
        // reads or moves it.
        let trace_journaled = AtomicUsize::new(resume.trace.len());
        let trials: Mutex<Vec<Trial>> = Mutex::new(resume.trials);
        let worst_seen = Mutex::new(resume.worst_seen);
        let objective = &objective;
        let scheduler = &*scheduler;
        let tracer = self.tracer.as_ref();
        let journal = self.journal.as_ref();
        let (seq, searcher, trials, worst_seen) = (&seq, &searcher, &trials, &worst_seen);
        let trace_journaled = &trace_journaled;
        let trace_ask = move |id: u64, config: &Point| {
            if let Some(tr) = tracer {
                tr.point(
                    "searcher",
                    "ask",
                    Some(id),
                    e2c_trace::fields([("config", fmt_point(config).into())]),
                );
            }
        };

        let panic = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..self.workers {
                handles.push(scope.spawn(move || loop {
                    // ---- dispatch: claim a trial, holding the
                    // journal turn while its ask is journaled and
                    // traced. Dangling trials of a resumed run come
                    // first, then fresh asks while the window has room.
                    let step = seq.until(|s| match s.dispatch() {
                        Dispatch::Wait => None,
                        step => Some(step),
                    });
                    let (id, config, resumed) = match step {
                        Dispatch::Resume(id, config) => {
                            // Re-emit the ask trace point only if the
                            // original one was lost with the unjournaled
                            // trace suffix: asks journaled before the
                            // last tell rode in its trace block or an
                            // earlier one, so the restored prefix holds
                            // them.
                            if asks_at_mark.is_none_or(|a| id >= a) {
                                trace_ask(id, &config);
                            }
                            seq.update(|s| s.end_ask(AskOutcome::Suggested));
                            (id, config, true)
                        }
                        Dispatch::Ask(id) => {
                            let suggestion = {
                                let mut searcher =
                                    searcher.lock().unwrap_or_else(PoisonError::into_inner);
                                catch_unwind(AssertUnwindSafe(|| searcher.suggest(id)))
                            };
                            let outcome = match &suggestion {
                                Ok(Some(config)) => {
                                    if let Some(j) = journal {
                                        j.append(&RunEvent::Ask {
                                            trial: id,
                                            config: config.clone(),
                                        });
                                    }
                                    trace_ask(id, config);
                                    AskOutcome::Suggested
                                }
                                Ok(None) => AskOutcome::Refused,
                                // A panicking searcher cannot drive the
                                // run further; wind down instead of
                                // poisoning every worker.
                                Err(_) => AskOutcome::Panicked,
                            };
                            seq.update(|s| s.end_ask(outcome));
                            match suggestion {
                                Ok(Some(config)) => (id, config, false),
                                _ => continue,
                            }
                        }
                        Dispatch::Wait | Dispatch::Stop => return,
                    };
                    let mut trial = Trial::new(id, config.clone());
                    trial.status = TrialStatus::Running;
                    trials
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(trial);
                    // The trial's trace events are buffered locally and
                    // spliced into the run trace — re-stamped onto the
                    // shared virtual clock — at its commit.
                    let buffer = tracer.map(|_| e2c_trace::Tracer::new());
                    let tr_exec = buffer.as_ref();
                    let exec_span =
                        tr_exec.map(|tr| tr.begin("tuner", "execute", Some(id), Fields::new()));
                    // Attempt loop: run, classify, retry while the
                    // policy allows. Outcomes are only recorded here;
                    // the trial settles at its commit.
                    let mut exec: Vec<ExecAttempt> = Vec::new();
                    let mut success: Option<f64> = None;
                    loop {
                        let attempt = exec.len() as u32;
                        let deadline = self.time_budget.map(|b| clock::now() + b);
                        let mut ctx = TrialContext {
                            trial_id: id,
                            attempt,
                            tracer: tr_exec,
                            reports: Vec::new(),
                            notes: Vec::new(),
                            deadline,
                            abort: None,
                        };
                        let started = clock::now();
                        let fault = self.faults.lookup(id, attempt);
                        if let Some(tr) = tr_exec {
                            let mut f = e2c_trace::fields([("attempt", u64::from(attempt).into())]);
                            if let Some(action) = &fault {
                                let kind = match action {
                                    FaultAction::Fail => "fail",
                                    FaultAction::Nan => "nan",
                                    FaultAction::Delay(_) => "delay",
                                    FaultAction::WorkerCrash => "worker-crash",
                                    FaultAction::WorkerStall => "worker-stall",
                                };
                                f.insert("fault".to_string(), kind.into());
                            }
                            tr.point("tuner", "attempt", Some(id), f);
                        }
                        // Whether the user objective actually runs for
                        // this attempt (injected Fail/Nan short-circuit
                        // it). The journaled `raw` value mirrors this:
                        // it carries exactly the objective returns an
                        // uninterrupted run would have produced.
                        let invoked = matches!(fault, None | Some(FaultAction::Delay(_)));
                        let outcome: Result<f64, TrialError> = match fault {
                            Some(FaultAction::Fail) => Err(TrialError::Injected(format!(
                                "injected fault: fail (attempt {attempt})"
                            ))),
                            Some(FaultAction::Nan) => Ok(f64::NAN),
                            // Worker faults short-circuit tuner-side so a
                            // fault plan replays byte-identically whether
                            // or not a process farm is attached.
                            Some(FaultAction::WorkerCrash) => Err(TrialError::WorkerLost(format!(
                                "injected worker-crash (attempt {attempt})"
                            ))),
                            Some(FaultAction::WorkerStall) => Err(TrialError::WorkerLost(format!(
                                "injected worker-stall (attempt {attempt})"
                            ))),
                            Some(FaultAction::Delay(d)) => {
                                // detlint: allow(DET004) injected-fault delay: reproduces a configured, deterministic slowdown
                                std::thread::sleep(d);
                                run_objective(objective, &config, &mut ctx)
                            }
                            None => run_objective(objective, &config, &mut ctx),
                        };
                        let secs = started.elapsed().as_secs_f64();
                        let overran = ctx.deadline_exceeded();
                        let abort = ctx.abort;
                        let reports = ctx.reports;
                        let notes = ctx.notes;
                        let raw = if invoked && abort.is_none() {
                            outcome.as_ref().ok().copied()
                        } else {
                            None
                        };
                        let (error, value) = if overran {
                            (Some(TrialError::DeadlineExceeded), None)
                        } else if let Some(e) = abort {
                            (Some(e), None)
                        } else {
                            match outcome {
                                Ok(v) if v.is_finite() => (None, Some(v)),
                                Ok(v) => (Some(TrialError::NonFinite(format!("{v}"))), None),
                                Err(e) => (Some(e), None),
                            }
                        };
                        if let (Some(tr), Some(e)) = (tr_exec, &error) {
                            tr.point(
                                "tuner",
                                "attempt_failed",
                                Some(id),
                                e2c_trace::fields([
                                    ("attempt", u64::from(attempt).into()),
                                    ("error", e.to_string().into()),
                                ]),
                            );
                        }
                        exec.push(ExecAttempt {
                            attempt: Attempt {
                                index: attempt,
                                error,
                                secs,
                                raw,
                                notes,
                            },
                            reports,
                        });
                        if value.is_some() {
                            success = value;
                            break;
                        }
                        if exec.len() as u32 >= self.retry.max_attempts() {
                            break;
                        }
                        let delay = self.retry.backoff(self.seed, id, attempt);
                        if let Some(tr) = tr_exec {
                            tr.point(
                                "tuner",
                                "retry",
                                Some(id),
                                e2c_trace::fields([(
                                    "delay_ms",
                                    (delay.as_millis() as u64).into(),
                                )]),
                            );
                            // Account for the backoff in virtual time
                            // (the delay itself is seed-deterministic).
                            tr.advance(delay.as_millis() as u64);
                        }
                        if !delay.is_zero() {
                            // detlint: allow(DET004) retry backoff: delay length is seed-deterministic and never feeds the metric
                            std::thread::sleep(delay);
                        }
                    }
                    // ---- commit: wait for this trial's turn, then
                    // apply its effects in canonical order.
                    let asks = seq.until(|s| s.begin_commit(id));
                    if resumed {
                        if let Some(j) = journal {
                            j.append(&RunEvent::Restart { trial: id });
                        }
                    }
                    // Splice the buffered trace onto the shared clock;
                    // the execute span's begin reference is remapped
                    // into the run trace.
                    let exec_begin = tracer.zip(buffer.as_ref()).and_then(|(tr, buf)| {
                        let (events, end_clock) = buf.drain_for_splice();
                        let seq_map = tr.splice(&events, end_clock);
                        exec_span.and_then(|s| seq_map.get(s as usize).copied())
                    });
                    // Feed the buffered reports to the scheduler in
                    // order, journaling each verdict; at the first
                    // Stop the kept reports are truncated there and
                    // the stopping report's value becomes the trial's.
                    let mut stop_value: Option<f64> = None;
                    let mut final_reports: Vec<(u64, f64)> = Vec::new();
                    for ea in &exec {
                        let mut kept: Vec<(u64, f64)> = Vec::new();
                        if stop_value.is_none() {
                            for &(iteration, user_value) in &ea.reports {
                                let normalized = match self.mode {
                                    Mode::Min => user_value,
                                    Mode::Max => -user_value,
                                };
                                let d = scheduler.on_report(id, iteration, normalized);
                                if let Some(j) = journal {
                                    j.append(&RunEvent::Report {
                                        trial: id,
                                        iteration,
                                        normalized,
                                        stop: d == Decision::Stop,
                                    });
                                }
                                kept.push((iteration, user_value));
                                if d == Decision::Stop {
                                    stop_value = Some(user_value);
                                    break;
                                }
                            }
                        }
                        if let Some(j) = journal {
                            let a = &ea.attempt;
                            j.append(&RunEvent::Attempt {
                                trial: id,
                                index: a.index,
                                secs: a.secs,
                                raw: a.raw,
                                error: a.error.clone(),
                                notes: a.notes.clone(),
                            });
                        }
                        final_reports = kept;
                    }
                    let (status, feedback) = match success {
                        Some(v) => {
                            let (value, status) = match stop_value {
                                Some(s) => (s, TrialStatus::StoppedEarly(s)),
                                None => (v, TrialStatus::Terminated(v)),
                            };
                            let normalized = match self.mode {
                                Mode::Min => value,
                                Mode::Max => -value,
                            };
                            {
                                let mut worst =
                                    worst_seen.lock().unwrap_or_else(PoisonError::into_inner);
                                *worst = worst.max(normalized);
                            }
                            (status, normalized)
                        }
                        None => {
                            let reason = exec
                                .last()
                                .and_then(|ea| ea.attempt.error.as_ref())
                                .map(|e| e.to_string())
                                .unwrap_or_default();
                            (
                                TrialStatus::Failed(reason),
                                self.failure_penalty(worst_seen),
                            )
                        }
                    };
                    if let (Some(tr), Some(span)) = (tracer, exec_begin) {
                        tr.end(
                            "tuner",
                            "execute",
                            Some(id),
                            span,
                            e2c_trace::fields([
                                ("attempts", exec.len().into()),
                                ("outcome", status.token().into()),
                            ]),
                        );
                    }
                    // A panicking searcher must not poison the run: the
                    // trial is marked failed and the run winds down
                    // with every settled result intact.
                    let observed = catch_unwind(AssertUnwindSafe(|| {
                        searcher
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .observe(id, feedback)
                    }));
                    let status = match observed {
                        Ok(()) => {
                            if let Some(tr) = tracer {
                                tr.point(
                                    "searcher",
                                    "tell",
                                    Some(id),
                                    e2c_trace::fields([("value", feedback.into())]),
                                );
                            }
                            if let Some(j) = journal {
                                // The trace block: every event since the
                                // previous tell, through the tell point.
                                // Resume restores the blocks' concatenation
                                // and the clock of its last event, so
                                // re-executed trials land on the same
                                // (seq, vt) slots. The ask count records
                                // the run's ask/commit permutation for
                                // replay verification.
                                let trace = tracer.map_or_else(String::new, |tr| {
                                    let from = trace_journaled.swap(tr.len(), Ordering::SeqCst);
                                    tr.to_jsonl_from(from)
                                });
                                j.append(&RunEvent::Tell {
                                    trial: id,
                                    feedback,
                                    status: status.token().to_string(),
                                    value: status.value(),
                                    asks,
                                    trace,
                                });
                            }
                            status
                        }
                        Err(panic) => {
                            seq.update(Sequencer::exhaust);
                            TrialStatus::Failed(
                                TrialError::Panicked(format!(
                                    "searcher observe panicked: {}",
                                    panic_message(panic.as_ref(), "observe panicked")
                                ))
                                .to_string(),
                            )
                        }
                    };
                    seq.update(Sequencer::end_commit);
                    {
                        // Recorded when the ask was admitted; a missing
                        // entry would mean the bookkeeping already lost
                        // the trial, and panicking here could not get it
                        // back.
                        let mut t = trials.lock().unwrap_or_else(PoisonError::into_inner);
                        if let Some(trial) = t.iter_mut().find(|tr| tr.id == id) {
                            trial.reports = final_reports;
                            trial.attempts = exec.into_iter().map(|ea| ea.attempt).collect();
                            trial.status = status;
                        }
                    }
                }));
            }
            // Join explicitly: `std::thread::scope` would replace a
            // thread's panic payload with its own message.
            let mut first = None;
            for handle in handles {
                if let Err(panic) = handle.join() {
                    first.get_or_insert(panic);
                }
            }
            first
        });
        if let Some(panic) = panic {
            // A worker thread died outside catch_unwind (tuner bug, not an
            // objective failure): re-raise its original payload on the
            // caller's thread instead of aborting with a bare expect.
            std::panic::resume_unwind(panic);
        }

        let mut trials =
            std::mem::take(&mut *trials.lock().unwrap_or_else(PoisonError::into_inner));
        trials.sort_by_key(|t| t.id);
        Analysis::new(self.mode, trials)
    }

    /// Penalty fed to the searcher for failed trials: decisively worse
    /// than anything observed, but finite.
    fn failure_penalty(&self, worst_seen: &Mutex<f64>) -> f64 {
        let worst = *worst_seen.lock().unwrap_or_else(PoisonError::into_inner);
        if worst.is_finite() {
            worst + worst.abs().max(1.0)
        } else {
            1e6
        }
    }
}

/// Compact, deterministic rendering of a configuration for trace events.
fn fmt_point(p: &Point) -> String {
    p.iter().map(f64::to_string).collect::<Vec<_>>().join(",")
}

/// Extract a printable message from a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send), fallback: &str) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| fallback.to_string())
}

/// Run the user objective, converting panics into typed errors.
fn run_objective<F>(
    objective: &F,
    config: &Point,
    ctx: &mut TrialContext<'_>,
) -> Result<f64, TrialError>
where
    F: Fn(&Point, &mut TrialContext<'_>) -> f64 + Send + Sync,
{
    catch_unwind(AssertUnwindSafe(|| objective(config, ctx)))
        .map_err(|panic| TrialError::Panicked(panic_message(panic.as_ref(), "objective panicked")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{AsyncHyperBand, Fifo};
    use crate::searcher::{ConcurrencyLimiter, GridSearch, RandomSearch, SkOptSearch};
    use e2c_optim::bayes::BayesOpt;
    use e2c_optim::space::Space;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn space() -> Space {
        Space::new().int("x", 0, 20)
    }

    /// A fast retry policy for tests (no real-time backoff).
    fn fast_retries(n: u32) -> RetryPolicy {
        RetryPolicy::retries(n)
            .base_delay(Duration::from_millis(1))
            .max_delay(Duration::from_millis(2))
    }

    #[test]
    fn runs_exact_sample_budget() {
        let tuner = Tuner::new(12, 4, Mode::Min);
        let analysis = tuner.run(
            Box::new(RandomSearch::new(space(), 3)),
            Arc::new(Fifo),
            |cfg, _ctx| (cfg[0] - 7.0).powi(2),
        );
        assert_eq!(analysis.trials().len(), 12);
        assert!(analysis.trials().iter().all(|t| t.status.is_finished()));
        // Exactly one successful attempt per trial.
        assert!(analysis
            .trials()
            .iter()
            .all(|t| t.attempt_count() == 1 && t.retries() == 0));
    }

    #[test]
    fn finds_minimum_with_bayes_search() {
        let searcher = SkOptSearch::new(BayesOpt::new(space(), 11).n_initial_points(6));
        let tuner = Tuner::new(25, 3, Mode::Min);
        let analysis = tuner.run(
            Box::new(ConcurrencyLimiter::new(searcher, 3)),
            Arc::new(Fifo),
            |cfg, _| (cfg[0] - 13.0).powi(2),
        );
        let best = analysis.best_trial().unwrap();
        assert!(
            best.value().unwrap() <= 1.0,
            "best {:?} = {:?}",
            best.config,
            best.value()
        );
    }

    #[test]
    fn max_mode_maximizes() {
        let tuner = Tuner::new(20, 2, Mode::Max);
        let analysis = tuner.run(
            Box::new(RandomSearch::new(space(), 5)),
            Arc::new(Fifo),
            |cfg, _| -((cfg[0] - 4.0).powi(2)),
        );
        let best = analysis.best_trial().unwrap();
        // Maximum of -(x-4)^2 is 0 at x=4.
        assert!(best.value().unwrap() >= -4.0, "{best:?}");
    }

    #[test]
    fn grid_exhaustion_terminates_cleanly() {
        let points = vec![vec![1.0], vec![2.0], vec![3.0]];
        let tuner = Tuner::new(10, 4, Mode::Min); // budget exceeds the grid
        let analysis = tuner.run(
            Box::new(GridSearch::from_points(space(), points)),
            Arc::new(Fifo),
            |cfg, _| cfg[0],
        );
        assert_eq!(analysis.trials().len(), 3);
        assert_eq!(analysis.best_trial().unwrap().value(), Some(1.0));
    }

    #[test]
    fn concurrency_limit_is_respected() {
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let searcher = ConcurrencyLimiter::new(RandomSearch::new(space(), 9), 2);
        let tuner = Tuner::new(10, 6, Mode::Min); // more workers than cap
        let (running2, peak2) = (running.clone(), peak.clone());
        tuner.run(Box::new(searcher), Arc::new(Fifo), move |cfg, _| {
            let now = running2.fetch_add(1, Ordering::SeqCst) + 1;
            peak2.fetch_max(now, Ordering::SeqCst);
            // detlint: allow(DET004) test objective: holds a worker busy so the limiter's peak is observable
            std::thread::sleep(std::time::Duration::from_millis(5));
            running2.fetch_sub(1, Ordering::SeqCst);
            cfg[0]
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak concurrency {} exceeded the limiter",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn scheduler_stops_bad_trials() {
        // Trials report their (constant) value 8 times; ASHA with rf=2 must
        // stop a decent share of the bad half early.
        let tuner = Tuner::new(24, 4, Mode::Min);
        let scheduler = Arc::new(AsyncHyperBand::new(1, 2, 8));
        let analysis = tuner.run(
            Box::new(RandomSearch::new(space(), 17)),
            scheduler,
            |cfg, ctx| {
                let value = cfg[0];
                for _ in 0..8 {
                    if ctx.report(value) == Decision::Stop {
                        break;
                    }
                }
                value
            },
        );
        let stopped = analysis
            .trials()
            .iter()
            .filter(|t| t.stopped_early())
            .count();
        assert!(stopped > 0, "ASHA never stopped anything");
        // Early-stopped trials must have fewer reports than survivors' max.
        let max_full = analysis
            .trials()
            .iter()
            .filter(|t| !t.stopped_early())
            .map(|t| t.iterations())
            .max()
            .unwrap();
        for t in analysis.trials().iter().filter(|t| t.stopped_early()) {
            assert!(t.iterations() < max_full);
        }
    }

    /// A NaN intermediate report must not kill the commit that feeds it
    /// to ASHA, or the other worker waits forever for that commit turn.
    /// The run executes on its own thread so a hang fails the test.
    #[test]
    fn nan_reports_under_asha_finish_a_parallel_run() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let analysis = Tuner::new(8, 2, Mode::Min).run(
                Box::new(GridSearch::from_points(
                    space(),
                    (1..=8).map(|x| vec![f64::from(x)]).collect(),
                )),
                Arc::new(AsyncHyperBand::new(1, 2, 8)),
                |cfg, ctx| {
                    let value = if cfg[0] % 2.0 == 1.0 {
                        f64::NAN
                    } else {
                        cfg[0]
                    };
                    for _ in 0..8 {
                        if ctx.report(value) == Decision::Stop {
                            break;
                        }
                    }
                    value
                },
            );
            let _ = tx.send(analysis);
        });
        let analysis = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the run must finish");
        let trials = analysis.trials();
        assert_eq!(trials.len(), 8);
        for t in trials.iter().step_by(2) {
            assert!(matches!(t.status, TrialStatus::Failed(_)), "{:?}", t.status);
            assert_eq!(t.iterations(), 8);
        }
        for x in [2, 4, 6] {
            let t = &trials[x - 1];
            assert_eq!(t.status, TrialStatus::Terminated(x as f64));
        }
        // Rung 1 holds only the finite reports [2, 4, 6, 8]: 8 is cut.
        assert_eq!(trials[7].status, TrialStatus::StoppedEarly(8.0));
    }

    /// One worker is a commit window of one: the scheduler judges the
    /// reports at commit, so an objective that ignores the verdict and
    /// returns something else still settles at the stopping report.
    #[test]
    fn single_worker_early_stop_settles_at_the_stopping_report() {
        let tuner = Tuner::new(4, 1, Mode::Min);
        let analysis = tuner.run(
            Box::new(GridSearch::from_points(
                space(),
                vec![vec![1.0], vec![2.0], vec![3.0], vec![9.0]],
            )),
            Arc::new(AsyncHyperBand::new(1, 2, 8)),
            |cfg, ctx| {
                for i in 0..8 {
                    ctx.report(cfg[0] + f64::from(i) / 10.0);
                }
                cfg[0] + 100.0
            },
        );
        let trials = analysis.trials();
        assert_eq!(trials[0].status, TrialStatus::Terminated(101.0));
        assert_eq!(trials[0].iterations(), 8);
        // Rung 1 holds [1, 2, 3, 9] when trial 3 reports: ASHA cuts it
        // at its first report.
        assert_eq!(trials[3].status, TrialStatus::StoppedEarly(9.0));
        assert_eq!(trials[3].reports, vec![(1, 9.0)]);
    }

    #[test]
    fn panicking_objective_marks_failed_and_continues() {
        // Seed chosen so the stream draws points on both sides of the
        // panic threshold (5 of 10 below, 5 at or above).
        let tuner = Tuner::new(10, 2, Mode::Min);
        let analysis = tuner.run(
            Box::new(RandomSearch::new(space(), 13)),
            Arc::new(Fifo),
            |cfg, _| {
                if cfg[0] < 5.0 {
                    panic!("boom at {}", cfg[0]);
                }
                cfg[0]
            },
        );
        assert_eq!(analysis.trials().len(), 10);
        let failed = analysis
            .trials()
            .iter()
            .filter(|t| matches!(t.status, TrialStatus::Failed(_)))
            .count();
        assert!(failed > 0, "expected some failures with seed 13");
        // Best trial is a successful one.
        assert!(analysis.best_trial().unwrap().value().is_some());
    }

    #[test]
    fn non_finite_metric_marks_failed() {
        let tuner = Tuner::new(4, 1, Mode::Min);
        let analysis = tuner.run(
            Box::new(GridSearch::from_points(
                space(),
                vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]],
            )),
            Arc::new(Fifo),
            |cfg, _| if cfg[0] == 2.0 { f64::NAN } else { cfg[0] },
        );
        let failed: Vec<u64> = analysis
            .trials()
            .iter()
            .filter(|t| matches!(t.status, TrialStatus::Failed(_)))
            .map(|t| t.id)
            .collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(analysis.best_trial().unwrap().value(), Some(1.0));
    }

    #[test]
    fn injected_failure_recovers_on_retry_with_true_metric() {
        // Trial 1 panics on its first attempt only; with one retry it must
        // end Terminated with its *real* metric, not a penalty, and both
        // attempts must be on the record.
        let tuner = Tuner::new(3, 1, Mode::Min)
            .retry_policy(fast_retries(1))
            .faults(FaultPlan::new().fail(1, 0));
        let analysis = tuner.run(
            Box::new(GridSearch::from_points(
                space(),
                vec![vec![4.0], vec![2.0], vec![6.0]],
            )),
            Arc::new(Fifo),
            |cfg, _| cfg[0],
        );
        let flaky = &analysis.trials()[1];
        assert_eq!(flaky.status, TrialStatus::Terminated(2.0));
        assert_eq!(flaky.attempt_count(), 2);
        assert_eq!(flaky.retries(), 1);
        assert!(!flaky.attempts[0].succeeded());
        assert_eq!(
            flaky.attempts[0].error,
            Some(TrialError::Injected(
                "injected fault: fail (attempt 0)".into()
            ))
        );
        assert!(flaky.attempts[1].succeeded());
        // The flaky trial's true value wins the experiment.
        assert_eq!(analysis.best_trial().unwrap().id, 1);
    }

    #[test]
    fn retries_exhausted_marks_failed_with_last_reason() {
        let tuner = Tuner::new(2, 1, Mode::Min)
            .retry_policy(fast_retries(2))
            .faults(FaultPlan::new().fail_always(0));
        let analysis = tuner.run(
            Box::new(GridSearch::from_points(space(), vec![vec![1.0], vec![2.0]])),
            Arc::new(Fifo),
            |cfg, _| cfg[0],
        );
        let doomed = &analysis.trials()[0];
        assert!(matches!(doomed.status, TrialStatus::Failed(_)));
        assert_eq!(doomed.attempt_count(), 3, "1 attempt + 2 retries");
        assert!(doomed.attempts.iter().all(|a| !a.succeeded()));
        assert_eq!(analysis.trials()[1].status, TrialStatus::Terminated(2.0));
    }

    #[test]
    fn nan_injection_recovers_on_retry() {
        let tuner = Tuner::new(1, 1, Mode::Min)
            .retry_policy(fast_retries(1))
            .faults(FaultPlan::new().nan(0, 0));
        let analysis = tuner.run(
            Box::new(GridSearch::from_points(space(), vec![vec![7.0]])),
            Arc::new(Fifo),
            |cfg, _| cfg[0],
        );
        let t = &analysis.trials()[0];
        assert_eq!(t.status, TrialStatus::Terminated(7.0));
        assert_eq!(
            t.attempts[0].error,
            Some(TrialError::NonFinite("NaN".into()))
        );
    }

    #[test]
    fn panicking_searcher_observe_fails_the_trial_without_poisoning_the_run() {
        /// Suggests fine, panics the first time it is told a result.
        struct Grumpy {
            inner: GridSearch,
        }
        impl Searcher for Grumpy {
            fn space(&self) -> &Space {
                self.inner.space()
            }
            fn suggest(&mut self, trial_id: u64) -> Option<Point> {
                self.inner.suggest(trial_id)
            }
            fn observe(&mut self, _trial_id: u64, _value: f64) {
                panic!("observe exploded");
            }
        }
        let tuner = Tuner::new(4, 1, Mode::Min);
        let analysis = tuner.run(
            Box::new(Grumpy {
                inner: GridSearch::from_points(
                    space(),
                    vec![vec![1.0], vec![2.0], vec![3.0], vec![4.0]],
                ),
            }),
            Arc::new(Fifo),
            |cfg, _| cfg[0],
        );
        // The run returns normally; the stricken trial is typed-failed.
        let t = &analysis.trials()[0];
        assert!(
            matches!(&t.status, TrialStatus::Failed(r) if r.contains("observe exploded")),
            "{:?}",
            t.status
        );
    }

    #[test]
    fn journaled_run_resumes_from_a_wal_prefix_with_identical_results() {
        use crate::journal::{load_events, replay, RunJournal};

        let dir = std::env::temp_dir().join(format!("e2c-tuner-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            Tuner::new(6, 1, Mode::Min)
                .retry_policy(fast_retries(1))
                .faults(FaultPlan::new().fail(2, 0))
                .seed(5)
        };
        let make_searcher = || Box::new(RandomSearch::new(space(), 41));
        let objective = |cfg: &Point, _: &mut TrialContext<'_>| (cfg[0] - 9.0).powi(2);

        // Baseline: one uninterrupted journaled run.
        let full_wal = dir.join("full.wal");
        let journal = RunJournal::new(e2c_journal::Wal::create(&full_wal).unwrap(), None);
        journal.append(&RunEvent::meta("t"));
        let baseline = build()
            .journal(journal)
            .run(make_searcher(), Arc::new(Fifo), objective);
        let events = load_events(&full_wal).unwrap();
        assert!(events.len() > 6, "expected a meaty journal");

        // Cut the journal at every boundary, resume, and compare.
        for cut in 1..events.len() {
            let part = dir.join(format!("cut-{cut}.wal"));
            let mut wal = e2c_journal::Wal::create(&part).unwrap();
            for ev in &events[..cut] {
                wal.append(ev.to_line().as_bytes()).unwrap();
            }
            drop(wal);
            let (wal, records) = e2c_journal::Wal::open(&part).unwrap();
            let replayed: Vec<RunEvent> = records
                .iter()
                .map(|r| RunEvent::parse(std::str::from_utf8(r).unwrap()).unwrap())
                .collect();
            let mut searcher = make_searcher();
            let state = replay(&replayed, searcher.as_mut(), &Fifo, Mode::Min).unwrap();
            let resumed = build()
                .journal(RunJournal::new(wal, None))
                .resume(state)
                .run(searcher, Arc::new(Fifo), objective);
            assert_eq!(
                resumed.trials().len(),
                baseline.trials().len(),
                "cut at {cut}"
            );
            for (a, b) in baseline.trials().iter().zip(resumed.trials()) {
                assert_eq!(a.id, b.id, "cut at {cut}");
                assert_eq!(a.config, b.config, "cut at {cut}");
                assert_eq!(a.status, b.status, "cut at {cut}");
                assert_eq!(a.reports, b.reports, "cut at {cut}");
                assert_eq!(
                    a.attempts
                        .iter()
                        .map(|x| (x.index, x.error.clone()))
                        .collect::<Vec<_>>(),
                    b.attempts
                        .iter()
                        .map(|x| (x.index, x.error.clone()))
                        .collect::<Vec<_>>(),
                    "cut at {cut}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Two identically seeded parallel runs must be indistinguishable:
    /// same trials, same attempt records, and byte-identical traces —
    /// the commit sequencer erases the thread interleaving.
    #[test]
    fn parallel_runs_are_deterministic_and_trace_stable() {
        let run = || {
            let tracer = e2c_trace::Tracer::new();
            let tuner = Tuner::new(12, 4, Mode::Min)
                .retry_policy(fast_retries(1))
                .faults(FaultPlan::new().fail(3, 0))
                .seed(7)
                .trace(tracer.clone());
            let analysis = tuner.run(
                Box::new(RandomSearch::new(space(), 23)),
                Arc::new(AsyncHyperBand::new(1, 2, 4)),
                |cfg, ctx| {
                    let value = (cfg[0] - 6.0).powi(2);
                    for _ in 0..4 {
                        if ctx.report(value) == Decision::Stop {
                            break;
                        }
                    }
                    value
                },
            );
            (analysis, tracer.to_jsonl())
        };
        let (a, trace_a) = run();
        let (b, trace_b) = run();
        assert_eq!(a.trials().len(), 12);
        for (x, y) in a.trials().iter().zip(b.trials()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.config, y.config);
            assert_eq!(x.status, y.status);
            assert_eq!(x.reports, y.reports);
            assert_eq!(
                x.attempts
                    .iter()
                    .map(|at| (at.index, at.error.clone(), at.raw))
                    .collect::<Vec<_>>(),
                y.attempts
                    .iter()
                    .map(|at| (at.index, at.error.clone(), at.raw))
                    .collect::<Vec<_>>()
            );
        }
        assert_eq!(trace_a, trace_b, "parallel trace must be byte-stable");
    }

    /// The parallel analogue of the WAL-prefix resume test: a journaled
    /// run on 4 workers, cut at every record boundary, must resume to
    /// the same trials as its uninterrupted self.
    #[test]
    fn parallel_journaled_run_resumes_from_a_wal_prefix_with_identical_results() {
        use crate::journal::{load_events, replay, RunJournal};

        let dir = std::env::temp_dir().join(format!("e2c-tuner-par-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            Tuner::new(8, 4, Mode::Min)
                .retry_policy(fast_retries(1))
                .faults(FaultPlan::new().fail(2, 0))
                .seed(5)
        };
        let make_searcher = || Box::new(ConcurrencyLimiter::new(RandomSearch::new(space(), 41), 4));
        let objective = |cfg: &Point, _: &mut TrialContext<'_>| (cfg[0] - 9.0).powi(2);

        let full_wal = dir.join("full.wal");
        let journal = RunJournal::new(e2c_journal::Wal::create(&full_wal).unwrap(), None);
        journal.append(&RunEvent::meta("t"));
        let baseline = build()
            .journal(journal)
            .run(make_searcher(), Arc::new(Fifo), objective);
        let events = load_events(&full_wal).unwrap();
        assert!(events.len() > 8, "expected a meaty journal");

        for cut in 1..events.len() {
            let part = dir.join(format!("cut-{cut}.wal"));
            let mut wal = e2c_journal::Wal::create(&part).unwrap();
            for ev in &events[..cut] {
                wal.append(ev.to_line().as_bytes()).unwrap();
            }
            drop(wal);
            let (wal, records) = e2c_journal::Wal::open(&part).unwrap();
            let replayed: Vec<RunEvent> = records
                .iter()
                .map(|r| RunEvent::parse(std::str::from_utf8(r).unwrap()).unwrap())
                .collect();
            let mut searcher = make_searcher();
            let state = replay(&replayed, searcher.as_mut(), &Fifo, Mode::Min).unwrap();
            let resumed = build()
                .journal(RunJournal::new(wal, None))
                .resume(state)
                .run(searcher, Arc::new(Fifo), objective);
            assert_eq!(
                resumed.trials().len(),
                baseline.trials().len(),
                "cut at {cut}"
            );
            for (a, b) in baseline.trials().iter().zip(resumed.trials()) {
                assert_eq!(a.id, b.id, "cut at {cut}");
                assert_eq!(a.config, b.config, "cut at {cut}");
                assert_eq!(a.status, b.status, "cut at {cut}");
                assert_eq!(a.reports, b.reports, "cut at {cut}");
                assert_eq!(
                    a.attempts
                        .iter()
                        .map(|x| (x.index, x.error.clone(), x.raw))
                        .collect::<Vec<_>>(),
                    b.attempts
                        .iter()
                        .map(|x| (x.index, x.error.clone(), x.raw))
                        .collect::<Vec<_>>(),
                    "cut at {cut}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tracer_records_full_worker_lifecycle() {
        let tracer = e2c_trace::Tracer::new();
        let tuner = Tuner::new(2, 1, Mode::Min)
            .retry_policy(fast_retries(1))
            .faults(FaultPlan::new().fail(0, 0))
            .trace(tracer.clone());
        tuner.run(
            Box::new(GridSearch::from_points(space(), vec![vec![4.0], vec![2.0]])),
            Arc::new(Fifo),
            |cfg, _| cfg[0],
        );
        let summary = e2c_trace::TraceSummary::from_events(&tracer.snapshot());
        let t0 = &summary.trials[&0];
        assert_eq!(t0.attempts, 2, "fault + retry = two attempts");
        assert_eq!(t0.retries, 1);
        assert_eq!(t0.faults, 1);
        assert_eq!(t0.value, Some(4.0));
        for t in summary.trials.values() {
            assert!(t.ask_vt.is_some() && t.tell_vt.is_some());
            assert!(t.exec_begin_vt.is_some() && t.exec_end_vt.is_some());
            assert!(t.ask_tell_vt().unwrap() > 0, "tell must follow ask");
        }
        assert!(summary.phases["tuner"].spans >= 2);
    }

    #[test]
    fn deadline_marks_overrunning_trial_failed_without_stalling() {
        // Trial 0 cooperatively busy-waits far beyond the 25 ms budget;
        // `deadline_exceeded` turns true, the objective bails, the trial
        // ends Failed("deadline exceeded") and the other trials still run.
        let tuner = Tuner::new(3, 2, Mode::Min).time_budget(Duration::from_millis(25));
        let analysis = tuner.run(
            Box::new(GridSearch::from_points(
                space(),
                vec![vec![9.0], vec![1.0], vec![3.0]],
            )),
            Arc::new(Fifo),
            |cfg, ctx| {
                if ctx.trial_id == 0 {
                    let hard_stop = clock::now() + Duration::from_secs(5);
                    while !ctx.deadline_exceeded() && clock::now() < hard_stop {
                        // detlint: allow(DET004) test objective: deliberate overrun past the deadline
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                cfg[0]
            },
        );
        assert_eq!(analysis.trials().len(), 3);
        assert_eq!(
            analysis.trials()[0].status,
            TrialStatus::Failed("deadline exceeded".to_string())
        );
        assert_eq!(analysis.trials()[1].status, TrialStatus::Terminated(1.0));
        assert_eq!(analysis.trials()[2].status, TrialStatus::Terminated(3.0));
        assert_eq!(analysis.best_trial().unwrap().value(), Some(1.0));
    }

    #[test]
    fn injected_delay_blows_the_deadline() {
        // The straggler fault sleeps past the budget before the objective
        // runs, so even a well-behaved objective is marked failed.
        let tuner = Tuner::new(2, 1, Mode::Min)
            .time_budget(Duration::from_millis(10))
            .faults(FaultPlan::new().delay(0, 0, Duration::from_millis(40)));
        let analysis = tuner.run(
            Box::new(GridSearch::from_points(space(), vec![vec![5.0], vec![6.0]])),
            Arc::new(Fifo),
            |cfg, _| cfg[0],
        );
        assert_eq!(
            analysis.trials()[0].status,
            TrialStatus::Failed("deadline exceeded".to_string())
        );
        assert_eq!(analysis.trials()[1].status, TrialStatus::Terminated(6.0));
    }
}
