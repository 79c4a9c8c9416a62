//! The Optimization Manager (Fig. 5, Listing 1).
//!
//! Phase I comes in as an [`OptimizationConf`] (parsed from
//! `optimizer_conf`). Phase II is the *optimization cycle*: the manager
//! builds the search algorithm, wraps it in a concurrency limiter, and
//! drives parallel evaluations whose results retrain the model
//! asynchronously. Phase III is the [`OptimizationSummary`]: problem
//! definition, sampler, algorithm + hyperparameters, all evaluated points
//! and the best configuration — written to a reproducibility archive.
//!
//! The `prepare()` / `launch()` / `finalize()` methods of the paper's
//! `Optimization` class map to the per-evaluation steps the manager
//! performs around the user objective: it creates a per-evaluation
//! directory, runs the deployment callback, and records the evaluation.

use crate::archive;
use e2c_conf::schema::VarKind;
use e2c_conf::schema::{
    AcqFunc, InitialPointGenerator, OptimizationConf, SearchAlgo, SurrogateName,
};
use e2c_optim::acquisition::Acquisition;
use e2c_optim::bayes::BayesOpt;
use e2c_optim::sampling::InitialDesign;
use e2c_optim::space::{Point, Space};
use e2c_optim::surrogate::SurrogateKind;
use e2c_tune::fault::{FaultPlan, RetryPolicy};
use e2c_tune::journal::{ResumeState, RunEvent, RunJournal};
use e2c_tune::searcher::{ConcurrencyLimiter, GridSearch, RandomSearch, SkOptSearch};
use e2c_tune::tuner::{Mode, Tuner};
use e2c_tune::{Analysis, Fifo, Scheduler, Searcher};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Crash-safety configuration for a journaled run (`--journal` /
/// `--resume` / `--crash-at`).
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding `run.wal` (and `trace.stream.jsonl` when traced).
    pub dir: PathBuf,
    /// Resume an existing journal instead of starting a fresh one.
    pub resume: bool,
    /// Chaos knob: exit with [`e2c_tune::CRASH_EXIT_CODE`] right after
    /// the Nth journal append of this process.
    pub crash_after: Option<u64>,
    /// Caller-supplied context folded into the configuration fingerprint
    /// (the CLI adds its cycle parameters so a journal cannot be resumed
    /// under different ones).
    pub extra_fingerprint: String,
}

impl JournalConfig {
    /// Fresh journal under `dir`.
    pub fn fresh(dir: PathBuf) -> Self {
        JournalConfig {
            dir,
            resume: false,
            crash_after: None,
            extra_fingerprint: String::new(),
        }
    }

    /// Resume the journal under `dir`.
    pub fn resume(dir: PathBuf) -> Self {
        JournalConfig {
            dir,
            resume: true,
            crash_after: None,
            extra_fingerprint: String::new(),
        }
    }

    /// Chaos knob: exit right after the Nth journal append (`None` = run
    /// to completion).
    pub fn crash_after(mut self, after: Option<u64>) -> Self {
        self.crash_after = after;
        self
    }

    /// Fold caller context (CLI workload knobs) into the fingerprint.
    pub fn extra_fingerprint(mut self, extra: String) -> Self {
        self.extra_fingerprint = extra;
        self
    }
}

/// Why an optimization run failed. Display output preserves the
/// CLI-facing messages (including their `--journal:` / `--resume:`
/// prefixes), so matching on rendered text keeps working; matching on the
/// variant is the typed alternative.
#[derive(Debug)]
pub enum RunError {
    /// The journal WAL could not be created, or a fresh journal would
    /// clobber an existing one.
    Journal(String),
    /// A resume was refused or failed: fingerprint mismatch, corrupt or
    /// divergent journal, or a trace stream that does not belong to it.
    Resume(String),
    /// The trace stream could not be written.
    Trace(String),
    /// The reproducibility archive or trial log could not be written.
    Archive(String),
    /// The multi-process worker farm could not be launched (no worker
    /// spawned at all). Losses *during* the run are not this error —
    /// they surface per-attempt as `TrialError::WorkerLost` through the
    /// ordinary retry machinery.
    Farm(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (RunError::Journal(msg)
        | RunError::Resume(msg)
        | RunError::Trace(msg)
        | RunError::Archive(msg)
        | RunError::Farm(msg)) = self;
        f.write_str(msg)
    }
}

impl std::error::Error for RunError {}

/// Per-evaluation context handed to the user objective — the analogue of
/// the paper's `run_objective(self, _config)` body. This is the single
/// user-facing evaluation handle (re-exported by `crate::user_api`).
#[derive(Clone)]
pub struct EvalContext {
    /// Trial identifier.
    pub trial_id: u64,
    /// 0-based execution attempt (> 0 when the fault-tolerance layer
    /// re-runs a failed evaluation).
    pub attempt: u32,
    /// The configuration to evaluate (external units, Eq. 2 order).
    pub point: Point,
    /// Directory created by `prepare()` for this evaluation's artifacts
    /// (absent when the manager runs without an archive root).
    pub eval_dir: Option<PathBuf>,
    /// Trace handle for this evaluation. Under concurrent execution this
    /// is a per-trial buffer that the commit sequencer splices into the
    /// run trace in canonical order — objectives that emit trace events
    /// MUST use this handle (never a captured tracer) or their events
    /// land interleaved by wall clock instead of by trial.
    pub tracer: Option<e2c_trace::Tracer>,
}

impl std::fmt::Debug for EvalContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalContext")
            .field("trial_id", &self.trial_id)
            .field("attempt", &self.attempt)
            .field("point", &self.point)
            .field("eval_dir", &self.eval_dir)
            .field("traced", &self.tracer.is_some())
            .finish()
    }
}

/// Phase III output: everything needed to reproduce the optimization.
#[derive(Debug, Clone)]
pub struct OptimizationSummary {
    /// The Phase I problem definition (echoed back).
    pub conf: OptimizationConf,
    /// Seed that drove sampling, the surrogate and the search.
    pub seed: u64,
    /// Full trial-by-trial results.
    pub analysis: Analysis,
    /// Best configuration found.
    pub best_point: Option<Point>,
    /// Its metric value.
    pub best_value: Option<f64>,
    /// Records this process appended to the run journal (0 without one).
    pub journal_appended: u64,
}

impl OptimizationSummary {
    /// Render the summary of computations (the report Phase III prints).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("optimization: {}\n", self.conf.name));
        out.push_str(&format!(
            "objective: {} {}\n",
            if self.conf.minimize {
                "minimize"
            } else {
                "maximize"
            },
            self.conf.metric
        ));
        out.push_str("variables:\n");
        for v in &self.conf.variables {
            out.push_str(&format!("  {} in [{}, {}]\n", v.name, v.lo, v.hi));
        }
        out.push_str(&format!(
            "search: algo={} n_initial_points={} initial_point_generator={} acq_func={}\n",
            self.conf.algo.name(),
            self.conf.n_initial_points,
            self.conf.initial_point_generator.name(),
            self.conf.acq_func.name()
        ));
        out.push_str(&format!(
            "budget: num_samples={} max_concurrent={} seed={}\n",
            self.conf.num_samples, self.conf.max_concurrent, self.seed
        ));
        if let Some(ft) = &self.conf.fault_tolerance {
            out.push_str(&format!(
                "fault_tolerance: max_retries={} backoff_ms={} backoff_factor={} jitter={} time_budget_ms={}\n",
                ft.max_retries,
                ft.backoff_ms,
                ft.backoff_factor,
                ft.jitter,
                ft.time_budget_ms
                    .map(|ms| ms.to_string())
                    .unwrap_or_else(|| "unlimited".to_string())
            ));
        }
        let failed = self
            .analysis
            .trials()
            .iter()
            .filter(|t| t.status.failure().is_some())
            .count();
        let retries: u32 = self.analysis.trials().iter().map(|t| t.retries()).sum();
        out.push_str(&format!(
            "evaluations: {} ({} stopped early, {} failed, {} retries)\n",
            self.analysis.trials().len(),
            self.analysis.stopped_early_count(),
            failed,
            retries
        ));
        match (&self.best_point, self.best_value) {
            (Some(p), Some(v)) => {
                out.push_str("best configuration:\n");
                for (name, val) in self.conf.variables.iter().zip(p) {
                    out.push_str(&format!("  {} = {}\n", name.name, val));
                }
                out.push_str(&format!("best {} = {:.4}\n", self.conf.metric, v));
            }
            _ => out.push_str("no successful evaluation\n"),
        }
        out
    }

    /// Write the full reproducibility archive into `dir`.
    pub fn write_archive(&self, dir: &Path) -> std::io::Result<()> {
        archive::write_summary(self, dir)
    }
}

/// Drives the optimization cycle for a Phase I problem definition.
pub struct OptimizationManager {
    conf: OptimizationConf,
    seed: u64,
    archive_root: Option<PathBuf>,
    faults: FaultPlan,
    tracer: Option<e2c_trace::Tracer>,
    journal: Option<JournalConfig>,
    farm: Option<e2c_tune::FarmSpec>,
    aux_hook: Option<AuxHook>,
}

/// Artifact hook for farmed runs: receives the auxiliary key/value pairs
/// a worker shipped with its result, in place of the side effects the
/// in-process objective would have performed itself.
pub type AuxHook = Arc<dyn Fn(&EvalContext, &[(String, String)]) + Send + Sync>;

impl OptimizationManager {
    /// Manager for a problem definition (seed 0, FIFO scheduling, no
    /// archive directory, no injected faults).
    pub fn new(conf: OptimizationConf) -> Self {
        OptimizationManager {
            conf,
            seed: 0,
            archive_root: None,
            faults: FaultPlan::new(),
            tracer: None,
            journal: None,
            farm: None,
            aux_hook: None,
        }
    }

    /// Set the experiment seed (reproducibility: same seed ⇒ same cycle).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable per-evaluation directories and the Phase III archive under
    /// `root`.
    pub fn with_archive(mut self, root: PathBuf) -> Self {
        self.archive_root = Some(root);
        self
    }

    /// Inject deterministic trial faults (tests and the `--faults` CLI
    /// knob); the retry layer then exercises exactly the configured
    /// failure sequence.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Attach a tracer: the tuner records the worker lifecycle, every
    /// scheduler decision is logged through a
    /// [`e2c_tune::TracingScheduler`] wrapper, and the cycle emits an
    /// objective-value distribution event (raw values — non-finite
    /// observations from crashed evaluations are counted, not fatal).
    pub fn with_trace(mut self, tracer: e2c_trace::Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Enable the crash-safety journal: every searcher/scheduler decision
    /// and attempt outcome is write-ahead logged under
    /// [`JournalConfig::dir`] in canonical commit order (trials execute on
    /// up to `max_concurrent` workers, but their effects commit by
    /// ask-index), and `resume` continues an interrupted run to the
    /// byte-identical artifacts of an uninterrupted one at any
    /// concurrency.
    pub fn with_journal(mut self, journal: JournalConfig) -> Self {
        self.journal = Some(journal);
        self
    }

    /// Execute evaluations in a farm of worker processes instead of in
    /// process: the manager spawns `spec.workers` copies of the worker
    /// command, streams asks to them, and supervises crashes, hangs and
    /// protocol garbage (respawn with seeded backoff; transparent ask
    /// re-dispatch; typed `WorkerLost` failures once the budget is
    /// spent). Every decision stays in this process, so artifacts are
    /// byte-identical to an in-process run at any worker count — which
    /// is also why the process count is *not* part of the journal
    /// fingerprint.
    pub fn with_farm(mut self, spec: e2c_tune::FarmSpec) -> Self {
        self.farm = Some(spec);
        self
    }

    /// Install the artifact hook farmed runs call with each successful
    /// evaluation's auxiliary pairs (see [`AuxHook`]). Ignored without
    /// [`OptimizationManager::with_farm`].
    pub fn with_aux_hook(mut self, hook: AuxHook) -> Self {
        self.aux_hook = Some(hook);
        self
    }

    /// Build the search space from the configured variables.
    pub fn space(&self) -> Space {
        let mut space = Space::new();
        for v in &self.conf.variables {
            space = match v.kind {
                VarKind::Int => space.int(&v.name, v.lo as i64, v.hi as i64),
                VarKind::Real => space.real(&v.name, v.lo, v.hi),
            };
        }
        space
    }

    fn build_searcher(&self, space: Space) -> Box<dyn Searcher> {
        let limited = self.conf.max_concurrent;
        match self.conf.algo {
            SearchAlgo::Random => Box::new(ConcurrencyLimiter::new(
                RandomSearch::new(space, self.seed),
                limited,
            )),
            SearchAlgo::Grid => Box::new(ConcurrencyLimiter::new(
                GridSearch::factorial(space, self.conf.num_samples, self.seed),
                limited,
            )),
            // §III-B2: evolutionary search for short-running applications.
            // The population is sized so the budget covers a few
            // generations.
            SearchAlgo::Evolution => {
                let pop = (self.conf.num_samples / 4).clamp(4, 40);
                Box::new(ConcurrencyLimiter::new(
                    e2c_tune::EvolutionSearch::new(space, pop, self.seed),
                    limited,
                ))
            }
            SearchAlgo::Surrogate(name) => {
                let opt = BayesOpt::new(space, self.seed)
                    .base_estimator(surrogate_kind(name))
                    .acq_func(acquisition(self.conf.acq_func))
                    .initial_point_generator(initial_design(self.conf.initial_point_generator))
                    .n_initial_points(self.conf.n_initial_points);
                Box::new(ConcurrencyLimiter::new(SkOptSearch::new(opt), limited))
            }
        }
    }

    /// Configuration fingerprint recorded in (and verified against) the
    /// journal's meta record. Everything that shapes the decision
    /// sequence is folded in; resuming under a different configuration is
    /// refused before any state is touched.
    fn fingerprint(&self, jc: &JournalConfig) -> String {
        format!(
            "{}seed={}\ntraced={}\narchived={}\nextra={}",
            archive::problem_to_value(&self.conf).to_yaml(),
            self.seed,
            self.tracer.is_some(),
            self.archive_root.is_some(),
            jc.extra_fingerprint
        )
    }

    /// Prepare the journal (fresh or resumed) and, when resuming, replay
    /// it: the searcher and scheduler are re-driven through every
    /// journaled decision, and the trace stream is truncated back to the
    /// last settled trial's mark.
    fn prepare_journal(
        &self,
        searcher: &mut dyn Searcher,
        mode: Mode,
    ) -> Result<(Option<RunJournal>, ResumeState), RunError> {
        let Some(jc) = &self.journal else {
            return Ok((None, ResumeState::empty()));
        };
        let fingerprint = self.fingerprint(jc);
        let wal_path = jc.dir.join("run.wal");
        let mut resume_state = ResumeState::empty();
        let journal = if jc.resume {
            let (wal, records) = e2c_journal::Wal::open(&wal_path).map_err(|e| {
                RunError::Resume(format!("--resume: open {}: {e}", wal_path.display()))
            })?;
            let events: Vec<RunEvent> = records
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    let line = std::str::from_utf8(r)
                        .map_err(|e| format!("journal record {i}: not UTF-8: {e}"))?;
                    RunEvent::parse(line).map_err(|e| format!("journal record {i}: {e}"))
                })
                .collect::<Result<_, _>>()
                .map_err(RunError::Resume)?;
            let journal = RunJournal::new(wal, jc.crash_after);
            if events.is_empty() {
                // The crash hit before the meta record landed: nothing to
                // replay, start over on the same (now truncated) log.
                journal.append(&RunEvent::meta(fingerprint));
            } else {
                match &events[0] {
                    RunEvent::Meta { fingerprint: f, .. } if *f == fingerprint => {}
                    RunEvent::Meta { .. } => {
                        return Err(RunError::Resume(
                            "--resume: the journal was recorded with a different \
                             configuration or seed — refusing to continue it"
                                .to_string(),
                        ))
                    }
                    _ => {
                        return Err(RunError::Resume(
                            "--resume: journal does not start with a meta record".to_string(),
                        ))
                    }
                }
                resume_state =
                    e2c_tune::replay(&events, searcher, &Fifo, mode).map_err(RunError::Resume)?;
            }
            journal
        } else {
            if wal_path.exists() {
                return Err(RunError::Journal(format!(
                    "--journal: {} already holds a run journal — use --resume to continue it",
                    wal_path.display()
                )));
            }
            let wal = e2c_journal::Wal::create(&wal_path).map_err(|e| {
                RunError::Journal(format!("--journal: create {}: {e}", wal_path.display()))
            })?;
            let journal = RunJournal::new(wal, jc.crash_after);
            journal.append(&RunEvent::meta(fingerprint));
            journal
        };
        if let Some(tr) = &self.tracer {
            let stream_path = jc.dir.join("trace.stream.jsonl");
            if jc.resume {
                let (events, _torn) = if stream_path.is_file() {
                    e2c_trace::load_jsonl_tolerant(&stream_path).map_err(RunError::Resume)?
                } else {
                    (Vec::new(), false)
                };
                let (keep, vt) = match resume_state.trace_mark {
                    Some((n, vt)) => {
                        if (events.len() as u64) < n {
                            return Err(RunError::Resume(format!(
                                "--resume: trace stream {} holds {} events but the journal \
                                 marks {n} — the stream does not belong to this journal",
                                stream_path.display(),
                                events.len()
                            )));
                        }
                        (events[..n as usize].to_vec(), vt)
                    }
                    None => (Vec::new(), 0),
                };
                // Rewrite the stream to exactly the kept prefix: events
                // after the last settled trial are regenerated live.
                let mut text = String::with_capacity(keep.len() * 96);
                for e in &keep {
                    text.push_str(&e.to_json());
                    text.push('\n');
                }
                e2c_journal::write_atomic(&stream_path, text.as_bytes()).map_err(|e| {
                    RunError::Resume(format!("--resume: rewrite {}: {e}", stream_path.display()))
                })?;
                tr.restore(keep, vt);
            }
            tr.stream_to(&stream_path).map_err(|e| {
                RunError::Trace(format!("stream trace to {}: {e}", stream_path.display()))
            })?;
        }
        Ok((Some(journal), resume_state))
    }

    /// Run the optimization cycle: the objective is evaluated in parallel
    /// (up to `max_concurrent` at once); each completed evaluation
    /// retrains the model asynchronously and reconfigures the next
    /// deployment. Returns the Phase III summary (and writes the archive
    /// if a root was configured). Journal, resume, trace-stream and
    /// archive failures surface as a typed [`RunError`] instead of a
    /// panic.
    pub fn run<F>(&self, objective: F) -> Result<OptimizationSummary, RunError>
    where
        F: Fn(&EvalContext) -> f64 + Send + Sync,
    {
        let space = self.space();
        let mut searcher = self.build_searcher(space);
        let mode = if self.conf.minimize {
            Mode::Min
        } else {
            Mode::Max
        };
        let (run_journal, resume_state) = self.prepare_journal(searcher.as_mut(), mode)?;
        let already_complete = resume_state.complete;
        let mut tuner = Tuner::new(self.conf.num_samples, self.conf.max_concurrent, mode)
            .metric(&self.conf.metric)
            .name(&self.conf.name)
            .seed(self.seed)
            .faults(self.faults.clone());
        if let Some(ft) = &self.conf.fault_tolerance {
            tuner = tuner.retry_policy(
                RetryPolicy::retries(ft.max_retries)
                    .base_delay(Duration::from_millis(ft.backoff_ms))
                    .factor(ft.backoff_factor)
                    .max_delay(Duration::from_millis(ft.max_backoff_ms))
                    .jitter(ft.jitter),
            );
            if let Some(ms) = ft.time_budget_ms {
                tuner = tuner.time_budget(Duration::from_millis(ms));
            }
        }
        let scheduler: Arc<dyn Scheduler> = match &self.tracer {
            Some(tr) => {
                tuner = tuner.trace(tr.clone());
                Arc::new(e2c_tune::TracingScheduler::new(Arc::new(Fifo), tr.clone()))
            }
            None => Arc::new(Fifo),
        };
        if let Some(tr) = &self.tracer {
            // On resume the restored trace already opens with this event;
            // re-emitting it would shift every sequence number.
            if tr.is_empty() {
                tr.point(
                    "cycle",
                    "start",
                    None,
                    e2c_trace::fields([
                        ("name", self.conf.name.as_str().into()),
                        ("num_samples", self.conf.num_samples.into()),
                        ("max_concurrent", self.conf.max_concurrent.into()),
                        ("seed", self.seed.into()),
                    ]),
                );
            }
        }
        if let Some(j) = &run_journal {
            tuner = tuner.journal(j.clone());
        }
        tuner = tuner.resume(resume_state);
        let archive_root = self.archive_root.clone();
        // Farmed execution: spawn the worker processes up front; a farm
        // that cannot start at all is a run error, not a trial failure.
        let farm = match &self.farm {
            Some(spec) => Some(Arc::new(
                e2c_tune::WorkerFarm::launch(spec.clone())
                    .map_err(|e| RunError::Farm(format!("--workers: {e}")))?,
            )),
            None => None,
        };
        let aux_hook = self.aux_hook.clone();
        let analysis = tuner.run(searcher, scheduler, move |point, tctx| {
            // prepare(): a dedicated directory per model evaluation.
            let eval_dir = archive_root.as_ref().map(|root| {
                let dir = root.join("evals").join(format!("trial_{}", tctx.trial_id));
                std::fs::create_dir_all(&dir).expect("create evaluation directory");
                dir
            });
            let ctx = EvalContext {
                trial_id: tctx.trial_id,
                attempt: tctx.attempt,
                point: point.clone(),
                eval_dir: eval_dir.clone(),
                tracer: tctx.tracer().cloned(),
            };
            // launch(): deploy + execute the user workload — in process,
            // or shipped to a farm worker. Either way the tuner sees
            // exactly what an in-process run would: returns classify
            // identically, worker panics re-raise with their original
            // payload, and only infrastructure failures (a lost worker
            // past the re-dispatch budget) take the typed abort path.
            let value = match &farm {
                Some(farm) => {
                    match farm.execute(tctx.trial_id, tctx.attempt, point, tctx.tracer()) {
                        Ok(e2c_tune::FarmOutcome::Value { value, aux }) => {
                            if let Some(hook) = &aux_hook {
                                hook(&ctx, &aux);
                            }
                            value
                        }
                        Ok(e2c_tune::FarmOutcome::Panicked { payload }) => {
                            std::panic::panic_any(payload)
                        }
                        Err(error) => {
                            // No evaluation record: the objective never
                            // produced a value to archive.
                            return tctx.fail_attempt(error);
                        }
                    }
                }
                None => objective(&ctx),
            };
            // finalize(): record this evaluation's computations.
            if let Some(dir) = eval_dir {
                let _ = archive::write_evaluation(&dir, tctx.trial_id, point, value);
            }
            value
        });
        if let Some(j) = &run_journal {
            if !already_complete {
                j.append(&RunEvent::Complete);
            }
        }
        if let Some(tr) = &self.tracer {
            // Distribution of raw objective values over the cycle, fed
            // from the attempt records in canonical order (trial id, then
            // attempt index) so the event is identical under any worker
            // interleaving — and across crash-resume, because the journal
            // carries every raw value.  Crashed evaluations report NaN;
            // the histogram counts them in its `nonfinite` bucket instead
            // of aborting (the bug this layer exists to observe).
            let mut h = e2c_metrics::Histogram::new(0.0, 1e4, 1000);
            for t in analysis.trials() {
                for a in &t.attempts {
                    if let Some(raw) = a.raw {
                        h.record(raw);
                    }
                }
            }
            let pct = |q| h.quantile(q).unwrap_or(f64::NAN);
            tr.point(
                "cycle",
                "objective_distribution",
                None,
                e2c_trace::fields([
                    ("count", h.count().into()),
                    ("nonfinite", h.nonfinite().into()),
                    ("mean", h.mean().into()),
                    ("p50", pct(0.50).into()),
                    ("p95", pct(0.95).into()),
                    ("p99", pct(0.99).into()),
                ]),
            );
        }
        let best = analysis.best_trial().map(|t| (t.config.clone(), t.value()));
        let summary = OptimizationSummary {
            conf: self.conf.clone(),
            seed: self.seed,
            best_point: best.as_ref().map(|(p, _)| p.clone()),
            best_value: best.and_then(|(_, v)| v),
            analysis,
            journal_appended: run_journal.as_ref().map_or(0, |j| j.appended()),
        };
        if let Some(root) = &self.archive_root {
            summary
                .write_archive(root)
                .map_err(|e| RunError::Archive(format!("write optimization archive: {e}")))?;
            // Trial log (JSONL + per-trial progress): the "checkpoints and
            // logging" half of the Phase III story.  Rewritten whole (and
            // atomically) so a resumed run converges on the same bytes as
            // an uninterrupted one.
            let logger = e2c_tune::TrialLogger::new(&root.join("trials"))
                .map_err(|e| RunError::Archive(format!("create trial log directory: {e}")))?;
            logger
                .write_all(summary.analysis.trials())
                .map_err(|e| RunError::Archive(format!("write trial log: {e}")))?;
        }
        Ok(summary)
    }
}

/// Map the schema's surrogate name onto the optimizer's model kind. The
/// match is exhaustive on both sides: adding a surrogate to either crate
/// without teaching the other is a compile error, not a silent fallback.
fn surrogate_kind(name: SurrogateName) -> SurrogateKind {
    match name {
        SurrogateName::ExtraTrees => SurrogateKind::ExtraTrees,
        SurrogateName::RandomForest => SurrogateKind::RandomForest,
        SurrogateName::Cart => SurrogateKind::Cart,
        SurrogateName::Gbrt => SurrogateKind::Gbrt,
        SurrogateName::Gp => SurrogateKind::GpRbf,
        SurrogateName::GpMatern => SurrogateKind::GpMatern,
        SurrogateName::KernelRidge => SurrogateKind::KernelRidge,
        SurrogateName::Poly => SurrogateKind::Polynomial,
    }
}

/// Map the schema's acquisition function onto the optimizer's (skopt's
/// default LCB exploration weight).
fn acquisition(acq: AcqFunc) -> Acquisition {
    match acq {
        AcqFunc::Ei => Acquisition::Ei,
        AcqFunc::Pi => Acquisition::Pi,
        AcqFunc::Lcb => Acquisition::Lcb { kappa: 1.96 },
        AcqFunc::GpHedge => Acquisition::GpHedge,
    }
}

/// Map the schema's initial point generator onto the optimizer's design.
fn initial_design(ipg: InitialPointGenerator) -> InitialDesign {
    match ipg {
        InitialPointGenerator::Random => InitialDesign::Random,
        InitialPointGenerator::Lhs => InitialDesign::Lhs,
        InitialPointGenerator::Halton => InitialDesign::Halton,
        InitialPointGenerator::Sobol => InitialDesign::Sobol,
        InitialPointGenerator::Grid => InitialDesign::Grid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2c_conf::parse;
    use e2c_conf::schema::{ExperimentConf, FaultToleranceConf};

    fn opt_conf(algo: &str, samples: usize) -> OptimizationConf {
        let src = format!(
            r#"
name: test-opt
optimization:
  metric: loss
  mode: min
  name: test-opt
  num_samples: {samples}
  max_concurrent: 2
  search:
    algo: {algo}
    n_initial_points: 6
    initial_point_generator: lhs
    acq_func: ei
  config:
    - name: x
      type: randint
      bounds: [0, 30]
    - name: y
      type: uniform
      bounds: [0.0, 1.0]
"#
        );
        ExperimentConf::from_value(&parse(&src).unwrap())
            .unwrap()
            .optimization
            .unwrap()
    }

    fn objective(ctx: &EvalContext) -> f64 {
        (ctx.point[0] - 12.0).powi(2) + (ctx.point[1] - 0.5).powi(2) * 100.0
    }

    #[test]
    fn space_built_from_variables() {
        let mgr = OptimizationManager::new(opt_conf("extra_trees", 5));
        let space = mgr.space();
        assert_eq!(space.len(), 2);
        assert_eq!(space.names(), &["x".to_string(), "y".to_string()]);
        assert!(space.contains(&[30.0, 1.0]));
        assert!(!space.contains(&[31.0, 1.0]));
    }

    #[test]
    fn bayesian_cycle_finds_good_configuration() {
        // Sequential cycle for the quality threshold: with concurrent
        // evaluation each suggestion trains on a lagged model (asks run
        // ahead of tells by the worker window) — deterministic now, but
        // measurably weaker on this budget. Concurrent determinism is
        // covered by `same_seed_reproduces_the_cycle`.
        let mut conf = opt_conf("extra_trees", 30);
        conf.max_concurrent = 1;
        let mgr = OptimizationManager::new(conf).with_seed(3);
        let summary = mgr.run(objective).unwrap();
        assert_eq!(summary.analysis.trials().len(), 30);
        let best = summary.best_value.unwrap();
        assert!(best < 8.0, "best {best}");
        let report = summary.render();
        assert!(report.contains("minimize loss"));
        assert!(report.contains("algo=extra_trees"));
        assert!(report.contains("best loss"));
    }

    #[test]
    fn random_algo_also_works() {
        let mgr = OptimizationManager::new(opt_conf("random", 20)).with_seed(1);
        let summary = mgr.run(objective).unwrap();
        assert_eq!(summary.analysis.trials().len(), 20);
        assert!(summary.best_value.is_some());
    }

    #[test]
    fn genetic_algorithm_route_works() {
        let mgr = OptimizationManager::new(opt_conf("genetic_algorithm", 40)).with_seed(8);
        let summary = mgr.run(objective).unwrap();
        assert_eq!(summary.analysis.trials().len(), 40);
        assert!(
            summary.best_value.expect("successful trials") < 30.0,
            "GA found {:?}",
            summary.best_value
        );
    }

    #[test]
    fn same_seed_reproduces_the_cycle() {
        // Bit-exact replay holds under concurrent evaluation too: the
        // commit sequencer drives suggest/observe in canonical ask order,
        // so thread interleaving cannot leak into the suggestion sequence.
        let run = |seed| {
            OptimizationManager::new(opt_conf("extra_trees", 12))
                .with_seed(seed)
                .run(objective)
                .unwrap()
        };
        let a = run(9);
        let b = run(9);
        assert_eq!(a.best_point, b.best_point);
        assert_eq!(a.best_value, b.best_value);
        let configs_a: Vec<_> = a
            .analysis
            .trials()
            .iter()
            .map(|t| t.config.clone())
            .collect();
        let configs_b: Vec<_> = b
            .analysis
            .trials()
            .iter()
            .map(|t| t.config.clone())
            .collect();
        assert_eq!(configs_a, configs_b);
    }

    /// opt_conf + a fast fault-tolerance block (1 ms backoff).
    fn ft_conf(algo: &str, samples: usize, retries: u32) -> OptimizationConf {
        let mut conf = opt_conf(algo, samples);
        conf.fault_tolerance = Some(FaultToleranceConf {
            max_retries: retries,
            backoff_ms: 1,
            max_backoff_ms: 2,
            ..Default::default()
        });
        conf
    }

    #[test]
    fn flaky_trial_recovers_and_archive_records_both_attempts() {
        let dir = std::env::temp_dir().join(format!(
            "e2clab-test-faults-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mgr = OptimizationManager::new(ft_conf("random", 6, 1))
            .with_seed(4)
            .with_archive(dir.clone())
            .with_faults(e2c_tune::FaultPlan::new().fail(2, 0));
        let summary = mgr.run(objective).unwrap();

        // The injected failure was retried: trial 2 ends terminated with
        // its true metric, not a penalty.
        let flaky = &summary.analysis.trials()[2];
        assert!(
            matches!(flaky.status, e2c_tune::TrialStatus::Terminated(_)),
            "{:?}",
            flaky.status
        );
        assert_eq!(flaky.attempt_count(), 2);
        assert_eq!(flaky.value(), Some(objective_value(&flaky.config)));

        // Both attempts land in evaluations.csv ...
        let recs = crate::archive::load_evaluation_records(&dir).unwrap();
        assert_eq!(recs[2].attempts, 2);
        assert_eq!(recs[2].status, "terminated");
        assert_eq!(recs[2].failure, "");
        assert!(recs
            .iter()
            .filter(|r| r.trial != 2)
            .all(|r| r.attempts == 1));

        // ... and in the JSONL trial log.
        let jsonl = std::fs::read_to_string(dir.join("trials").join("trials.jsonl")).unwrap();
        let line = jsonl.lines().find(|l| l.contains("\"id\":2")).unwrap();
        assert!(line.contains("\"attempts\":2"), "{line}");
        assert!(line.contains("injected fault"), "{line}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn objective_value(point: &Point) -> f64 {
        (point[0] - 12.0).powi(2) + (point[1] - 0.5).powi(2) * 100.0
    }

    #[test]
    fn exhausted_retries_surface_as_failed_with_reason() {
        let dir = std::env::temp_dir().join(format!(
            "e2clab-test-faults-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mgr = OptimizationManager::new(ft_conf("random", 4, 1))
            .with_seed(5)
            .with_archive(dir.clone())
            .with_faults(e2c_tune::FaultPlan::new().fail_always(0));
        let summary = mgr.run(objective).unwrap();
        let doomed = &summary.analysis.trials()[0];
        assert!(doomed.status.failure().unwrap().contains("injected fault"));
        assert_eq!(doomed.attempt_count(), 2, "1 attempt + 1 retry");
        let recs = crate::archive::load_evaluation_records(&dir).unwrap();
        assert_eq!(recs[0].status, "failed");
        assert_eq!(recs[0].attempts, 2);
        assert!(recs[0].failure.contains("injected fault"));
        assert!(recs[0].value.is_none());
        // The report counts the failure and the retry.
        let report = summary.render();
        assert!(report.contains("1 failed, 1 retries"), "{report}");
        assert!(
            report.contains("fault_tolerance: max_retries=1"),
            "{report}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn time_budget_fails_overrunning_evaluations() {
        let mut conf = ft_conf("random", 3, 0);
        conf.fault_tolerance.as_mut().unwrap().time_budget_ms = Some(20);
        conf.max_concurrent = 1;
        let mgr = OptimizationManager::new(conf).with_seed(6);
        let summary = mgr
            .run(|ctx: &EvalContext| {
                if ctx.trial_id == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(60));
                }
                objective_value(&ctx.point)
            })
            .unwrap();
        assert_eq!(
            summary.analysis.trials()[1].status.failure(),
            Some("deadline exceeded")
        );
        // The other trials were unaffected.
        assert!(summary.analysis.trials()[0].value().is_some());
        assert!(summary.analysis.trials()[2].value().is_some());
    }

    #[test]
    fn attempt_number_is_visible_to_the_objective() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let seen_retry = AtomicU32::new(0);
        let mut conf = ft_conf("random", 3, 2);
        conf.max_concurrent = 1;
        let mgr = OptimizationManager::new(conf)
            .with_seed(7)
            .with_faults(e2c_tune::FaultPlan::new().fail(1, 0));
        let summary = mgr
            .run(|ctx: &EvalContext| {
                if ctx.trial_id == 1 && ctx.attempt > 0 {
                    seen_retry.fetch_add(1, Ordering::SeqCst);
                }
                objective_value(&ctx.point)
            })
            .unwrap();
        assert_eq!(seen_retry.load(Ordering::SeqCst), 1);
        assert!(summary.analysis.trials()[1].value().is_some());
    }

    #[test]
    fn traced_cycle_survives_nan_observations() {
        // Regression: a Crash-style evaluation returns NaN; the traced
        // cycle's observed-value histogram must bucket it (pre-fix,
        // `Histogram::record` asserted `is_finite` and aborted the run).
        let tracer = e2c_trace::Tracer::new();
        let mgr = OptimizationManager::new(ft_conf("random", 5, 0))
            .with_seed(11)
            .with_trace(tracer.clone());
        let summary = mgr
            .run(|ctx: &EvalContext| {
                if ctx.trial_id == 2 {
                    f64::NAN // a crashed engine's poisoned response mean
                } else {
                    objective_value(&ctx.point)
                }
            })
            .unwrap();
        assert_eq!(summary.analysis.trials().len(), 5);
        assert!(summary.best_value.is_some());
        let dist = tracer
            .snapshot()
            .into_iter()
            .find(|e| e.phase == "cycle" && e.name == "objective_distribution")
            .expect("cycle distribution event");
        assert_eq!(dist.fields["nonfinite"].as_u64(), Some(1));
        assert_eq!(dist.fields["count"].as_u64(), Some(4));
        assert!(dist.fields["mean"].as_f64().unwrap().is_finite());
    }

    #[test]
    fn traced_cycle_replays_byte_identically() {
        let run = || {
            let tracer = e2c_trace::Tracer::new();
            OptimizationManager::new(opt_conf("extra_trees", 8))
                .with_seed(9)
                .with_trace(tracer.clone())
                .run(objective)
                .unwrap();
            tracer.to_jsonl()
        };
        let a = run();
        let b = run();
        assert!(!a.is_empty());
        assert_eq!(
            a, b,
            "concurrent traced cycles must replay byte-identically"
        );
    }

    #[test]
    fn archive_written_when_enabled() {
        let dir = std::env::temp_dir().join(format!(
            "e2clab-test-archive-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mgr = OptimizationManager::new(opt_conf("extra_trees", 8))
            .with_seed(2)
            .with_archive(dir.clone());
        let summary = mgr.run(objective).unwrap();
        assert!(dir.join("problem.yaml").is_file());
        assert!(dir.join("evaluations.csv").is_file());
        assert!(dir.join("summary.txt").is_file());
        assert!(dir.join("best.yaml").is_file());
        // One directory per evaluation (prepare()).
        for t in summary.analysis.trials() {
            assert!(dir.join("evals").join(format!("trial_{}", t.id)).is_dir());
        }
        let evals = crate::archive::load_evaluations(&dir).unwrap();
        assert_eq!(evals.len(), 8);
        // The trial log mirrors the analysis.
        let log = e2c_tune::TrialLogger::new(&dir.join("trials")).unwrap();
        let index = log.load_index().unwrap();
        assert_eq!(index.len(), 8);
        assert!(index.iter().all(|(_, status, _)| status == "terminated"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn tmp(label: &str, line: u32) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("e2clab-test-{label}-{}-{line}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn journaled_conf() -> OptimizationConf {
        // max_concurrent stays at the conf's 2: byte-identity holds at any
        // concurrency, so the prefix-resume sweep cuts journals with two
        // trials in the commit window.
        ft_conf("random", 6, 1)
    }

    fn read(path: &std::path::Path) -> String {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    }

    /// Baseline artifacts from an unjournaled run with the same conf/seed.
    fn baseline_artifacts(root: &std::path::Path) -> (String, String, String) {
        let tracer = e2c_trace::Tracer::new();
        OptimizationManager::new(journaled_conf())
            .with_seed(13)
            .with_archive(root.to_path_buf())
            .with_trace(tracer.clone())
            .with_faults(e2c_tune::FaultPlan::new().fail(2, 0))
            .run(objective)
            .unwrap();
        (
            read(&root.join("evaluations.csv")),
            read(&root.join("trials").join("trials.jsonl")),
            tracer.to_jsonl(),
        )
    }

    #[test]
    fn journaled_run_matches_baseline_and_resume_after_complete_is_a_noop() {
        let base = tmp("journal-base", line!());
        let dir = tmp("journal-run", line!());
        let (want_evals, want_trials, want_trace) = baseline_artifacts(&base);

        // Journaled run: artifacts must match the unjournaled baseline.
        let tracer = e2c_trace::Tracer::new();
        OptimizationManager::new(journaled_conf())
            .with_seed(13)
            .with_archive(dir.clone())
            .with_trace(tracer.clone())
            .with_faults(e2c_tune::FaultPlan::new().fail(2, 0))
            .with_journal(JournalConfig::fresh(dir.join("journal")))
            .run(objective)
            .unwrap();
        assert_eq!(read(&dir.join("evaluations.csv")), want_evals);
        assert_eq!(read(&dir.join("trials").join("trials.jsonl")), want_trials);
        assert_eq!(tracer.to_jsonl(), want_trace);

        // A fresh journal refuses to overwrite an existing one.
        let err = OptimizationManager::new(journaled_conf())
            .with_seed(13)
            .with_journal(JournalConfig::fresh(dir.join("journal")))
            .run(objective)
            .unwrap_err();
        assert!(matches!(err, RunError::Journal(_)), "{err:?}");
        assert!(err.to_string().contains("--resume"), "{err}");

        // Resuming a completed run re-executes nothing and converges on
        // the same bytes.
        let tracer = e2c_trace::Tracer::new();
        OptimizationManager::new(journaled_conf())
            .with_seed(13)
            .with_archive(dir.clone())
            .with_trace(tracer.clone())
            .with_faults(e2c_tune::FaultPlan::new().fail(2, 0))
            .with_journal(JournalConfig::resume(dir.join("journal")))
            .run(objective)
            .unwrap();
        assert_eq!(read(&dir.join("evaluations.csv")), want_evals);
        assert_eq!(read(&dir.join("trials").join("trials.jsonl")), want_trials);
        assert_eq!(tracer.to_jsonl(), want_trace);
        assert_eq!(
            read(&dir.join("journal").join("trace.stream.jsonl")),
            want_trace
        );

        std::fs::remove_dir_all(&base).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_from_every_journal_prefix_reproduces_the_baseline() {
        let base = tmp("prefix-base", line!());
        let dir = tmp("prefix-run", line!());
        let (want_evals, want_trials, want_trace) = baseline_artifacts(&base);

        // Record a complete journaled run, then replay resume from every
        // truncation point — as if the process had died mid-append.
        let tracer = e2c_trace::Tracer::new();
        OptimizationManager::new(journaled_conf())
            .with_seed(13)
            .with_archive(dir.clone())
            .with_trace(tracer.clone())
            .with_faults(e2c_tune::FaultPlan::new().fail(2, 0))
            .with_journal(JournalConfig::fresh(dir.join("journal")))
            .run(objective)
            .unwrap();
        let full_wal = e2c_journal::read_records(&dir.join("journal").join("run.wal")).unwrap();
        let full_stream = read(&dir.join("journal").join("trace.stream.jsonl"));
        assert!(full_wal.len() > 10, "{} records", full_wal.len());

        for cut in 0..full_wal.len() {
            let rdir = tmp("prefix-resume", line!()).join(format!("cut{cut}"));
            let jdir = rdir.join("journal");
            let mut wal = e2c_journal::Wal::create(&jdir.join("run.wal")).unwrap();
            for rec in &full_wal[..cut] {
                wal.append(rec).unwrap();
            }
            drop(wal);
            // The trace stream at crash time held at least the journaled
            // mark; handing resume the full stream exercises truncation.
            std::fs::write(jdir.join("trace.stream.jsonl"), &full_stream).unwrap();
            let tracer = e2c_trace::Tracer::new();
            OptimizationManager::new(journaled_conf())
                .with_seed(13)
                .with_archive(rdir.clone())
                .with_trace(tracer.clone())
                .with_faults(e2c_tune::FaultPlan::new().fail(2, 0))
                .with_journal(JournalConfig::resume(jdir))
                .run(objective)
                .unwrap_or_else(|e| panic!("resume at cut {cut}: {e}"));
            assert_eq!(read(&rdir.join("evaluations.csv")), want_evals, "cut {cut}");
            assert_eq!(
                read(&rdir.join("trials").join("trials.jsonl")),
                want_trials,
                "cut {cut}"
            );
            assert_eq!(tracer.to_jsonl(), want_trace, "cut {cut}");
            std::fs::remove_dir_all(rdir.parent().unwrap()).unwrap();
        }

        std::fs::remove_dir_all(&base).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_under_a_different_seed_or_conf_is_refused() {
        let dir = tmp("journal-mismatch", line!());
        OptimizationManager::new(journaled_conf())
            .with_seed(13)
            .with_journal(JournalConfig::fresh(dir.join("journal")))
            .run(objective)
            .unwrap();

        let err = OptimizationManager::new(journaled_conf())
            .with_seed(14)
            .with_journal(JournalConfig::resume(dir.join("journal")))
            .run(objective)
            .unwrap_err();
        assert!(matches!(err, RunError::Resume(_)), "{err:?}");
        assert!(err.to_string().contains("different configuration"), "{err}");

        let mut conf = journaled_conf();
        conf.num_samples = 9;
        let err = OptimizationManager::new(conf)
            .with_seed(13)
            .with_journal(JournalConfig::resume(dir.join("journal")))
            .run(objective)
            .unwrap_err();
        assert!(matches!(err, RunError::Resume(_)), "{err:?}");
        assert!(err.to_string().contains("different configuration"), "{err}");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
