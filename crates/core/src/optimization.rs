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
use e2c_tune::journal::{OpenError, ResumeState, RunEvent, RunJournal};
use e2c_tune::searcher::{ConcurrencyLimiter, GridSearch, RandomSearch, SkOptSearch};
use e2c_tune::tuner::{Mode, Tuner};
use e2c_tune::{Analysis, Fifo, Searcher, TrialError};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Crash-safety configuration for a journaled run (`--journal` /
/// `--resume` / `--crash-at`).
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding `run.wal`, the run's only durable state: a traced
    /// run's trace rides in its tell records.
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
    /// A resume was refused or failed: fingerprint mismatch, or a corrupt
    /// or divergent journal.
    Resume(String),
    /// The reproducibility archive or trial log could not be written.
    Archive(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (RunError::Journal(msg) | RunError::Resume(msg) | RunError::Archive(msg)) = self;
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
    /// Trace handle for this evaluation. Under concurrent execution this
    /// is a per-trial buffer that the commit sequencer splices into the
    /// run trace in canonical order — objectives that emit trace events
    /// MUST use this handle (never a captured tracer) or their events
    /// land interleaved by wall clock instead of by trial.
    pub tracer: Option<e2c_trace::Tracer>,
    /// What the evaluation hands the attempt record besides its value,
    /// shared by every clone of this context.
    settled: Arc<Mutex<Settled>>,
}

/// The notes an evaluation attached, or the typed error it failed its
/// attempt with.
#[derive(Default)]
struct Settled {
    notes: Vec<(String, f64)>,
    failure: Option<TrialError>,
}

impl EvalContext {
    /// Attach a named value to this evaluation's attempt record. Notes
    /// ride in the run journal (so a resumed run still has them for the
    /// trials it does not re-run) and come back on
    /// `summary.analysis.trials()`; they never reach the archive.
    pub fn note(&self, name: &str, value: f64) {
        self.settle().notes.push((name.to_string(), value));
    }

    /// Fail this attempt with a typed infrastructure error, such as a
    /// worker farm's [`TrialError::WorkerLost`]; the retry layer treats it
    /// like an error raised inside the tuner. The objective returns the
    /// placeholder this gives back, and the attempt records no raw value,
    /// no notes and no evaluation result.
    pub fn fail_attempt(&self, error: TrialError) -> f64 {
        self.settle().failure = Some(error);
        f64::NAN
    }

    fn settle(&self) -> std::sync::MutexGuard<'_, Settled> {
        self.settled.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl std::fmt::Debug for EvalContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalContext")
            .field("trial_id", &self.trial_id)
            .field("attempt", &self.attempt)
            .field("point", &self.point)
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
            "evaluations: {} ({} failed, {} retries)\n",
            self.analysis.trials().len(),
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
}

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

    /// Attach a tracer: the tuner records the worker lifecycle, and the
    /// cycle emits an objective-value distribution event (raw values —
    /// non-finite observations from crashed evaluations are counted, not
    /// fatal).
    pub fn with_trace(mut self, tracer: e2c_trace::Tracer) -> Self {
        self.tracer = Some(tracer);
        self
    }

    /// Enable the crash-safety journal: every searcher decision and
    /// attempt outcome is write-ahead logged under
    /// [`JournalConfig::dir`] in canonical commit order (trials execute on
    /// up to `max_concurrent` workers, but their effects commit by
    /// ask-index), and `resume` continues an interrupted run to the
    /// byte-identical artifacts of an uninterrupted one at any
    /// concurrency.
    pub fn with_journal(mut self, journal: JournalConfig) -> Self {
        self.journal = Some(journal);
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
    /// it: the searcher is re-driven through every journaled decision,
    /// and the tracer is restored to the trace blocks of the settled
    /// trials, its clock at the last tell point.
    fn prepare_journal(
        &self,
        searcher: &mut dyn Searcher,
        mode: Mode,
    ) -> Result<(Option<RunJournal>, ResumeState), RunError> {
        let Some(jc) = &self.journal else {
            return Ok((None, ResumeState::empty()));
        };
        let wal_path = jc.dir.join("run.wal");
        let (flag, refused): (_, fn(String) -> RunError) = if jc.resume {
            ("--resume", RunError::Resume)
        } else {
            ("--journal", RunError::Journal)
        };
        let (journal, events) =
            RunJournal::open(&wal_path, &self.fingerprint(jc), jc.resume, jc.crash_after).map_err(
                |e| match e {
                    OpenError::Mismatch => refused(format!(
                        "{flag}: the journal was recorded with a different configuration \
                         or seed — refusing to continue it"
                    )),
                    OpenError::Refused(why) => refused(format!("{flag}: {why}")),
                },
            )?;
        // A fresh journal hands back no records, and replaying none is
        // the empty state.
        let resume_state =
            e2c_tune::replay(&events, searcher, &Fifo, mode).map_err(RunError::Resume)?;
        if let (Some(tr), Some(last)) = (&self.tracer, resume_state.trace.last()) {
            tr.restore(resume_state.trace.clone(), last.vt);
        }
        Ok((Some(journal), resume_state))
    }

    /// Run the optimization cycle: the objective is evaluated in parallel
    /// (up to `max_concurrent` at once); each completed evaluation
    /// retrains the model asynchronously and reconfigures the next
    /// deployment. Returns the Phase III summary (and writes the archive
    /// if a root was configured). Journal, resume and archive failures
    /// surface as a typed [`RunError`] instead of a panic.
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
        // Fail before the journal opens, not in every trial's prepare step.
        if let Some(root) = &self.archive_root {
            std::fs::create_dir_all(root.join("evals"))
                .map_err(|e| RunError::Archive(format!("--archive {}: {e}", root.display())))?;
        }
        let (run_journal, resume_state) = self.prepare_journal(searcher.as_mut(), mode)?;
        let already_complete = resume_state.complete;
        let mut tuner = Tuner::new(self.conf.num_samples, self.conf.max_concurrent, mode)
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
        if let Some(tr) = &self.tracer {
            tuner = tuner.trace(tr.clone());
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
        let analysis = tuner.run(searcher, move |point, tctx| {
            // prepare(): a dedicated directory per model evaluation.
            let eval_dir = archive_root.as_ref().map(|root| {
                let dir = archive::eval_dir(root, tctx.trial_id);
                std::fs::create_dir_all(&dir).expect("create evaluation directory");
                dir
            });
            let ctx = EvalContext {
                trial_id: tctx.trial_id,
                attempt: tctx.attempt,
                point: point.clone(),
                tracer: tctx.tracer().cloned(),
                settled: Arc::default(),
            };
            // launch(): deploy + execute the user workload.
            let value = objective(&ctx);
            let settled = std::mem::take(&mut *ctx.settle());
            if let Some(error) = settled.failure {
                // No evaluation record: the objective produced no value
                // to archive.
                return tctx.fail_attempt(error);
            }
            for (name, v) in settled.notes {
                tctx.note(name, v);
            }
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
            // The per-trial results are views of the journal: a resumed
            // run renders them again, in case a machine crash lost or
            // tore one that an earlier process wrote.
            if self.journal.as_ref().is_some_and(|jc| jc.resume) {
                archive::write_evaluations(root, summary.analysis.trials())
                    .map_err(|e| RunError::Archive(format!("write evaluation results: {e}")))?;
            }
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

    /// An objective that notes a value, then fails attempt 0 of trial 1
    /// as a lost farm worker would.
    fn losing_objective(ctx: &EvalContext) -> f64 {
        ctx.note("completed", 1.0);
        if ctx.trial_id == 1 && ctx.attempt == 0 {
            return ctx.fail_attempt(TrialError::WorkerLost("worker 0 lost".into()));
        }
        objective(ctx)
    }

    #[test]
    fn a_failed_attempt_records_its_error_and_nothing_else() {
        let dir = tmp("fail-attempt", line!());
        let summary = OptimizationManager::new(ft_conf("random", 3, 1))
            .with_seed(4)
            .with_archive(dir.clone())
            .run(losing_objective)
            .unwrap();
        let lost = &summary.analysis.trials()[1];
        let (first, retry) = (&lost.attempts[0], &lost.attempts[1]);
        assert_eq!(
            first.error,
            Some(TrialError::WorkerLost("worker 0 lost".into()))
        );
        assert_eq!((first.raw, first.notes.len()), (None, 0));
        let value = objective_value(&lost.config);
        assert_eq!((retry.error.as_ref(), retry.raw), (None, Some(value)));
        assert_eq!(retry.notes, [("completed".to_string(), 1.0)]);
        assert_eq!(lost.value(), Some(value));
        // The retry's value is the trial's evaluation record.
        let result = read(&archive::eval_dir(&dir, 1).join("result.csv"));
        assert!(result.ends_with(&format!(",{value}\n")), "{result}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_attempt_without_retries_fails_the_trial() {
        let summary = OptimizationManager::new(ft_conf("random", 3, 0))
            .with_seed(4)
            .run(losing_objective)
            .unwrap();
        let lost = &summary.analysis.trials()[1];
        assert_eq!(lost.status.failure(), Some("worker 0 lost"));
        assert_eq!(lost.attempt_count(), 1);
        assert!(summary.analysis.trials()[0].value().is_some());
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
        // The journal is the run's only durable state.
        let listed: Vec<_> = std::fs::read_dir(dir.join("journal"))
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(listed, ["run.wal"]);

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
        assert!(full_wal.len() > 10, "{} records", full_wal.len());

        for cut in 0..full_wal.len() {
            let rdir = tmp("prefix-resume", line!()).join(format!("cut{cut}"));
            let jdir = rdir.join("journal");
            let mut wal = e2c_journal::Wal::create(&jdir.join("run.wal")).unwrap();
            for rec in &full_wal[..cut] {
                wal.append(rec).unwrap();
            }
            drop(wal);
            // The journal prefix alone carries the trace.
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
}
