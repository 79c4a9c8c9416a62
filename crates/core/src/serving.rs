//! Continuous re-optimization over a replayed seasonal trace — the
//! "serving mode" driver behind `e2clab serve`.
//!
//! The paper optimizes the Pl@ntNet engine for one static workload; this
//! module asks what the framework does when the workload is the *moving*
//! Fig. 2 curve. [`run_serving`] segments a [`serving_schedule`] (the
//! seasonal growth trace scaled to a users/day figure) into load epochs
//! and, for each epoch, re-runs the seeded optimization cycle against an
//! open-loop serving run at that epoch's arrival rate, under an
//! [`OverloadPolicy`] (bounded admission queue, deadline shedding, SLO
//! accounting). The tuned pool configuration therefore *tracks* the
//! seasonal load, and the whole run stays inside the reproducibility
//! story:
//!
//! * every epoch's cycle is an ordinary [`OptimizationManager`] run —
//!   seeded, archivable, journalable — so per-epoch artifacts
//!   (`evaluations.csv`, `best.yaml`, `trials/trials.jsonl`) are
//!   byte-identical across reruns and resumes;
//! * the serving run itself journals into `run.wal` at the journal root:
//!   a meta record with the serve fingerprint, then one
//!   [`RunEvent::Epoch`] per committed epoch holding its *rendered*
//!   `serving.csv` row. A resume replays completed epochs from those
//!   bytes (never re-rendering floats), so the final CSV is
//!   byte-identical whether or not the run was interrupted. Each epoch's
//!   cycle journals into `epoch_NN/run.wal` beside it;
//! * `serving.csv` is rewritten atomically after every epoch and
//!   `trace.jsonl` is rebuilt from the rows at the end, so a crash at
//!   any point leaves only complete artifacts.
//!
//! The per-trial objective is an SLO-aware cost (not the closed-loop
//! response mean): `mean_response + slo · (4·(rejected+shed) +
//! violations) / offered`. Rejections and sheds are weighted like
//! worst-case SLO misses — a config that bounces users is worse than one
//! that serves them slowly.

use crate::optimization::{EvalContext, JournalConfig, OptimizationManager};
use e2c_conf::schema::{
    AcqFunc, InitialPointGenerator, OptimizationConf, SearchAlgo, SurrogateName, VarKind,
    VariableConf,
};
use e2c_des::SimTime;
use e2c_journal::wire::{parse_f64, parse_u32, parse_u64};
use e2c_journal::write_atomic;
use e2c_tune::journal::{OpenError, RunEvent, RunJournal};
use e2c_workload::seasonal::GrowthModel;
use e2c_workload::{serving_schedule, RateSchedule};
use plantnet::sim::ExperimentSpec;
use plantnet::{Experiment as EngineRun, OverloadPolicy, PoolConfig};
use std::path::PathBuf;

/// Everything that shapes a serving run. All knobs fold into the journal
/// fingerprint (except the output paths), so a resume under different
/// parameters is refused instead of silently diverging.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Workload scale in users/day (the paper's Pl@ntNet order of
    /// magnitude is millions).
    pub scale: f64,
    /// Number of trace months to serve (one load epoch per month).
    pub epochs: usize,
    /// Simulated length of each epoch. The trace month's *rate* is
    /// replayed for this long — compressing a month into minutes keeps
    /// the DES tractable while preserving the per-epoch load level.
    pub epoch_duration: SimTime,
    /// Optimization budget per epoch (trials).
    pub samples: usize,
    /// Parallel evaluation cap inside each epoch's cycle.
    pub max_concurrent: usize,
    /// Response-time SLO bound in seconds.
    pub slo: f64,
    /// Admission-queue bound; arrivals beyond it are rejected.
    pub queue_bound: usize,
    /// Shed queued requests older than this (`None`: never shed).
    pub shed_after: Option<SimTime>,
    /// Master seed: epoch seeds and trial seeds derive from it.
    pub seed: u64,
    /// First trace year (epoch 0 is January of this year).
    pub first_year: u32,
    /// Output root: `serving.csv`, `trace.jsonl`, `epochs/epoch_NN/`.
    pub out_dir: PathBuf,
    /// Journal root (`run.wal` + per-epoch `epoch_NN/run.wal`). `None`:
    /// the run is not crash-safe (but still deterministic).
    pub journal_dir: Option<PathBuf>,
    /// Continue a killed run from its journal instead of starting fresh.
    pub resume: bool,
    /// Chaos knob: exit (code 86) after the Nth cycle-journal append of
    /// this process, counted across epochs — kills the run *mid-epoch*.
    pub crash_at: Option<u64>,
    /// Chaos knob: exit (code 86) right after epoch K's row commits —
    /// kills the run *at an epoch boundary*.
    pub crash_at_epoch: Option<usize>,
}

impl ServingConfig {
    /// Paper-flavoured defaults: 2.5M users/day, six monthly epochs of
    /// 180 simulated seconds, 8 trials per epoch, the 4 s SLO.
    pub fn new(out_dir: PathBuf) -> Self {
        ServingConfig {
            scale: 2_500_000.0,
            epochs: 6,
            epoch_duration: SimTime::from_secs(180),
            samples: 8,
            max_concurrent: 2,
            slo: 4.0,
            queue_bound: 64,
            shed_after: Some(SimTime::from_secs(8)),
            seed: 0,
            first_year: 2017,
            out_dir,
            journal_dir: None,
            resume: false,
            crash_at: None,
            crash_at_epoch: None,
        }
    }
}

/// One committed epoch of a serving run: the tuned configuration and the
/// overload accounting of its final evaluation. Serialized as one
/// `serving.csv` row; the journal's epoch record stores the *rendered*
/// row so resumes never re-render (bytes are the source of truth).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRow {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Trace month label (`YYYY-MM`).
    pub label: String,
    /// Offered arrival rate (requests/second).
    pub rate: f64,
    /// Tuned pool configuration.
    pub config: PoolConfig,
    /// Best objective value of the epoch's cycle (NaN when every trial
    /// failed and the baseline config was kept).
    pub cost: f64,
    /// Arrivals offered during the final evaluation.
    pub offered: u64,
    /// Requests that entered service.
    pub admitted: u64,
    /// Arrivals bounced by the admission bound.
    pub rejected: u64,
    /// Queued requests shed (deadline + end-of-run flush).
    pub shed: u64,
    /// Completions over the SLO bound.
    pub slo_violations: u64,
    /// Requests completed.
    pub completed: u64,
    /// Mean response time over the run's windows (seconds).
    pub response_mean: f64,
    /// Mean completion rate (requests/second).
    pub throughput: f64,
}

/// `serving.csv` column header.
pub const CSV_HEADER: &str = "epoch,label,rate_rps,http,download,simsearch,extract,cost,\
                              offered,admitted,rejected,shed,slo_violations,completed,\
                              response_mean,throughput";

impl EpochRow {
    /// Render as one CSV row (no newline). Every number is written in the
    /// canonical wire form that [`EpochRow::from_csv`] requires, so a row
    /// parsed back from the journal re-renders to identical bytes.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.epoch,
            self.label,
            self.rate,
            self.config.http,
            self.config.download,
            self.config.simsearch,
            self.config.extract,
            self.cost,
            self.offered,
            self.admitted,
            self.rejected,
            self.shed,
            self.slo_violations,
            self.completed,
            self.response_mean,
            self.throughput,
        )
    }

    /// Parse a row rendered by [`EpochRow::to_csv`]. Numbers must be in
    /// their canonical wire form (`e2c_journal::wire`), so an accepted
    /// row renders back to exactly the accepted text.
    pub fn from_csv(line: &str) -> Result<EpochRow, String> {
        let parts: Vec<&str> = line.split(',').collect();
        if parts.len() != 16 {
            return Err(format!(
                "serving row has {} fields, expected 16: {line:?}",
                parts.len()
            ));
        }
        fn num<T>(parse: fn(&str) -> Result<T, String>, s: &str, what: &str) -> Result<T, String> {
            parse(s).map_err(|e| format!("serving row: bad {what}: {e}"))
        }
        let epoch = num(parse_u64, parts[0], "epoch")?;
        Ok(EpochRow {
            epoch: usize::try_from(epoch)
                .map_err(|_| format!("serving row: bad epoch: {epoch} exceeds usize"))?,
            label: parts[1].to_string(),
            rate: num(parse_f64, parts[2], "rate")?,
            config: PoolConfig {
                http: num(parse_u32, parts[3], "http")?,
                download: num(parse_u32, parts[4], "download")?,
                simsearch: num(parse_u32, parts[5], "simsearch")?,
                extract: num(parse_u32, parts[6], "extract")?,
            },
            cost: num(parse_f64, parts[7], "cost")?,
            offered: num(parse_u64, parts[8], "offered")?,
            admitted: num(parse_u64, parts[9], "admitted")?,
            rejected: num(parse_u64, parts[10], "rejected")?,
            shed: num(parse_u64, parts[11], "shed")?,
            slo_violations: num(parse_u64, parts[12], "slo_violations")?,
            completed: num(parse_u64, parts[13], "completed")?,
            response_mean: num(parse_f64, parts[14], "response_mean")?,
            throughput: num(parse_f64, parts[15], "throughput")?,
        })
    }
}

/// Result of a serving run.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// One row per epoch, in epoch order.
    pub rows: Vec<EpochRow>,
    /// Where `serving.csv` was written.
    pub csv_path: PathBuf,
    /// Where `trace.jsonl` was written.
    pub trace_path: PathBuf,
    /// Cycle-journal records this process appended, over all epochs.
    pub journal_appended: u64,
}

impl ServingReport {
    /// Human-readable per-epoch summary.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "serving run: epoch  month    rate     tuned config (h/d/s/e)  \
             offered  rejected  shed  slo_viol  resp_mean\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "             {:<6} {:<8} {:>6.1}/s {:>2}/{:>2}/{:>2}/{:<2}             \
                 {:>7}  {:>8}  {:>4}  {:>8}  {:>8.3}s\n",
                r.epoch,
                r.label,
                r.rate,
                r.config.http,
                r.config.download,
                r.config.simsearch,
                r.config.extract,
                r.offered,
                r.rejected,
                r.shed,
                r.slo_violations,
                r.response_mean,
            ));
        }
        out
    }
}

/// SLO-aware trial cost. Rejected and shed requests count like 4×-SLO
/// misses (a bounced user is worse than a slow one); ordinary violations
/// count once. `NaN` (no completions at all) marks the trial failed.
pub fn slo_cost(
    response_mean: f64,
    slo: f64,
    offered: u64,
    rejected: u64,
    shed: u64,
    violations: u64,
) -> f64 {
    let penalty = 4.0 * (rejected + shed) as f64 + violations as f64;
    response_mean + slo * penalty / offered.max(1) as f64
}

/// The per-epoch search space: the Table II pools over the same bounds
/// as [`e2c_optim::Space::plantnet`], in `PoolConfig` point order.
fn epoch_conf(cfg: &ServingConfig, epoch: usize, label: &str) -> OptimizationConf {
    let int = |name: &str, lo: f64, hi: f64| VariableConf {
        name: name.to_string(),
        kind: VarKind::Int,
        lo,
        hi,
    };
    OptimizationConf {
        metric: "slo_cost".to_string(),
        minimize: true,
        name: format!("serve-epoch-{epoch:02}-{label}"),
        num_samples: cfg.samples,
        max_concurrent: cfg.max_concurrent.max(1),
        algo: SearchAlgo::Surrogate(SurrogateName::ExtraTrees),
        n_initial_points: cfg.samples.clamp(1, 4),
        initial_point_generator: InitialPointGenerator::Lhs,
        acq_func: AcqFunc::Ei,
        variables: vec![
            int("http", 20.0, 60.0),
            int("download", 20.0, 60.0),
            int("simsearch", 20.0, 60.0),
            int("extract", 3.0, 9.0),
        ],
        fault_tolerance: None,
    }
}

/// Everything that shapes the serving artifacts, folded into both the
/// serve journal's meta record and every epoch journal's fingerprint.
fn fingerprint(cfg: &ServingConfig) -> String {
    format!(
        "serve-v1;scale={};epochs={};epoch_duration={};samples={};max_concurrent={};\
         slo={};queue_bound={};shed_after={:?};seed={};first_year={}",
        cfg.scale,
        cfg.epochs,
        cfg.epoch_duration.as_micros(),
        cfg.samples,
        cfg.max_concurrent,
        cfg.slo,
        cfg.queue_bound,
        cfg.shed_after.map(SimTime::as_micros),
        cfg.seed,
        cfg.first_year,
    )
}

/// Per-epoch seed: a splitmix-style derivation of the master seed so
/// epochs draw unrelated streams while staying pure functions of
/// `(seed, epoch)`.
fn epoch_seed(seed: u64, epoch: usize) -> u64 {
    seed ^ (epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Run one epoch's optimization cycle + final evaluation. `crash_after`
/// is what is left of the `--crash-at` budget for this epoch's journal;
/// the row comes back with the number of journal records appended.
fn run_epoch(
    cfg: &ServingConfig,
    epoch: usize,
    label: &str,
    rate: f64,
    resume_epoch: bool,
    crash_after: Option<u64>,
    fp: &str,
) -> Result<(EpochRow, u64), String> {
    let eseed = epoch_seed(cfg.seed, epoch);
    let sched = RateSchedule::constant(rate, cfg.epoch_duration)
        .map_err(|e| format!("epoch {epoch}: {e}"))?;
    let policy = OverloadPolicy {
        queue_bound: cfg.queue_bound,
        shed_after: cfg.shed_after,
        slo: cfg.slo,
    };
    let conf = epoch_conf(cfg, epoch, label);
    let archive = cfg.out_dir.join("epochs").join(format!("epoch_{epoch:02}"));
    let mut manager = OptimizationManager::new(conf)
        .with_seed(eseed)
        .with_archive(archive);
    if let Some(jdir) = &cfg.journal_dir {
        let edir = jdir.join(format!("epoch_{epoch:02}"));
        std::fs::create_dir_all(&edir)
            .map_err(|e| format!("epoch {epoch}: create {}: {e}", edir.display()))?;
        let jc = if resume_epoch {
            JournalConfig::resume(edir)
        } else {
            JournalConfig::fresh(edir)
        };
        manager = manager.with_journal(
            jc.crash_after(crash_after)
                .extra_fingerprint(format!("{fp};epoch={epoch};rate={rate}")),
        );
    }
    let obj_sched = sched.clone();
    let slo = cfg.slo;
    let objective = move |ctx: &EvalContext| {
        let pool = PoolConfig::from_point(&ctx.point);
        let spec = ExperimentSpec::serving(pool, obj_sched.horizon());
        let m = EngineRun::run_serving(
            spec,
            &obj_sched,
            Some(policy),
            eseed.wrapping_add(1000 + ctx.trial_id),
        );
        let o = m.overload.unwrap_or_default();
        slo_cost(
            m.response.mean,
            slo,
            o.offered,
            o.rejected,
            o.shed,
            o.slo_violations,
        )
    };
    let summary = manager
        .run(objective)
        .map_err(|e| format!("epoch {epoch}: {e}"))?;
    // Every trial failed (e.g. a zero-demand epoch where no request ever
    // completes): keep the paper baseline and mark the cost undefined.
    let (best, cost) = match (&summary.best_point, summary.best_value) {
        (Some(p), Some(v)) => (PoolConfig::from_point(p), v),
        _ => (PoolConfig::baseline(), f64::NAN),
    };
    // Final evaluation of the tuned config on the epoch's schedule, with
    // a seed disjoint from every trial seed — the row reports held-out
    // serving behaviour, not the winning trial's own draw.
    let spec = ExperimentSpec::serving(best, sched.horizon());
    let m = EngineRun::run_serving(spec, &sched, Some(policy), eseed ^ 0x5EED_CAFE);
    let o = m.overload.unwrap_or_default();
    let row = EpochRow {
        epoch,
        label: label.to_string(),
        rate,
        config: best,
        cost,
        offered: o.offered,
        admitted: o.admitted,
        rejected: o.rejected,
        shed: o.shed,
        slo_violations: o.slo_violations,
        completed: m.completed,
        response_mean: m.response.mean,
        throughput: m.throughput,
    };
    Ok((row, summary.journal_appended))
}

/// Rewrite `serving.csv` from the committed rows (atomic: a crash leaves
/// the previous complete file, never a torn one).
fn write_csv(path: &std::path::Path, rows: &[EpochRow]) -> Result<(), String> {
    let mut text = String::from(CSV_HEADER);
    text.push('\n');
    for r in rows {
        text.push_str(&r.to_csv());
        text.push('\n');
    }
    write_atomic(path, text.as_bytes()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Rebuild `trace.jsonl` from the committed rows. Virtual time is the
/// epoch's end offset in the serving timeline, so the trace is a pure
/// function of the rows — identical across reruns *and* resumes.
fn write_trace(
    path: &std::path::Path,
    cfg: &ServingConfig,
    rows: &[EpochRow],
) -> Result<(), String> {
    let tracer = e2c_trace::Tracer::new();
    tracer.point_at(
        0,
        "serve",
        "start",
        None,
        e2c_trace::fields([
            ("scale", cfg.scale.into()),
            ("epochs", (cfg.epochs as u64).into()),
            ("slo", cfg.slo.into()),
            ("queue_bound", (cfg.queue_bound as u64).into()),
            ("seed", cfg.seed.into()),
        ]),
    );
    for r in rows {
        tracer.point_at(
            (r.epoch as u64 + 1) * cfg.epoch_duration.as_micros(),
            "serve",
            "epoch",
            None,
            e2c_trace::fields([
                ("epoch", (r.epoch as u64).into()),
                ("label", r.label.as_str().into()),
                ("rate", r.rate.into()),
                ("http", r.config.http.into()),
                ("download", r.config.download.into()),
                ("simsearch", r.config.simsearch.into()),
                ("extract", r.config.extract.into()),
                ("cost", r.cost.into()),
                ("offered", r.offered.into()),
                ("admitted", r.admitted.into()),
                ("rejected", r.rejected.into()),
                ("shed", r.shed.into()),
                ("slo_violations", r.slo_violations.into()),
                ("completed", r.completed.into()),
                ("response_mean", r.response_mean.into()),
                ("throughput", r.throughput.into()),
            ]),
        );
    }
    tracer
        .save(path)
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Run the full serving loop. See the module docs for the protocol; the
/// short version: for each epoch not already committed to the serve
/// journal, tune, evaluate, journal the rendered row, rewrite
/// `serving.csv`; at the end rebuild `trace.jsonl` from the rows.
pub fn run_serving(cfg: &ServingConfig) -> Result<ServingReport, String> {
    if cfg.epochs == 0 {
        return Err("serve: need at least one epoch".to_string());
    }
    if cfg.samples == 0 {
        return Err("serve: need at least one sample per epoch".to_string());
    }
    if cfg.resume && cfg.journal_dir.is_none() {
        return Err("serve: --resume needs a journal directory".to_string());
    }
    let model = GrowthModel::default();
    let schedule = serving_schedule(
        &model,
        cfg.first_year,
        cfg.epochs,
        cfg.epoch_duration,
        cfg.scale,
    )
    .map_err(|e| format!("serve: {e}"))?;
    let fp = fingerprint(cfg);
    let csv_path = cfg.out_dir.join("serving.csv");
    let trace_path = cfg.out_dir.join("trace.jsonl");
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("serve: create {}: {e}", cfg.out_dir.display()))?;

    // Open (or create) the serve journal and replay committed rows.
    let mut rows: Vec<EpochRow> = Vec::new();
    let mut journal: Option<RunJournal> = None;
    if let Some(jdir) = &cfg.journal_dir {
        let path = jdir.join("run.wal");
        // Like an epoch journal, a serve journal that was never created
        // starts fresh on resume. Appends to it do not count toward
        // `--crash-at`, which counts cycle-journal appends.
        let resume = cfg.resume && path.is_file();
        let flag = if resume { "--resume" } else { "--journal" };
        let (j, events) = RunJournal::open(&path, &fp, resume, None).map_err(|e| match e {
            OpenError::Mismatch => format!(
                "--resume: {} belongs to a different serving run \
                 (parameters changed?) — refusing to continue",
                path.display()
            ),
            OpenError::Refused(why) => format!("{flag}: {why}"),
        })?;
        for (i, event) in events.iter().enumerate().skip(1) {
            let row = match event {
                RunEvent::Epoch { epoch, row } if *epoch == rows.len() as u64 => {
                    EpochRow::from_csv(row)
                }
                _ => Err(format!("not the row of epoch {}", rows.len())),
            };
            rows.push(row.map_err(|e| format!("{}: record {i}: {e}", path.display()))?);
        }
        journal = Some(j);
    }

    let done = rows.len();
    let mut journal_appended = 0;
    for (i, epoch) in schedule.epochs().iter().enumerate() {
        if i < done {
            continue; // Committed before the crash; bytes already in `rows`.
        }
        // An epoch journal left behind by a mid-epoch kill is resumed;
        // epochs never started (no journal dir yet) run fresh.
        let resume_epoch = cfg.resume
            && cfg
                .journal_dir
                .as_ref()
                .map(|j| j.join(format!("epoch_{i:02}")).join("run.wal").is_file())
                .unwrap_or(false);
        // Epoch journals count from zero, so each gets what is left of
        // the process-wide budget (never 0: reaching N already exited).
        let crash_after = cfg.crash_at.map(|n| n - journal_appended);
        let (row, appended) = run_epoch(
            cfg,
            i,
            &epoch.label,
            epoch.rate,
            resume_epoch,
            crash_after,
            &fp,
        )?;
        journal_appended += appended;
        if let Some(j) = &journal {
            j.append(&RunEvent::Epoch {
                epoch: i as u64,
                row: row.to_csv(),
            });
        }
        rows.push(row);
        write_csv(&csv_path, &rows)?;
        if cfg.crash_at_epoch == Some(i) {
            // Epoch-boundary chaos knob: the row is committed (journal +
            // CSV), the trace is not — exactly what a kill between
            // epochs looks like.
            std::process::exit(e2c_tune::CRASH_EXIT_CODE);
        }
    }
    write_csv(&csv_path, &rows)?;
    write_trace(&trace_path, cfg, &rows)?;
    Ok(ServingReport {
        rows,
        csv_path,
        trace_path,
        journal_appended,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> EpochRow {
        EpochRow {
            epoch: 3,
            label: "2017-04".to_string(),
            rate: 37.25,
            config: PoolConfig::preliminary_optimum(),
            cost: 2.625,
            offered: 6700,
            admitted: 6650,
            rejected: 30,
            shed: 20,
            slo_violations: 12,
            completed: 6648,
            response_mean: 1.875,
            throughput: 36.9,
        }
    }

    #[test]
    fn epoch_row_round_trips_through_csv() {
        let r = row();
        let parsed = EpochRow::from_csv(&r.to_csv()).expect("round trip");
        assert_eq!(parsed, r);
        // Bytes, not just values: the journal stores rendered rows.
        assert_eq!(parsed.to_csv(), r.to_csv());
    }

    #[test]
    fn epoch_row_rejects_malformed_lines() {
        assert!(EpochRow::from_csv("1,2,3").is_err());
        let mut bad = row().to_csv();
        bad = bad.replacen("37.25", "not-a-number", 1);
        assert!(EpochRow::from_csv(&bad).is_err());
    }

    #[test]
    fn epoch_row_rejects_non_canonical_numbers() {
        let good = row().to_csv();
        let with = |field: usize, spelling: &str| {
            let mut parts: Vec<&str> = good.split(',').collect();
            parts[field] = spelling;
            parts.join(",")
        };
        // Integer fields: epoch, http, offered.
        for field in [0, 3, 8] {
            for spelling in ["07", "+5"] {
                assert!(EpochRow::from_csv(&with(field, spelling)).is_err());
            }
        }
        // Float fields: rate, cost, throughput.
        for field in [2, 7, 15] {
            for spelling in ["1e6", "nan", "infinity", "+5", "07"] {
                assert!(EpochRow::from_csv(&with(field, spelling)).is_err());
            }
        }
        // What the writer emits for non-finite costs is still accepted.
        for spelling in ["NaN", "inf", "-inf"] {
            let text = with(7, spelling);
            let parsed = EpochRow::from_csv(&text).expect("canonical spelling");
            assert_eq!(parsed.to_csv(), text);
        }
    }

    #[test]
    fn csv_header_matches_row_arity() {
        assert_eq!(
            CSV_HEADER.split(',').count(),
            row().to_csv().split(',').count()
        );
    }

    #[test]
    fn slo_cost_penalizes_overload() {
        let base = slo_cost(2.0, 4.0, 1000, 0, 0, 0);
        assert!((base - 2.0).abs() < 1e-12);
        let with_viol = slo_cost(2.0, 4.0, 1000, 0, 0, 100);
        let with_rej = slo_cost(2.0, 4.0, 1000, 100, 0, 0);
        assert!(with_viol > base);
        // A rejection is 4× worse than a violation.
        assert!((with_rej - base) > 3.9 * (with_viol - base));
        // Failed runs poison the cost, marking the trial failed.
        assert!(slo_cost(f64::NAN, 4.0, 0, 0, 0, 0).is_nan());
    }

    #[test]
    fn epoch_seeds_are_distinct() {
        let seeds: std::collections::BTreeSet<u64> = (0..24).map(|i| epoch_seed(7, i)).collect();
        assert_eq!(seeds.len(), 24);
    }

    #[test]
    fn fingerprint_changes_with_every_knob() {
        let base = ServingConfig::new(PathBuf::from("/tmp/x"));
        let fp0 = fingerprint(&base);
        let mut c = base.clone();
        c.scale = 1.0e6;
        assert_ne!(fingerprint(&c), fp0);
        let mut c = base.clone();
        c.slo = 2.0;
        assert_ne!(fingerprint(&c), fp0);
        let mut c = base.clone();
        c.seed = 1;
        assert_ne!(fingerprint(&c), fp0);
        let mut c = base.clone();
        c.shed_after = None;
        assert_ne!(fingerprint(&c), fp0);
        // Output paths are NOT part of identity: moving a run is fine.
        let mut c = base.clone();
        c.out_dir = PathBuf::from("/tmp/y");
        assert_eq!(fingerprint(&c), fp0);
    }

    #[test]
    fn tiny_serving_run_commits_every_epoch() {
        let dir = std::env::temp_dir().join(format!("e2c-serve-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = ServingConfig::new(dir.join("out"));
        cfg.scale = 400_000.0;
        cfg.epochs = 2;
        cfg.epoch_duration = SimTime::from_secs(20);
        cfg.samples = 2;
        cfg.max_concurrent = 1;
        cfg.seed = 42;
        let report = run_serving(&cfg).expect("serving run");
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].label, "2017-01");
        assert_eq!(report.rows[1].label, "2017-02");
        for r in &report.rows {
            assert_eq!(r.admitted + r.rejected + r.shed, r.offered, "conservation");
            assert!(r.offered > 0, "a 400K-user January still offers load");
        }
        let csv = std::fs::read_to_string(&report.csv_path).expect("serving.csv");
        assert!(csv.starts_with(CSV_HEADER));
        assert_eq!(csv.lines().count(), 3);
        assert!(report.trace_path.is_file());
        // Per-epoch archives landed.
        assert!(cfg.out_dir.join("epochs/epoch_00/best.yaml").is_file());
        assert!(cfg
            .out_dir
            .join("epochs/epoch_01/evaluations.csv")
            .is_file());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
