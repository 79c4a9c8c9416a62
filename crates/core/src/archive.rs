//! The Phase III reproducibility archive.
//!
//! "Providing all this information at the end of computations allows other
//! researchers to reproduce the research results" (§III-C). The archive is
//! a plain directory:
//!
//! ```text
//! <root>/
//!   problem.yaml       # Phase I: variables, objective, constraints
//!   summary.txt        # Phase III report (sampler, algo, best config)
//!   evaluations.csv    # every evaluated point with its metric value
//!   best.yaml          # the best configuration found
//!   evals/trial_<id>/  # per-trial directories (prepare(), Phase III)
//!     result.csv       # finalize(): the point and value of this trial
//! ```
//!
//! The files at the root are Phase III snapshots, rewritten whole at the
//! end of every run. Each `result.csv` is a view of the trial's journaled
//! attempts: written without fsync, and rendered again by a resumed run.
//! A journaled run writes the snapshots as views of its journal too, so
//! it fsyncs `run.wal` alone; a run without a journal fsyncs each
//! snapshot ([`e2c_journal::snapshot_writer`]).

use crate::optimization::OptimizationSummary;
use e2c_conf::schema::{OptimizationConf, VarKind};
use e2c_conf::Value;
use e2c_optim::space::Point;
use e2c_tune::Trial;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Serialize a problem definition to a configuration document.
pub fn problem_to_value(conf: &OptimizationConf) -> Value {
    let variables: Vec<Value> = conf
        .variables
        .iter()
        .map(|v| {
            Value::Map(vec![
                ("name".into(), Value::Str(v.name.clone())),
                (
                    "type".into(),
                    Value::Str(
                        match v.kind {
                            VarKind::Int => "randint",
                            VarKind::Real => "uniform",
                        }
                        .into(),
                    ),
                ),
                (
                    "bounds".into(),
                    Value::Seq(vec![Value::Float(v.lo), Value::Float(v.hi)]),
                ),
            ])
        })
        .collect();
    let mut doc = Value::Map(vec![
        ("name".into(), Value::Str(conf.name.clone())),
        ("metric".into(), Value::Str(conf.metric.clone())),
        (
            "mode".into(),
            Value::Str(if conf.minimize { "min" } else { "max" }.into()),
        ),
        ("num_samples".into(), Value::Int(conf.num_samples as i64)),
        (
            "max_concurrent".into(),
            Value::Int(conf.max_concurrent as i64),
        ),
        (
            "search".into(),
            Value::Map(vec![
                ("algo".into(), Value::Str(conf.algo.name().into())),
                (
                    "n_initial_points".into(),
                    Value::Int(conf.n_initial_points as i64),
                ),
                (
                    "initial_point_generator".into(),
                    Value::Str(conf.initial_point_generator.name().into()),
                ),
                ("acq_func".into(), Value::Str(conf.acq_func.name().into())),
            ]),
        ),
        ("config".into(), Value::Seq(variables)),
    ]);
    if let Some(ft) = &conf.fault_tolerance {
        let mut block = vec![
            ("max_retries".into(), Value::Int(ft.max_retries as i64)),
            ("backoff_ms".into(), Value::Int(ft.backoff_ms as i64)),
            ("backoff_factor".into(), Value::Float(ft.backoff_factor)),
            (
                "max_backoff_ms".into(),
                Value::Int(ft.max_backoff_ms as i64),
            ),
            ("jitter".into(), Value::Float(ft.jitter)),
        ];
        if let Some(ms) = ft.time_budget_ms {
            block.push(("time_budget_ms".into(), Value::Int(ms as i64)));
        }
        if let Value::Map(pairs) = &mut doc {
            pairs.push(("fault_tolerance".into(), Value::Map(block)));
        }
    }
    doc
}

/// Write the full Phase III archive, each file through `write`: either
/// way a tmp sibling renamed over the target, so a kill mid-write can
/// never leave a truncated file. [`e2c_journal::write_atomic`] also
/// fsyncs it; [`e2c_journal::write_view`] leaves a machine crash's loss
/// to the journal's resume.
pub fn write_summary(
    summary: &OptimizationSummary,
    dir: &Path,
    write: fn(&Path, &[u8]) -> io::Result<()>,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    write(
        &dir.join("problem.yaml"),
        problem_to_value(&summary.conf).to_yaml().as_bytes(),
    )?;
    write(&dir.join("summary.txt"), summary.render().as_bytes())?;

    // evaluations.csv — trial id, status, attempt count, variables...,
    // value, last failure reason (empty for successes).
    let mut csv = String::from("trial,status,attempts");
    for v in &summary.conf.variables {
        let _ = write!(csv, ",{}", v.name);
    }
    let _ = writeln!(csv, ",{},failure", summary.conf.metric);
    for t in summary.analysis.trials() {
        let status = match &t.status {
            e2c_tune::TrialStatus::Terminated(_) => "terminated",
            e2c_tune::TrialStatus::Failed(_) => "failed",
            _ => "incomplete",
        };
        let _ = write!(csv, "{},{},{}", t.id, status, t.attempt_count());
        for x in &t.config {
            let _ = write!(csv, ",{x}");
        }
        match t.value() {
            Some(v) => {
                let _ = write!(csv, ",{v}");
            }
            None => csv.push(','),
        }
        let failure = t.status.failure().map(sanitize_csv).unwrap_or_default();
        let _ = writeln!(csv, ",{failure}");
    }
    write(&dir.join("evaluations.csv"), csv.as_bytes())?;

    // best.yaml
    let best = match (&summary.best_point, summary.best_value) {
        (Some(p), Some(v)) => {
            let mut pairs: Vec<(String, Value)> = summary
                .conf
                .variables
                .iter()
                .zip(p)
                .map(|(var, &x)| (var.name.clone(), Value::Float(x)))
                .collect();
            pairs.push((summary.conf.metric.clone(), Value::Float(v)));
            Value::Map(pairs)
        }
        _ => Value::Null,
    };
    write(&dir.join("best.yaml"), best.to_yaml().as_bytes())?;
    Ok(())
}

/// The per-evaluation directory of `trial` under the archive `root`.
pub fn eval_dir(root: &Path, trial: u64) -> PathBuf {
    root.join("evals").join(format!("trial_{trial}"))
}

/// finalize() for one evaluation: record its point and value in `dir`,
/// which the prepare step made. The file is a view of the attempt the
/// run journal holds: it is swapped in whole (a retried or crash-resumed
/// evaluation overwrites, never tears) but not fsync'd, and
/// [`write_evaluations`] renders it again on resume.
pub fn write_evaluation(dir: &Path, trial: u64, point: &Point, value: f64) -> io::Result<()> {
    let point_str = point
        .iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(";");
    let text = format!("trial,point,value\n{trial},{point_str},{value}\n");
    e2c_journal::write_view(&dir.join("result.csv"), text.as_bytes())
}

/// Phase III of every archived run: make each trial's `evals/trial_N/`
/// under the archive `root`, so every trial has one, even a trial whose
/// injected faults kept its objective, and so its prepare step, from
/// ever running. With `render` (a resumed run), also render each
/// `result.csv` again from the trial's attempts: the last attempt whose
/// objective returned holds the value [`write_evaluation`] recorded, and
/// a trial whose objective never returned has no file. A machine crash
/// may have lost the file, its directory or the whole archive.
pub fn write_evaluations(root: &Path, trials: &[Trial], render: bool) -> io::Result<()> {
    for t in trials {
        let dir = eval_dir(root, t.id);
        fs::create_dir_all(&dir)?;
        if !render {
            continue;
        }
        if let Some(raw) = t.attempts.iter().rev().find_map(|a| a.raw) {
            write_evaluation(&dir, t.id, &t.config, raw)?;
        }
    }
    Ok(())
}

/// Strip CSV-hostile characters from a free-text field (failure reasons
/// may carry panic payloads); the row must stay one comma-split line.
fn sanitize_csv(text: &str) -> String {
    text.chars()
        .map(|c| match c {
            ',' => ';',
            '\n' | '\r' => ' ',
            c => c,
        })
        .collect()
}

/// Read back `evaluations.csv` as `(trial, point, value)` rows (failed
/// trials come back with `None`): how tests check an archive's values.
///
/// Layout: `trial,status,attempts,<variables...>,<metric>,failure`.
pub fn load_evaluations(dir: &Path) -> io::Result<Vec<(u64, Point, Option<f64>)>> {
    Ok(load_evaluation_records(dir)?
        .into_iter()
        .map(|r| (r.trial, r.point, r.value))
        .collect())
}

/// One parsed `evaluations.csv` row, including the retry bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct EvaluationRecord {
    /// Trial id.
    pub trial: u64,
    /// Final status token (`terminated`, `failed`, ...).
    pub status: String,
    /// How many times the trial was executed.
    pub attempts: u32,
    /// The evaluated configuration.
    pub point: Point,
    /// Metric value (`None` for failed trials).
    pub value: Option<f64>,
    /// Last failure reason (empty for successes).
    pub failure: String,
}

/// Read back `evaluations.csv` with full per-row detail.
pub fn load_evaluation_records(dir: &Path) -> io::Result<Vec<EvaluationRecord>> {
    let text = fs::read_to_string(dir.join("evaluations.csv"))?;
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    let n_cols = header.split(',').count();
    let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
    if n_cols < 6 {
        return Err(bad(format!("unexpected header: {header}")));
    }
    let mut out = Vec::new();
    for line in lines {
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != n_cols {
            return Err(bad(format!("ragged row: {line}")));
        }
        let trial: u64 = cols[0].parse().map_err(|e| bad(format!("{e}")))?;
        let attempts: u32 = cols[2].parse().map_err(|e| bad(format!("{e}")))?;
        let point: Point = cols[3..n_cols - 2]
            .iter()
            .map(|c| c.parse::<f64>())
            .collect::<Result<_, _>>()
            .map_err(|e| bad(format!("{e}")))?;
        let value = cols[n_cols - 2].parse::<f64>().ok();
        out.push(EvaluationRecord {
            trial,
            status: cols[1].to_string(),
            attempts,
            point,
            value,
            failure: cols[n_cols - 1].to_string(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use e2c_conf::parse;
    use e2c_conf::schema::ExperimentConf;

    fn conf() -> OptimizationConf {
        let src = r#"
name: x
optimization:
  metric: user_resp_time
  mode: min
  name: plantnet_engine
  num_samples: 10
  max_concurrent: 2
  search:
    algo: extra_trees
    n_initial_points: 45
    initial_point_generator: lhs
    acq_func: gp_hedge
  config:
    - name: http
      bounds: [20, 60]
    - name: extract
      bounds: [3, 9]
"#;
        ExperimentConf::from_value(&parse(src).unwrap())
            .unwrap()
            .optimization
            .unwrap()
    }

    #[test]
    fn problem_roundtrips_through_yaml() {
        let v = problem_to_value(&conf());
        let text = v.to_yaml();
        let reparsed = parse(&text).unwrap();
        assert_eq!(
            reparsed.get("metric").unwrap().as_str(),
            Some("user_resp_time")
        );
        assert_eq!(
            reparsed
                .get("search")
                .unwrap()
                .get("n_initial_points")
                .unwrap()
                .as_int(),
            Some(45)
        );
        let config = reparsed.get("config").unwrap().as_seq().unwrap();
        assert_eq!(config.len(), 2);
        assert_eq!(
            config[1].get("bounds").unwrap().as_seq().unwrap()[1].as_float(),
            Some(9.0)
        );
    }

    #[test]
    fn evaluations_csv_records_attempts_and_failures() {
        use e2c_tune::trial::{Attempt, Trial, TrialStatus};
        use e2c_tune::tuner::Mode;
        use e2c_tune::Analysis;

        let dir = std::env::temp_dir().join(format!(
            "e2clab-archive-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = fs::remove_dir_all(&dir);

        use e2c_tune::trial::TrialError;
        let mut flaky = Trial::new(0, vec![40.0, 7.0]);
        flaky.status = TrialStatus::Terminated(2.5);
        flaky.attempts = vec![
            Attempt {
                index: 0,
                error: Some(TrialError::Panicked("panic: broken, pipe".into())),
                raw: None,
                notes: Vec::new(),
            },
            Attempt {
                index: 1,
                error: None,
                raw: Some(2.5),
                notes: Vec::new(),
            },
        ];
        let mut doomed = Trial::new(1, vec![20.0, 3.0]);
        doomed.status = TrialStatus::Failed("deadline exceeded".into());
        doomed.attempts = vec![Attempt {
            index: 0,
            error: Some(TrialError::DeadlineExceeded),
            raw: None,
            notes: Vec::new(),
        }];
        let analysis = Analysis::new(Mode::Min, vec![flaky, doomed]);
        let summary = OptimizationSummary {
            conf: conf(),
            seed: 1,
            best_point: Some(vec![40.0, 7.0]),
            best_value: Some(2.5),
            analysis,
            journal_appended: 0,
        };
        write_summary(&summary, &dir, e2c_journal::write_atomic).unwrap();

        let text = fs::read_to_string(dir.join("evaluations.csv")).unwrap();
        assert!(text.starts_with("trial,status,attempts,http,extract,user_resp_time,failure\n"));

        let recs = load_evaluation_records(&dir).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].attempts, 2);
        assert_eq!(recs[0].status, "terminated");
        assert_eq!(recs[0].value, Some(2.5));
        assert_eq!(recs[0].failure, "");
        assert_eq!(recs[1].attempts, 1);
        assert_eq!(recs[1].status, "failed");
        assert_eq!(recs[1].value, None);
        assert_eq!(recs[1].failure, "deadline exceeded");
        assert_eq!(recs[1].point, vec![20.0, 3.0]);

        // The legacy accessor still yields (trial, point, value).
        let evals = load_evaluations(&dir).unwrap();
        assert_eq!(evals[0], (0, vec![40.0, 7.0], Some(2.5)));
        assert_eq!(evals[1], (1, vec![20.0, 3.0], None));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sanitize_keeps_rows_single_line() {
        assert_eq!(sanitize_csv("a,b\nc"), "a;b c");
        assert_eq!(sanitize_csv("plain"), "plain");
    }

    #[test]
    fn fault_tolerance_block_serialized_when_present() {
        let mut c = conf();
        c.fault_tolerance = Some(e2c_conf::schema::FaultToleranceConf {
            max_retries: 2,
            time_budget_ms: Some(5000),
            ..Default::default()
        });
        let text = problem_to_value(&c).to_yaml();
        let reparsed = parse(&text).unwrap();
        let ft = reparsed.get("fault_tolerance").unwrap();
        assert_eq!(ft.get("max_retries").unwrap().as_int(), Some(2));
        assert_eq!(ft.get("time_budget_ms").unwrap().as_int(), Some(5000));
        // And it validates back through the schema.
        let full = Value::Map(vec![
            ("name".into(), Value::Str("x".into())),
            ("optimization".into(), reparsed),
        ]);
        let conf2 = ExperimentConf::from_value(&full).unwrap();
        let ft2 = conf2.optimization.unwrap().fault_tolerance.unwrap();
        assert_eq!(ft2.max_retries, 2);
        assert_eq!(ft2.backoff_factor, 2.0);
    }

    #[test]
    fn evaluation_record_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "e2clab-eval-test-{}-{}",
            std::process::id(),
            line!()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        write_evaluation(&dir, 3, &vec![40.0, 7.0], 2.5).unwrap();
        let text = fs::read_to_string(dir.join("result.csv")).unwrap();
        assert!(text.contains("3,40;7,2.5"));
        fs::remove_dir_all(&dir).unwrap();
    }
}
