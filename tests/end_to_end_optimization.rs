//! End-to-end integration: configuration file → Optimization Manager →
//! parallel trials over the simulated engine → Phase III archive.

use e2clab::conf::schema::ExperimentConf;
use e2clab::core::{archive, OptimizationManager};
use e2clab::des::SimTime;
use e2clab::plantnet::sim::{Experiment, ExperimentSpec};
use e2clab::plantnet::PoolConfig;

const CONF: &str = r#"
name: e2e
optimization:
  metric: user_resp_time
  mode: min
  name: e2e-tuning
  num_samples: 14
  max_concurrent: 4
  search:
    algo: extra_trees
    n_initial_points: 7
    initial_point_generator: lhs
    acq_func: gp_hedge
  config:
    - name: http
      type: randint
      bounds: [20, 60]
    - name: download
      type: randint
      bounds: [20, 60]
    - name: simsearch
      type: randint
      bounds: [20, 60]
    - name: extract
      type: randint
      bounds: [3, 9]
"#;

fn objective(point: &[f64], seed: u64) -> f64 {
    let cfg = PoolConfig::from_point(point);
    let mut spec = ExperimentSpec::quick(cfg, 80);
    spec.duration = SimTime::from_secs(60);
    spec.warmup = SimTime::from_secs(10);
    Experiment::run(spec, seed).response.mean
}

fn manager() -> OptimizationManager {
    let conf = ExperimentConf::from_value(&e2clab::conf::parse(CONF).unwrap())
        .unwrap()
        .optimization
        .unwrap();
    OptimizationManager::new(conf).with_seed(3)
}

#[test]
fn optimization_cycle_beats_a_bad_seeded_baseline() {
    let summary = manager()
        .run(|ctx| objective(&ctx.point, 100 + ctx.trial_id))
        .unwrap();
    assert_eq!(summary.analysis.trials().len(), 14);
    let best = summary.best_value.expect("successful trials");
    // A deliberately throttled configuration must lose to the optimum.
    let throttled = objective(&[25.0, 25.0, 25.0, 4.0], 999);
    assert!(
        best < throttled,
        "optimized {best} should beat throttled {throttled}"
    );
    // The report mentions the Phase I definition and the best point.
    let report = summary.render();
    assert!(report.contains("minimize user_resp_time"));
    assert!(report.contains("best user_resp_time"));
}

#[test]
fn archive_round_trips_through_the_filesystem() {
    let dir = std::env::temp_dir().join(format!("e2e-archive-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let summary = manager()
        .with_archive(dir.clone())
        .run(|ctx| objective(&ctx.point, 100 + ctx.trial_id))
        .unwrap();

    // Phase III files exist.
    for file in [
        "problem.yaml",
        "summary.txt",
        "evaluations.csv",
        "best.yaml",
    ] {
        assert!(dir.join(file).is_file(), "missing {file}");
    }
    // problem.yaml re-parses into the same schema.
    let text = std::fs::read_to_string(dir.join("problem.yaml")).unwrap();
    let doc = e2clab::conf::parse(&text).unwrap();
    assert_eq!(
        doc.get("metric").and_then(|v| v.as_str()),
        Some("user_resp_time")
    );
    // evaluations.csv loads and matches the in-memory analysis.
    let evals = archive::load_evaluations(&dir).unwrap();
    assert_eq!(evals.len(), summary.analysis.trials().len());
    let best_from_csv = evals
        .iter()
        .filter_map(|(_, _, v)| *v)
        .fold(f64::INFINITY, f64::min);
    assert!((best_from_csv - summary.best_value.unwrap()).abs() < 1e-9);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn same_seed_reproduces_the_whole_cycle() {
    // Reproducibility is the paper's core promise: identical seeds must
    // produce identical evaluation sequences and identical optima. The
    // tuner's commit sequencer gives bit-exact replay at any
    // max_concurrent; this test pins the single-slot window.
    let run = || {
        let conf = ExperimentConf::from_value(&e2clab::conf::parse(CONF).unwrap())
            .unwrap()
            .optimization
            .map(|mut o| {
                o.max_concurrent = 1;
                o
            })
            .unwrap();
        let summary = OptimizationManager::new(conf)
            .with_seed(3)
            .run(|ctx| objective(&ctx.point, 100 + ctx.trial_id))
            .unwrap();
        let mut evals: Vec<(Vec<f64>, Option<f64>)> = summary
            .analysis
            .trials()
            .iter()
            .map(|t| (t.config.clone(), t.value()))
            .collect();
        evals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        (evals, summary.best_point, summary.best_value)
    };
    let a = run();
    let b = run();
    assert_eq!(a.0, b.0, "evaluation sets differ");
    assert_eq!(a.1, b.1, "best points differ");
    assert_eq!(a.2, b.2, "best values differ");
}
