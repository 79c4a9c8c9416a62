//! Lifecycle tests for the multi-process trial farm, driven through live
//! `e2clab worker` processes. None of them bounds the wall clock, so a
//! slow host cannot fail them; a lifecycle regression shows as a hang.
//!
//! * `shutdown_lets_every_worker_exit_on_its_own` — after some asks, the
//!   farm's shutdown frame ends every worker cleanly (exit status 0)
//!   within the grace period; none needs SIGKILL.
//! * `stalled_workers_exhaust_the_respawn_budget_into_worker_lost` — a
//!   heartbeat deadline below the heartbeat interval, and below the time
//!   one engine evaluation takes, makes every worker look stalled
//!   mid-ask; the monitor kills and respawns them until the budget is
//!   spent, and `execute` then fails with `TrialError::WorkerLost`
//!   instead of waiting forever.
//! * `a_farm_that_cannot_start_leaves_no_journal` — a cycle whose workers
//!   cannot spawn fails before its journal opens, so the same
//!   `--journal` run can simply be started again.

use e2c_conf::schema::ExperimentConf;
use e2c_core::optimization::JournalConfig;
use e2c_tune::{FarmOutcome, FarmSpec, FaultPlan, TrialError, WorkerExit, WorkerFarm};
use e2clab::cycle::{Cycle, CycleSpec};
use std::path::PathBuf;
use std::time::Duration;

fn worker_farm(args: &[&str], workers: usize, seed: u64) -> FarmSpec {
    FarmSpec::new(
        PathBuf::from(env!("CARGO_BIN_EXE_e2clab")),
        args.iter().map(|a| a.to_string()).collect(),
        workers,
        seed,
    )
}

#[test]
fn shutdown_lets_every_worker_exit_on_its_own() {
    let farm = WorkerFarm::launch(worker_farm(&["worker", "--builtin", "quad"], 3, 5))
        .expect("launch farm");
    for trial in 0..12u64 {
        let config = [trial as f64, 3.0];
        match farm.execute(trial, 0, &config, None) {
            Ok(FarmOutcome::Value { value, .. }) => {
                assert_eq!(value, (trial as f64 - 3.0).powi(2));
            }
            other => panic!("trial {trial}: {other:?}"),
        }
    }
    let exits = farm.shutdown();
    assert_eq!(exits.len(), 3, "one report per worker: {exits:?}");
    for exit in exits {
        match exit {
            WorkerExit::Exited(status) => assert!(status.success(), "{status}"),
            WorkerExit::Killed => panic!("a worker needed SIGKILL to stop"),
        }
    }
}

#[test]
fn stalled_workers_exhaust_the_respawn_budget_into_worker_lost() {
    // An engine evaluation runs far longer than 1 ms and sends nothing
    // until its result, so the monitor declares its worker stalled
    // mid-ask; an idle worker stalls between asks the same way.
    let mut spec = worker_farm(&["worker"], 2, 7);
    spec.heartbeat_timeout = Duration::from_millis(1);
    spec.max_respawns = 2;
    spec.respawn_backoff = spec.respawn_backoff.base_delay(Duration::from_millis(10));
    let farm = WorkerFarm::launch(spec).expect("launch farm");
    // An ask may spend its re-dispatch budget while respawns remain;
    // keep asking until the farm is beyond saving. Each slot dies at
    // most three times, so this ends.
    const TERMINAL: &str = "respawn budget is spent";
    let config = [40.0, 40.0, 40.0, 5.0];
    let mut trial = 0u64;
    loop {
        match farm.execute(trial, 0, &config, None) {
            // A starved monitor may let an ask outrun its deadline.
            Ok(FarmOutcome::Value { .. }) => {}
            Ok(FarmOutcome::Panicked { payload }) => panic!("trial {trial} panicked: {payload}"),
            Err(TrialError::WorkerLost(reason)) if reason.contains(TERMINAL) => break,
            Err(TrialError::WorkerLost(_)) => {}
            Err(other) => panic!("expected WorkerLost, got {other:?}"),
        }
        trial += 1;
    }
    // Nothing is left to respawn: every further ask fails at once.
    match farm.execute(trial + 1, 0, &config, None) {
        Err(TrialError::WorkerLost(reason)) => assert!(reason.contains(TERMINAL), "{reason}"),
        other => panic!("expected WorkerLost, got {other:?}"),
    }
    assert!(farm.shutdown().is_empty(), "no worker left to reap");
}

#[test]
fn a_farm_that_cannot_start_leaves_no_journal() {
    const CONF: &str = r#"
name: no-farm
optimization:
  metric: response_time
  mode: min
  name: no-farm
  num_samples: 2
  max_concurrent: 2
  search:
    algo: random
  config:
    - name: http
      type: randint
      bounds: [20, 60]
"#;
    let journal = std::env::temp_dir().join(format!("e2clab-no-farm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal);
    let cycle = Cycle {
        opt_conf: ExperimentConf::from_value(&e2c_conf::parse(CONF).unwrap())
            .unwrap()
            .optimization
            .unwrap(),
        seed: 1,
        faults: FaultPlan::new(),
        spec: CycleSpec {
            repeat: 1,
            duration: 10,
            clients: 80,
        },
        journal: Some(JournalConfig::fresh(journal.clone())),
        farm: Some(FarmSpec::new(
            PathBuf::from("/nonexistent/e2clab"),
            vec!["worker".to_string()],
            2,
            1,
        )),
    };
    // Twice: a failed launch must not leave a journal that refuses the
    // same command.
    for _ in 0..2 {
        let err = cycle.run(None, None).expect_err("no worker can spawn");
        assert_eq!(err, "--workers: no worker could be spawned (2 requested)");
        assert!(!journal.join("run.wal").exists(), "a journal was opened");
    }
    let _ = std::fs::remove_dir_all(&journal);
}
