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

use e2c_tune::{FarmOutcome, FarmSpec, TrialError, WorkerExit, WorkerFarm};
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
