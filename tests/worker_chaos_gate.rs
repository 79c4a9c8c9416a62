//! End-to-end gates for the multi-process trial farm:
//!
//! * `farmed_runs_match_in_process_artifacts` — the same seeded cycle
//!   run in-process and farmed over `--workers` ∈ {1, 2, 4} leaves
//!   byte-identical archive, trace and journal trees, `run.wal`
//!   included: the worker count shapes wall-clock only, never results;
//! * `killed_workers_leave_artifacts_byte_identical` — the kill matrix:
//!   a `--workers` run whose worker is SIGKILLed at
//!   the farm's Nth dispatched ask (`--kill-worker N`) still matches an
//!   unharmed single-worker run byte for byte — the supervisor respawns
//!   the worker and re-dispatches the orphaned ask transparently;
//! * `injected_worker_faults_replay_identically` — `--faults
//!   worker-crash/worker-stall` plans short-circuit tuner-side, so the
//!   same plan yields identical artifacts with and without a farm.
//!
//! Every run is archived, traced and journaled, and two runs compare as
//! whole trees through `e2c_journal::compare_tree`, both ways round.
//! Scratch directories root at `E2C_GATE_DIR` when set so CI can upload
//! the differing artifacts on failure.

use e2c_journal::Sameness;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Root for gate scratch directories: `E2C_GATE_DIR` when set (CI points
/// this at a workspace path and uploads it when the gate fails), the
/// system temp directory otherwise.
fn gate_root() -> PathBuf {
    std::env::var_os("E2C_GATE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

const TINY_CONF: &str = r#"
name: worker-chaos-gate
optimization:
  metric: response_time
  mode: min
  name: worker-chaos-gate
  num_samples: 6
  max_concurrent: 2
  search:
    algo: extra_trees
    n_initial_points: 3
    initial_point_generator: lhs
    acq_func: ei
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
      bounds: [2, 20]
"#;

struct Scratch {
    root: PathBuf,
    conf: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let root = gate_root().join(format!("worker-chaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create gate scratch dir");
        let conf = root.join("conf.yaml");
        std::fs::write(&conf, TINY_CONF).expect("write conf");
        Scratch { root, conf }
    }

    /// `e2clab optimize --seed <seed> --duration 30 --archive <run>/archive
    /// --trace <run>/trace --journal <run>/journal <extra...> conf.yaml`,
    /// asserting success. Returns the run's root, `<root>/<name>`.
    fn optimize(&self, name: &str, seed: u64, extra: &[&str]) -> PathBuf {
        let run = self.root.join(name);
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_e2clab"));
        cmd.arg("optimize")
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--duration")
            .arg("30");
        for dir in ["archive", "trace", "journal"] {
            cmd.arg(format!("--{dir}")).arg(run.join(dir));
        }
        let out = cmd
            .args(extra)
            .arg(&self.conf)
            .output()
            .expect("run e2clab optimize");
        assert!(
            out.status.success(),
            "optimize {name} (seed {seed}, extra {extra:?}) failed:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        run
    }

    fn cleanup(self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Compare two runs' whole trees both ways round: every file and
/// directory of the archive, the trace and the journal, `run.wal`
/// included, must be under the other run with the same bytes.
fn assert_artifacts_identical(label: &str, a: &Path, b: &Path) {
    let cycles = std::fs::read_dir(a.join("trace").join("cycles"));
    assert!(
        cycles.is_ok_and(|mut c| c.next().is_some()),
        "{label}: no per-trial prom snapshots"
    );
    for (fresh, other) in [(a, b), (b, a)] {
        let entries = e2c_journal::compare_tree(fresh, other)
            .unwrap_or_else(|e| panic!("{label}: list {}: {e}", fresh.display()));
        assert!(!entries.is_empty(), "{label}: {} is empty", fresh.display());
        let bad: Vec<_> = entries
            .iter()
            .filter(|(_, same)| matches!(same, Sameness::Differs(..) | Sameness::Missing))
            .collect();
        assert!(
            bad.is_empty(),
            "{label}: {} against {}: {bad:?} — artifacts are kept for inspection",
            fresh.display(),
            other.display()
        );
    }
}

#[test]
fn farmed_runs_match_in_process_artifacts() {
    let scratch = Scratch::new("farm");
    for seed in [7u64, 40] {
        let baseline = scratch.optimize(&format!("inproc-{seed}"), seed, &[]);
        for workers in ["1", "2", "4"] {
            let farmed = scratch.optimize(
                &format!("farm{workers}-{seed}"),
                seed,
                &["--workers", workers],
            );
            assert_artifacts_identical(
                &format!("seed {seed}, --workers {workers} vs in-process"),
                &baseline,
                &farmed,
            );
            let _ = std::fs::remove_dir_all(&farmed);
        }
    }
    scratch.cleanup();
}

#[test]
fn killed_workers_leave_artifacts_byte_identical() {
    let scratch = Scratch::new("kill");
    let seed = 11u64;
    // Unharmed single-worker run is the reference.
    let reference = scratch.optimize("reference", seed, &["--workers", "1"]);
    // Kill matrix: dispatch point across farm sizes. The farm counts
    // asks across all its workers, and the conf's six trials dispatch at
    // least six, so every cell fires by construction (a kill that never
    // fires fails the run); the supervisor must absorb it. The first
    // and last asks are covered, and points in between.
    for (workers, kill) in [("2", "1"), ("2", "3"), ("4", "2"), ("4", "6")] {
        let name = format!("kill-w{workers}-at-{kill}");
        let harmed = scratch.optimize(&name, seed, &["--workers", workers, "--kill-worker", kill]);
        assert_artifacts_identical(
            &format!("--workers {workers} --kill-worker {kill} vs unharmed single worker"),
            &reference,
            &harmed,
        );
        let _ = std::fs::remove_dir_all(&harmed);
    }
    scratch.cleanup();
}

#[test]
fn injected_worker_faults_replay_identically() {
    let scratch = Scratch::new("faults");
    let seed = 3u64;
    let plan = "worker-crash:1@0;worker-stall:3@0";
    let inproc = scratch.optimize("faults-inproc", seed, &["--faults", plan]);
    let farmed = scratch.optimize("faults-farmed", seed, &["--faults", plan, "--workers", "2"]);
    assert_artifacts_identical(
        "injected worker faults, in-process vs farmed",
        &inproc,
        &farmed,
    );
    scratch.cleanup();
}
