//! End-to-end gates for the multi-process trial farm:
//!
//! * `farmed_runs_match_in_process_artifacts` — the same seeded cycle
//!   run in-process and farmed over `--workers` ∈ {1, 2, 4} produces
//!   byte-identical `evaluations.csv`, `trials/trials.jsonl` and every
//!   trace artifact: the worker count shapes wall-clock only, never
//!   results;
//! * `killed_workers_leave_artifacts_byte_identical` — the kill matrix:
//!   a journaled, traced `--workers` run whose worker is SIGKILLed at
//!   the farm's Nth dispatched ask (`--kill-worker N`) still matches an
//!   unharmed single-worker run byte for byte — the supervisor respawns
//!   the worker and re-dispatches the orphaned ask transparently;
//! * `injected_worker_faults_replay_identically` — `--faults
//!   worker-crash/worker-stall` plans short-circuit tuner-side, so the
//!   same plan yields identical artifacts with and without a farm.
//!
//! Scratch directories root at `E2C_GATE_DIR` when set so CI can upload
//! the differing artifacts on failure.

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

    /// `e2clab optimize --seed <seed> --duration 30 --archive <dir>
    /// --trace <dir>-trace <extra...> conf.yaml`, asserting success.
    /// Returns the `(archive, trace)` directory pair.
    fn optimize(&self, name: &str, seed: u64, extra: &[&str]) -> (PathBuf, PathBuf) {
        let archive = self.root.join(name);
        let trace = self.root.join(format!("{name}-trace"));
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_e2clab"));
        cmd.arg("optimize")
            .arg("--seed")
            .arg(seed.to_string())
            .arg("--duration")
            .arg("30")
            .arg("--archive")
            .arg(&archive)
            .arg("--trace")
            .arg(&trace)
            .args(extra)
            .arg(&self.conf);
        let out = cmd.output().expect("run e2clab optimize");
        assert!(
            out.status.success(),
            "optimize {name} (seed {seed}, extra {extra:?}) failed:\n{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr),
        );
        (archive, trace)
    }

    fn cleanup(self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Byte-compare every artifact the cycle writes: the archive's
/// `evaluations.csv` + `trials/trials.jsonl` and the trace directory's
/// `trace.jsonl`, `metrics.prom` and each `cycles/*.prom` snapshot.
fn assert_artifacts_identical(
    label: &str,
    (archive_a, trace_a): &(PathBuf, PathBuf),
    (archive_b, trace_b): &(PathBuf, PathBuf),
) {
    let mut pairs: Vec<(String, PathBuf, PathBuf)> = ["evaluations.csv", "trials/trials.jsonl"]
        .into_iter()
        .map(|rel| (rel.to_string(), archive_a.join(rel), archive_b.join(rel)))
        .collect();
    let mut rels = vec!["trace.jsonl".to_string(), "metrics.prom".to_string()];
    let cycles = std::fs::read_dir(trace_a.join("cycles")).expect("trace cycles dir");
    let mut names: Vec<String> = cycles
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    assert!(!names.is_empty(), "{label}: no per-trial prom snapshots");
    rels.extend(names.into_iter().map(|n| format!("cycles/{n}")));
    for rel in rels {
        pairs.push((
            format!("trace/{rel}"),
            trace_a.join(&rel),
            trace_b.join(&rel),
        ));
    }
    for (rel, path_a, path_b) in pairs {
        let a = std::fs::read(&path_a)
            .unwrap_or_else(|e| panic!("{label}: read {}: {e}", path_a.display()));
        let b = std::fs::read(&path_b)
            .unwrap_or_else(|e| panic!("{label}: read {}: {e}", path_b.display()));
        assert!(
            a == b,
            "{label}: {rel} differs ({} vs {} bytes) — artifacts are \
             kept under {} for inspection",
            a.len(),
            b.len(),
            path_a.parent().unwrap().display(),
        );
    }
}

fn delete_on_success(paths: &[&Path]) {
    for p in paths {
        let _ = std::fs::remove_dir_all(p);
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
            delete_on_success(&[&farmed.0, &farmed.1]);
        }
    }
    scratch.cleanup();
}

#[test]
fn killed_workers_leave_artifacts_byte_identical() {
    let scratch = Scratch::new("kill");
    let seed = 11u64;
    // Unharmed single-worker journaled run is the reference.
    let reference = scratch.optimize(
        "reference",
        seed,
        &[
            "--workers",
            "1",
            "--journal",
            scratch.root.join("ref-journal").to_str().unwrap(),
        ],
    );
    // Kill matrix: dispatch point across farm sizes. The farm counts
    // asks across all its workers, and the conf's six trials dispatch at
    // least six, so every cell fires by construction (a kill that never
    // fires fails the run); the supervisor must absorb it. The first
    // and last asks are covered, and points in between.
    for (workers, kill) in [("2", "1"), ("2", "3"), ("4", "2"), ("4", "6")] {
        let name = format!("kill-w{workers}-at-{kill}");
        let journal = scratch.root.join(format!("{name}-journal"));
        let harmed = scratch.optimize(
            &name,
            seed,
            &[
                "--workers",
                workers,
                "--kill-worker",
                kill,
                "--journal",
                journal.to_str().unwrap(),
            ],
        );
        assert_artifacts_identical(
            &format!("--workers {workers} --kill-worker {kill} vs unharmed single worker"),
            &reference,
            &harmed,
        );
        delete_on_success(&[&harmed.0, &harmed.1, &journal]);
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
