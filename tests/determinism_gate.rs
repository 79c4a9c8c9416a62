//! End-to-end gates for the determinism story:
//!
//! * `workspace_lint_is_clean` — the detlint pass over this repository
//!   exits clean (every remaining hazard carries a justified allow);
//! * `replay_check_*` — `e2clab optimize --replay-check` runs the same
//!   seeded cycle twice and proves every file of the second run's archive
//!   and trace comes out byte-identical, across a seed ×
//!   `max_concurrent` ∈ {1, 2, 4} matrix (the commit sequencer makes
//!   concurrent cycles replay bit-exactly too);
//! * `traced_runs_*` — two separate seeded runs, archived, traced and
//!   journaled, leave byte-identical trees, `run.wal` included, and
//!   `e2clab trace summarize` renders the trace.
//!
//! Scratch directories root at `E2C_GATE_DIR` when set so CI can upload
//! the differing artifacts on failure.

use e2c_journal::Sameness;
use std::path::{Path, PathBuf};
use std::process::Command;

fn workspace_root() -> PathBuf {
    // These tests live in the workspace's root package.
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
}

/// Root for gate scratch directories: `E2C_GATE_DIR` when set (CI points
/// this at a workspace path and uploads it when the gate fails), the
/// system temp directory otherwise.
fn gate_root() -> PathBuf {
    std::env::var_os("E2C_GATE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

const TINY_CONF: &str = r#"
name: replay-gate
optimization:
  metric: response_time
  mode: min
  name: replay-gate
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

#[test]
fn workspace_lint_is_clean() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2clab"))
        .arg("lint")
        .arg(workspace_root())
        .output()
        .expect("run e2clab lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "lint found unsuppressed hazards:\n{stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("0 error(s)"), "{stdout}");
}

/// Linting one crate keeps workspace-relative labels, so its files stay
/// under the path-scoped rules; the tuner must pass them all.
#[test]
fn tuner_crate_lints_clean_without_a_baseline() {
    let out = Command::new(env!("CARGO_BIN_EXE_e2clab"))
        .args(["lint", "--format", "json"])
        .arg(workspace_root().join("crates/tune"))
        .output()
        .expect("run e2clab lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "tuner crate lint failed:\n{stdout}");
    assert!(
        stdout.contains("\"file\": \"crates/tune/src/tuner.rs\""),
        "{stdout}"
    );
}

#[test]
fn lint_rejects_a_dirty_tree() {
    let dir = std::env::temp_dir().join(format!("detlint-dirty-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("bad.rs"),
        "fn f() { let mut r = StdRng::from_entropy(); r.gen::<u8>(); }\n",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_e2clab"))
        .arg("lint")
        .arg(&dir)
        .output()
        .expect("run e2clab lint");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("DET003"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_check_proves_byte_identical_artifacts_across_the_matrix() {
    let base = gate_root().join(format!("e2clab-replaygate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();

    for seed in ["11", "23"] {
        for workers in ["1", "2", "4"] {
            let cell = base.join(format!("s{seed}-w{workers}"));
            std::fs::create_dir_all(&cell).unwrap();
            let conf = cell.join("conf.yaml");
            std::fs::write(
                &conf,
                TINY_CONF.replace("max_concurrent: 2", &format!("max_concurrent: {workers}")),
            )
            .unwrap();
            let archive = cell.join("archive");

            let out = Command::new(env!("CARGO_BIN_EXE_e2clab"))
                .args([
                    "optimize",
                    "--seed",
                    seed,
                    "--duration",
                    "30",
                    "--replay-check",
                    "--archive",
                ])
                .arg(&archive)
                .arg("--trace")
                .arg(cell.join("trace"))
                .arg(&conf)
                .output()
                .expect("run e2clab optimize --replay-check");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "replay check failed (seed {seed}, workers {workers}):\n{stdout}{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let trials = (0..6).map(|t| format!("evals/trial_{t}/result.csv"));
            for rel in [
                "best.yaml",
                "evaluations.csv",
                "problem.yaml",
                "summary.txt",
                "trials/trials.jsonl",
                "trace/trace.jsonl",
                "trace/metrics.prom",
            ]
            .map(String::from)
            .into_iter()
            .chain(trials)
            {
                let line = format!("replay-check: {rel} identical (");
                assert!(stdout.contains(&line), "{line}\n{stdout}");
            }
            assert!(stdout.contains("replay-check: PASS"), "{stdout}");
            // The requested archive survives the check.
            assert!(archive.join("evaluations.csv").is_file());
            assert!(archive.join("trials").join("trials.jsonl").is_file());
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// Two *independent* seeded processes — not the in-process double run of
/// `--replay-check` — must still leave byte-identical archive, trace and
/// journal trees, `run.wal` included, and the recorded trace must
/// summarize.
#[test]
fn traced_runs_are_byte_identical_and_summarizable() {
    let base = gate_root().join(format!("e2clab-tracegate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let conf = base.join("conf.yaml");
    // max_concurrent stays at the conf's 2: the commit sequencer splices
    // every worker's trace into canonical order, so even concurrent runs
    // promise byte-identical traces.
    std::fs::write(&conf, TINY_CONF).unwrap();

    for run in ["a", "b"] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_e2clab"));
        cmd.args(["optimize", "--seed", "11", "--duration", "30"]);
        for dir in ["archive", "trace", "journal"] {
            cmd.arg(format!("--{dir}")).arg(base.join(run).join(dir));
        }
        let out = cmd
            .arg(&conf)
            .output()
            .expect("run e2clab optimize --trace");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let (a, b) = (base.join("a"), base.join("b"));
    for (fresh, other) in [(&a, &b), (&b, &a)] {
        let entries = e2c_journal::compare_tree(fresh, other).unwrap();
        assert!(
            entries.iter().any(|(rel, _)| rel == "journal/run.wal"),
            "{entries:?}"
        );
        assert!(
            entries
                .iter()
                .any(|(rel, _)| rel.starts_with("trace/cycles/")),
            "expected per-trial cycle exports: {entries:?}"
        );
        let bad: Vec<_> = entries
            .iter()
            .filter(|(_, same)| !matches!(same, Sameness::Identical(1..)))
            .collect();
        assert!(
            bad.is_empty(),
            "empty or differs between seeded runs: {bad:?}"
        );
    }

    let out = Command::new(env!("CARGO_BIN_EXE_e2clab"))
        .args(["trace", "summarize"])
        .arg(a.join("trace"))
        .output()
        .expect("run e2clab trace summarize");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("per-phase breakdown"), "{stdout}");
    assert!(stdout.contains("per-trial critical path"), "{stdout}");
    assert!(stdout.contains("tuner"), "{stdout}");
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn replay_check_without_archive_cleans_up() {
    let base = gate_root().join(format!("e2clab-replaygate2-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let conf = base.join("conf.yaml");
    std::fs::write(&conf, TINY_CONF).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_e2clab"))
        .args([
            "optimize",
            "--seed",
            "3",
            "--duration",
            "30",
            "--replay-check",
        ])
        .arg(&conf)
        .output()
        .expect("run e2clab optimize --replay-check");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("replay-check: PASS"));
    std::fs::remove_dir_all(&base).unwrap();
}
