//! End-to-end serving gate: the deterministic test matrix behind
//! `e2clab serve`. Each cell runs the million-user open-loop serving
//! mode (seasonal trace → per-epoch re-optimization under overload
//! semantics) and checks the reproducibility contract:
//!
//! * reruns at the same `(seed, scale)` leave byte-identical output
//!   trees (`serving.csv`, `trace.jsonl` and every file of the per-epoch
//!   archives), compared both ways round through
//!   `e2c_journal::compare_tree`;
//! * `--replay-check` agrees (the driver's own self-check);
//! * a run killed mid-epoch (`--crash-at`) or at an epoch boundary
//!   (`--crash-at-epoch`), then `--resume`d, converges on the same bytes
//!   as an uninterrupted journaled run, and a journal of an older wire
//!   version is refused by name;
//! * a saturating cell actually exercises the overload counters
//!   (rejections/sheds/SLO violations), and conservation
//!   `admitted + rejected + shed == offered` holds in every row.
//!
//! Scratch directories root at `E2C_GATE_DIR` when set so CI can upload
//! the differing artifacts on failure.

mod common;

use common::{assert_same_tree, gate_root};
use std::path::PathBuf;
use std::process::Command;

struct Fixture {
    root: PathBuf,
    seed: u64,
    scale: f64,
}

impl Fixture {
    fn new(label: &str, seed: u64, scale: f64) -> Fixture {
        let root = gate_root().join(format!(
            "e2clab-serving-gate-{label}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        Fixture { root, seed, scale }
    }

    /// `e2clab serve` with the cell's seed/scale, a small 2-epoch trace
    /// (kept light — the determinism story is length-independent), and
    /// the given extra flags; artifacts under `root/<name>`.
    fn serve(&self, name: &str, extra: &[&str]) -> std::process::Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_e2clab"));
        cmd.arg("serve")
            .args(["--out"])
            .arg(self.root.join(name))
            .args(["--scale", &format!("{}", self.scale)])
            .args(["--epochs", "2"])
            .args(["--epoch-duration", "30"])
            .args(["--samples", "2"])
            .args(["--concurrent", "2"])
            .args(["--queue-bound", "32"])
            .args(["--seed", &self.seed.to_string()])
            .args(extra);
        cmd.output().expect("run e2clab serve")
    }

    /// The tree whose bytes must survive any rerun or kill+resume: the
    /// run's `--out` directory, with the serving CSV, the serving trace
    /// and every per-epoch archive.
    fn artifacts(&self, name: &str) -> PathBuf {
        self.root.join(name)
    }
}

/// Parse `serving.csv` rows into `(offered, admitted, rejected, shed,
/// slo_violations)` tuples.
fn csv_counters(bytes: &[u8]) -> Vec<(u64, u64, u64, u64, u64)> {
    let text = std::str::from_utf8(bytes).expect("serving.csv is UTF-8");
    text.lines()
        .skip(1)
        .map(|line| {
            let f: Vec<&str> = line.split(',').collect();
            assert_eq!(f.len(), 16, "row arity: {line:?}");
            (
                f[8].parse().unwrap(),
                f[9].parse().unwrap(),
                f[10].parse().unwrap(),
                f[11].parse().unwrap(),
                f[12].parse().unwrap(),
            )
        })
        .collect()
}

/// The seed × scale matrix: every cell's rerun is byte-identical, and
/// conservation holds in every committed row.
#[test]
fn serving_matrix_reruns_are_byte_identical() {
    for seed in [3u64, 9] {
        for scale in [400_000.0f64, 2_500_000.0] {
            let fx = Fixture::new(&format!("matrix-s{seed}-u{scale}"), seed, scale);
            let ctx = format!("seed {seed} / scale {scale}");
            for name in ["a", "b"] {
                let out = fx.serve(name, &[]);
                assert!(
                    out.status.success(),
                    "{ctx}: {}",
                    String::from_utf8_lossy(&out.stderr)
                );
            }
            let a = fx.artifacts("a");
            assert_same_tree(&a, &fx.artifacts("b"), &ctx);
            let rows = csv_counters(&std::fs::read(a.join("serving.csv")).unwrap());
            assert_eq!(rows.len(), 2, "{ctx}: one row per epoch");
            for (offered, admitted, rejected, shed, _) in rows {
                assert!(offered > 0, "{ctx}: epochs offer load");
                assert_eq!(admitted + rejected + shed, offered, "{ctx}: conservation");
            }
            std::fs::remove_dir_all(&fx.root).unwrap();
        }
    }
}

/// A cell scaled far past engine capacity: the overload counters must
/// actually fire (a gate that never rejects is not testing overload).
#[test]
fn saturating_cell_exercises_overload_counters() {
    let fx = Fixture::new("saturate", 3, 12_500_000.0);
    let out = fx.serve("hot", &["--queue-bound", "16"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let csv = std::fs::read(fx.root.join("hot").join("serving.csv")).unwrap();
    let rows = csv_counters(&csv);
    let (mut rejected, mut shed, mut viol) = (0u64, 0u64, 0u64);
    for (offered, admitted, r, s, v) in rows {
        assert_eq!(admitted + r + s, offered, "conservation under overload");
        rejected += r;
        shed += s;
        viol += v;
    }
    assert!(
        rejected > 0,
        "a 12.5M-users/day trace must overflow the admission queue"
    );
    assert!(shed > 0, "deadline shedding must fire under saturation");
    assert!(viol > 0, "the 4 s SLO must be violated under saturation");
    std::fs::remove_dir_all(&fx.root).unwrap();
}

/// The driver's own self-check agrees with the gate.
#[test]
fn replay_check_passes() {
    let fx = Fixture::new("replay", 5, 2_500_000.0);
    let out = fx.serve("rc", &["--replay-check"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("replay-check: PASS"),
        "unexpected output:\n{stdout}"
    );
    std::fs::remove_dir_all(&fx.root).unwrap();
}

/// Kill mid-epoch (after the 5th journal append, inside epoch 0's cycle;
/// after the 10th, counted across epochs, inside epoch 1's) and at the
/// epoch-0 boundary; every resume must converge on the bytes of an
/// uninterrupted journaled run, which must itself match a plain run. A
/// crash point past the run's last append fails the run instead.
#[test]
fn kill_and_resume_converges_on_uninterrupted_bytes() {
    let fx = Fixture::new("kill", 3, 2_500_000.0);

    // Uninterrupted, unjournaled baseline.
    let out = fx.serve("base", &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = fx.artifacts("base");

    // Full journaled run: same bytes, plus a journal.
    let jfull = fx.root.join("full-journal");
    let out = fx.serve("full", &["--journal", jfull.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_same_tree(&baseline, &fx.artifacts("full"), "journaled vs plain");

    // Resuming a completed serving journal re-runs nothing and rewrites
    // the same bytes.
    let out = fx.serve("full", &["--resume", jfull.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "resume after complete: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_same_tree(&baseline, &fx.artifacts("full"), "resume after complete");

    // Mid-epoch kill: epoch 0's optimization cycle dies at its 5th
    // journal append (exit 86), leaving a half-written epoch journal.
    let jmid = fx.root.join("mid-journal");
    let out = fx.serve(
        "mid",
        &["--journal", jmid.to_str().unwrap(), "--crash-at", "5"],
    );
    assert_eq!(
        out.status.code(),
        Some(e2c_tune::CRASH_EXIT_CODE),
        "expected the crash exit code, got {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let out = fx.serve("mid", &["--resume", jmid.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "mid-epoch resume: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_same_tree(&baseline, &fx.artifacts("mid"), "mid-epoch kill");

    // `--crash-at` counts this process's appends across epochs: epoch 0
    // appends fewer than 10 records, so the 10th lands inside epoch 1,
    // after epoch 0's row committed.
    let jlate = fx.root.join("late-journal");
    let out = fx.serve(
        "late",
        &["--journal", jlate.to_str().unwrap(), "--crash-at", "10"],
    );
    assert_eq!(
        out.status.code(),
        Some(e2c_tune::CRASH_EXIT_CODE),
        "expected the crash exit code, got {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let partial = std::fs::read(fx.root.join("late").join("serving.csv")).unwrap();
    assert_eq!(csv_counters(&partial).len(), 1, "killed inside epoch 1");
    let out = fx.serve("late", &["--resume", jlate.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "epoch-1 resume: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_same_tree(&baseline, &fx.artifacts("late"), "epoch-1 kill");

    // A crash point no append reaches would let a chaos test pass
    // vacuously: the run fails and says so.
    let jnever = fx.root.join("never-journal");
    let out = fx.serve(
        "never",
        &["--journal", jnever.to_str().unwrap(), "--crash-at", "1000"],
    );
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--crash-at 1000 never fired"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let jpast = fx.root.join("past-journal");
    let out = fx.serve(
        "past",
        &[
            "--journal",
            jpast.to_str().unwrap(),
            "--crash-at-epoch",
            "5",
        ],
    );
    assert_eq!(out.status.code(), Some(1), "{:?}", out.status);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--crash-at-epoch 5 never fired"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Epoch-boundary kill: the run dies right after epoch 0's row
    // commits (WAL + CSV written, trace not yet rebuilt).
    let jcut = fx.root.join("cut-journal");
    let out = fx.serve(
        "cut",
        &["--journal", jcut.to_str().unwrap(), "--crash-at-epoch", "0"],
    );
    assert_eq!(
        out.status.code(),
        Some(e2c_tune::CRASH_EXIT_CODE),
        "expected the crash exit code, got {:?}\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    // The boundary kill left a complete 1-row serving.csv behind.
    let partial = std::fs::read(fx.root.join("cut").join("serving.csv")).unwrap();
    assert_eq!(csv_counters(&partial).len(), 1, "one epoch committed");
    let out = fx.serve("cut", &["--resume", jcut.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "boundary resume: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_same_tree(&baseline, &fx.artifacts("cut"), "epoch-boundary kill");

    std::fs::remove_dir_all(&fx.root).unwrap();
}

/// A committed epoch's archive is a view of its complete epoch journal,
/// so a machine crash may lose or tear its files. Lose one `result.csv`,
/// overwrite another with garbage and tear the epoch snapshots, once
/// after a completed run and once between an epoch-boundary kill and
/// `--resume`: the resume renders every committed epoch's archive again
/// from its journal, without re-running the epoch, to the uninterrupted
/// run's bytes.
#[test]
fn resume_renders_committed_epoch_archives_again() {
    let fx = Fixture::new("rerender", 3, 2_500_000.0);
    let out = fx.serve("base", &[]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let baseline = fx.artifacts("base");
    let damage = |name: &str| {
        let epochs = fx.artifacts(name).join("epochs");
        std::fs::remove_file(epochs.join("epoch_00/evals/trial_1/result.csv")).unwrap();
        std::fs::write(epochs.join("epoch_00/evaluations.csv"), "torn").unwrap();
        std::fs::remove_file(epochs.join("epoch_00/trials/trials.jsonl")).unwrap();
        if epochs.join("epoch_01").exists() {
            std::fs::write(epochs.join("epoch_01/evals/trial_0/result.csv"), "garbage").unwrap();
            std::fs::remove_file(epochs.join("epoch_01/best.yaml")).unwrap();
        }
    };

    let jfull = fx.root.join("full-journal");
    let j = jfull.to_str().unwrap();
    let out = fx.serve("full", &["--journal", j]);
    assert!(out.status.success(), "{:?}", out.status);
    damage("full");
    let out = fx.serve("full", &["--resume", j]);
    assert!(
        out.status.success(),
        "resume after complete: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_same_tree(&baseline, &fx.artifacts("full"), "damage after complete");

    let jcut = fx.root.join("cut-journal");
    let j = jcut.to_str().unwrap();
    let out = fx.serve("cut", &["--journal", j, "--crash-at-epoch", "0"]);
    assert_eq!(
        out.status.code(),
        Some(e2c_tune::CRASH_EXIT_CODE),
        "{:?}",
        out.status
    );
    damage("cut");
    let out = fx.serve("cut", &["--resume", j]);
    assert!(
        out.status.success(),
        "boundary resume: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_same_tree(&baseline, &fx.artifacts("cut"), "damage after a kill");
    std::fs::remove_dir_all(&fx.root).unwrap();
}

/// A serving journal binds the run's parameters: resuming under a
/// different scale is refused, and the flag grammar is validated.
#[test]
fn resume_refuses_changed_parameters_and_flags_are_validated() {
    let fx = Fixture::new("refuse", 3, 2_500_000.0);
    let jdir = fx.root.join("journal");
    let j = jdir.to_str().unwrap().to_string();
    let out = fx.serve("run", &["--journal", &j, "--crash-at-epoch", "0"]);
    assert_eq!(out.status.code(), Some(86), "{:?}", out.status);

    // Changed scale: refused before any epoch re-runs.
    let other = Fixture {
        root: fx.root.clone(),
        seed: fx.seed,
        scale: 400_000.0,
    };
    let out = other.serve("run", &["--resume", &j]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("different serving run"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A fresh --journal refuses to clobber an existing one.
    let out = fx.serve("run", &["--journal", &j]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--resume"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Flag validation: crash knobs alone, --journal + --resume, and
    // --replay-check + --journal are usage errors (exit 2).
    for extra in [
        &["--crash-at", "2"][..],
        &["--crash-at-epoch", "0"][..],
        &["--journal", "a", "--resume", "b"][..],
        &["--replay-check", "--journal", "a"][..],
    ] {
        let out = fx.serve("run", extra);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {:?}", out.status);
    }

    // A journal root in the layout of wire version 2 (a `serving.wal`
    // beside version-2 epoch journals) is refused, naming the version.
    let old = fx.root.join("v2-journal");
    for (rel, record) in [
        ("serving.wal", "meta\nfp"),
        ("epoch_00/run.wal", "meta\t2\tfp"),
    ] {
        let mut wal = e2c_journal::Wal::create(&old.join(rel)).unwrap();
        wal.append(record.as_bytes()).unwrap();
    }
    let out = fx.serve("old", &["--resume", old.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("version 2 is not supported"), "{stderr}");
    std::fs::remove_dir_all(&fx.root).unwrap();
}
