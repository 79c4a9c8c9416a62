//! End-to-end crash/resume gate: kill `e2clab optimize --journal` at
//! every write-ahead-log append boundary (via the `--crash-at` chaos
//! knob), resume each kill with `--resume`, and compare the run's whole
//! archive and trace trees with an uninterrupted baseline run of the
//! same seed: every file and directory, byte for byte, both ways round
//! (`e2c_journal::compare_tree`).  The journal directory holds only
//! `run.wal`: a traced run's trace rides in its tell records.  It is not
//! compared, because a resumed journal holds `restart` records.  The
//! per-trial files (`result.csv`, `cycles/*.prom`) are views written
//! without fsync, so the gate also deletes, truncates or corrupts them,
//! as a machine crash could, or leaves the tmp file of a cut-short
//! rewrite beside them, and checks that `--resume` leaves the baseline's
//! tree again.
//! This is the paper's repeatability claim under process failure: a
//! crashed optimization, resumed, is indistinguishable from one that
//! never crashed.
//!
//! The sweep runs per `max_concurrent` ∈ {1, 2, 4}: the commit sequencer
//! promises byte-identity at any concurrency, and each cell is compared
//! against its *own* uninterrupted baseline (the canonical commit order
//! depends on the worker-window size, so cells differ from each other by
//! design).  Scratch directories root at `E2C_GATE_DIR` when set so CI
//! can upload the differing artifacts on failure.

use e2c_journal::Sameness;
use std::path::{Path, PathBuf};
use std::process::Command;

const CONF: &str = r#"
name: crash-gate
optimization:
  metric: response_time
  mode: min
  name: crash-gate
  num_samples: 3
  max_concurrent: 1
  fault_tolerance:
    max_retries: 1
    backoff_ms: 1
    max_backoff_ms: 2
  search:
    algo: extra_trees
    n_initial_points: 2
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

/// Root for gate scratch directories: `E2C_GATE_DIR` when set (CI points
/// this at a workspace path and uploads it when the gate fails), the
/// system temp directory otherwise.
fn gate_root() -> PathBuf {
    std::env::var_os("E2C_GATE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(std::env::temp_dir)
}

struct Fixture {
    root: PathBuf,
    conf: PathBuf,
    seed: u64,
}

impl Fixture {
    fn new(label: &str, max_concurrent: u32, seed: u64) -> Fixture {
        let root = gate_root().join(format!("e2clab-crash-gate-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let conf = root.join("conf.yaml");
        std::fs::write(
            &conf,
            CONF.replace(
                "max_concurrent: 1",
                &format!("max_concurrent: {max_concurrent}"),
            ),
        )
        .unwrap();
        Fixture { root, conf, seed }
    }

    /// `e2clab optimize --duration 20 --seed <seed> --faults fail:1@0 ...`
    /// plus the given extra flags; archive/trace under `root/<name>`.
    fn optimize(&self, name: &str, extra: &[&str]) -> std::process::Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_e2clab"));
        cmd.arg("optimize")
            .args(["--duration", "20"])
            .args(["--seed", &self.seed.to_string()])
            .args(["--faults", "fail:1@0"])
            .args(["--archive"])
            .arg(self.root.join(name))
            .args(["--trace"])
            .arg(self.root.join(format!("{name}-trace")))
            .args(extra)
            .arg(&self.conf);
        cmd.output().expect("run e2clab optimize")
    }

    /// [`Fixture::optimize`] that must succeed; `ctx` labels a failure.
    fn optimize_ok(&self, name: &str, extra: &[&str], ctx: &str) {
        let out = self.optimize(name, extra);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{ctx}: {stderr}");
    }

    /// The trees whose bytes must survive any kill+resume: the run's
    /// archive and trace directories.
    fn artifacts(&self, name: &str) -> [PathBuf; 2] {
        [
            self.root.join(name),
            self.root.join(format!("{name}-trace")),
        ]
    }

    /// The first `cycles/*.prom` and the last `evals/*/result.csv` of
    /// the run `name`: two per-trial views of different trials.
    fn views(&self, name: &str) -> [PathBuf; 2] {
        let cycles = self.root.join(format!("{name}-trace")).join("cycles");
        let prom = cycles.join(&listing(&cycles)[0]);
        let evals = self.root.join(name).join("evals");
        let result = listing(&evals)
            .iter()
            .rev()
            .map(|t| evals.join(t).join("result.csv"))
            .find(|p| p.exists())
            .expect("a trial with a result");
        [prom, result]
    }
}

/// The sorted entry names of `dir`.
fn listing(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("list {}: {e}", dir.display()))
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    names.sort();
    names
}

/// What a machine crash can leave of a file written without fsync.
#[derive(Clone, Copy, Debug)]
enum Damage {
    Delete,
    Truncate,
    Corrupt,
    /// The file's whole directory is gone.
    LoseDir,
    /// A kill cut short a rewrite of the file: the tmp file of its write
    /// is left beside it.
    StrayTmp,
}

impl Damage {
    fn apply(self, path: &Path) {
        let mut bytes = std::fs::read(path).unwrap();
        match self {
            Damage::Delete => return std::fs::remove_file(path).unwrap(),
            Damage::LoseDir => return std::fs::remove_dir_all(path.parent().unwrap()).unwrap(),
            Damage::StrayTmp => {
                bytes.truncate(bytes.len() / 2);
                return std::fs::write(format!("{}.tmp", path.display()), bytes).unwrap();
            }
            Damage::Truncate => bytes.truncate(bytes.len() / 2),
            Damage::Corrupt => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x01;
            }
        }
        std::fs::write(path, bytes).unwrap();
    }
}

/// Assert that each tree of `want` and the same tree of `got` hold the
/// same files and directories with the same bytes, both ways round: a
/// resume that leaves a stray file fails too.
fn assert_same_artifacts(want: &[PathBuf; 2], got: &[PathBuf; 2], ctx: &str) {
    for (a, b) in want.iter().zip(got) {
        for (fresh, other) in [(a, b), (b, a)] {
            let entries = e2c_journal::compare_tree(fresh, other)
                .unwrap_or_else(|e| panic!("{ctx}: list {}: {e}", fresh.display()));
            assert!(!entries.is_empty(), "{ctx}: {} is empty", fresh.display());
            let bad: Vec<_> = entries
                .iter()
                .filter(|(_, same)| matches!(same, Sameness::Differs(..) | Sameness::Missing))
                .collect();
            assert!(
                bad.is_empty(),
                "{ctx}: {} against {}: {bad:?} — resumed run is not byte-identical",
                fresh.display(),
                other.display()
            );
        }
    }
}

fn wal_records(path: &Path) -> usize {
    e2c_journal::read_records(path)
        .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
        .len()
}

/// One full matrix cell: uninterrupted baseline, full journaled run,
/// resume-after-complete, then kill at *every* append boundary and
/// resume — all artifact sets byte-compared against the cell's baseline.
fn kill_sweep_cell(workers: u32, seed: u64) {
    let fx = Fixture::new(&format!("sweep-w{workers}-s{seed}"), workers, seed);
    let ctx = format!("w{workers}/s{seed}");

    // Uninterrupted, unjournaled baseline for this cell.
    fx.optimize_ok("base", &[], &ctx);
    let baseline = fx.artifacts("base");

    // Full journaled run: same bytes as the plain run, plus a journal.
    let jdir = fx.root.join("full-journal");
    fx.optimize_ok("full", &["--journal", jdir.to_str().unwrap()], &ctx);
    assert_same_artifacts(
        &baseline,
        &fx.artifacts("full"),
        &format!("{ctx}: journaled vs plain"),
    );
    let records = wal_records(&jdir.join("run.wal"));
    assert!(
        records > 5,
        "{ctx}: suspiciously small journal: {records} records"
    );

    // Resuming a completed journal re-executes nothing and rewrites the
    // same bytes.
    fx.optimize_ok("full", &["--resume", jdir.to_str().unwrap()], &ctx);
    assert_same_artifacts(
        &baseline,
        &fx.artifacts("full"),
        &format!("{ctx}: resume after complete"),
    );

    // The sweep: kill right after every journal append, resume, compare.
    for cut in 1..=records {
        let name = format!("cut{cut}");
        let jdir = fx.root.join(format!("{name}-journal"));
        let out = fx.optimize(
            &name,
            &[
                "--journal",
                jdir.to_str().unwrap(),
                "--crash-at",
                &cut.to_string(),
            ],
        );
        assert_eq!(
            out.status.code(),
            Some(e2c_tune::CRASH_EXIT_CODE),
            "{ctx}: cut {cut}: expected the crash exit code, got {:?}\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        fx.optimize_ok(
            &name,
            &["--resume", jdir.to_str().unwrap()],
            &format!("{ctx}: cut {cut}: resume"),
        );
        assert_same_artifacts(
            &baseline,
            &fx.artifacts(&name),
            &format!("{ctx}: cut {cut}"),
        );
    }

    std::fs::remove_dir_all(&fx.root).unwrap();
}

#[test]
fn kill_sweep_sequential() {
    kill_sweep_cell(1, 3);
}

#[test]
fn kill_sweep_two_workers() {
    kill_sweep_cell(2, 3);
}

#[test]
fn kill_sweep_four_workers() {
    kill_sweep_cell(4, 3);
}

/// The seed dimension of the matrix, kept lighter than the full sweep:
/// for each (seed, workers) cell, one mid-run kill + resume must match
/// the cell's own uninterrupted baseline.
#[test]
fn mid_run_kill_resumes_across_the_seed_concurrency_matrix() {
    for seed in [5u64, 9] {
        for workers in [2u32, 4] {
            let fx = Fixture::new(&format!("matrix-w{workers}-s{seed}"), workers, seed);
            let ctx = format!("w{workers}/s{seed}");
            fx.optimize_ok("base", &[], &ctx);
            let baseline = fx.artifacts("base");
            let jdir = fx.root.join("journal");
            let j = jdir.to_str().unwrap().to_string();
            let out = fx.optimize("run", &["--journal", &j, "--crash-at", "6"]);
            assert_eq!(
                out.status.code(),
                Some(e2c_tune::CRASH_EXIT_CODE),
                "{ctx}: {:?}\n{}",
                out.status.code(),
                String::from_utf8_lossy(&out.stderr)
            );
            fx.optimize_ok("run", &["--resume", &j], &format!("{ctx}: resume"));
            assert_same_artifacts(&baseline, &fx.artifacts("run"), &ctx);
            std::fs::remove_dir_all(&fx.root).unwrap();
        }
    }
}

/// A killed traced run keeps its whole durable state in `run.wal`: the
/// journal directory lists nothing else, and resuming from that file
/// alone converges on the baseline bytes, trace included.
#[test]
fn a_killed_traced_run_resumes_from_run_wal_alone() {
    let fx = Fixture::new("wal-only", 2, 5);
    fx.optimize_ok("base", &[], "baseline");
    let baseline = fx.artifacts("base");

    let jdir = fx.root.join("journal");
    let j = jdir.to_str().unwrap().to_string();
    let out = fx.optimize("run", &["--journal", &j, "--crash-at", "8"]);
    assert_eq!(out.status.code(), Some(86), "{:?}", out.status);
    let listed: Vec<String> = std::fs::read_dir(&jdir)
        .unwrap()
        .flatten()
        .filter_map(|e| e.file_name().into_string().ok())
        .collect();
    assert_eq!(listed, ["run.wal"], "journal directory after the kill");
    fx.optimize_ok("run", &["--resume", &j], "resume");
    assert_same_artifacts(&baseline, &fx.artifacts("run"), "resume from run.wal");
    std::fs::remove_dir_all(&fx.root).unwrap();
}

/// A journal written before the early-stopping `report` record was
/// retired still resumes: no `optimize` run wrote that record, so the
/// wire version stayed 4. The fixture was written by the build of commit
/// 579ca50, `e2clab optimize --duration 20 --seed 4 --faults fail:1@0
/// --archive A --trace T --journal J --crash-at 6` on this gate's conf at
/// `max_concurrent: 1`: trial 0 settled, trial 1 dangling after its
/// injected failure. Resumed by this build, it converges on the bytes of
/// an uninterrupted run.
#[test]
fn a_journal_from_the_previous_build_resumes_byte_identically() {
    let fx = Fixture::new("wire4", 1, 4);
    fx.optimize_ok("base", &[], "baseline");
    let baseline = fx.artifacts("base");

    let jdir = fx.root.join("journal");
    std::fs::create_dir_all(&jdir).unwrap();
    std::fs::write(
        jdir.join("run.wal"),
        include_bytes!("data/wire4_seed4_killed_at_6.wal"),
    )
    .unwrap();
    assert_eq!(wal_records(&jdir.join("run.wal")), 6);
    let j = jdir.to_str().unwrap().to_string();
    fx.optimize_ok(
        "run",
        &["--resume", &j],
        "resume a previous build's journal",
    );
    assert_same_artifacts(&baseline, &fx.artifacts("run"), "previous build's journal");
    std::fs::remove_dir_all(&fx.root).unwrap();
}

#[test]
fn a_crash_during_resume_is_itself_resumable() {
    // Two workers: each crash can leave two trials in the commit window,
    // so the resumes re-dispatch more than one dangling trial.
    let fx = Fixture::new("double", 2, 3);
    fx.optimize_ok("base", &[], "baseline");
    let baseline = fx.artifacts("base");

    let jdir = fx.root.join("journal");
    let j = jdir.to_str().unwrap().to_string();
    let out = fx.optimize("run", &["--journal", &j, "--crash-at", "4"]);
    assert_eq!(out.status.code(), Some(86), "{:?}", out.status);
    let out = fx.optimize("run", &["--resume", &j, "--crash-at", "3"]);
    assert_eq!(out.status.code(), Some(86), "{:?}", out.status);
    fx.optimize_ok("run", &["--resume", &j], "resume");
    assert_same_artifacts(&baseline, &fx.artifacts("run"), "double crash");
    std::fs::remove_dir_all(&fx.root).unwrap();
}

/// The per-trial views are written without fsync, so a machine crash may
/// lose or tear them, or lose their directory, and a kill may cut a
/// rewrite short and leave its tmp file. Damage one `cycles/*.prom` and
/// one `result.csv`, once between a kill and `--resume` and once after a
/// completed run: the resume renders both again, to the uninterrupted
/// run's bytes, and removes any tmp file. Losing the directory takes all
/// of `cycles/` with the prom, and the whole `evals/trial_N/` with the
/// result.
#[test]
fn resume_renders_lost_or_torn_views_again() {
    let fx = Fixture::new("views", 2, 3);
    fx.optimize_ok("base", &[], "baseline");
    let baseline = fx.artifacts("base");
    let jdir = fx.root.join("full-journal");
    let j = jdir.to_str().unwrap().to_string();
    fx.optimize_ok("full", &["--journal", &j], "journaled run");
    // Killed right before the completion record: every trial settled.
    let last_cut = wal_records(&jdir.join("run.wal")) - 1;
    for damage in [
        Damage::Delete,
        Damage::Truncate,
        Damage::Corrupt,
        Damage::LoseDir,
        Damage::StrayTmp,
    ] {
        let ctx = format!("{damage:?} after a completed run");
        for view in fx.views("full") {
            damage.apply(&view);
        }
        fx.optimize_ok("full", &["--resume", &j], &ctx);
        assert_same_artifacts(&baseline, &fx.artifacts("full"), &ctx);

        let ctx = format!("{damage:?} between a kill and --resume");
        let name = format!("killed-{damage:?}");
        let kdir = fx.root.join(format!("{name}-journal"));
        let k = kdir.to_str().unwrap().to_string();
        let out = fx.optimize(
            &name,
            &["--journal", &k, "--crash-at", &last_cut.to_string()],
        );
        assert_eq!(out.status.code(), Some(86), "{ctx}: {:?}", out.status);
        for view in fx.views(&name) {
            damage.apply(&view);
        }
        fx.optimize_ok(&name, &["--resume", &k], &ctx);
        assert_same_artifacts(&baseline, &fx.artifacts(&name), &ctx);
    }
    std::fs::remove_dir_all(&fx.root).unwrap();
}

#[test]
fn resume_refuses_a_journal_from_a_different_run_and_flags_are_validated() {
    let fx = Fixture::new("refuse", 1, 3);
    let jdir = fx.root.join("journal");
    let j = jdir.to_str().unwrap().to_string();
    let out = fx.optimize("run", &["--journal", &j, "--crash-at", "2"]);
    assert_eq!(out.status.code(), Some(86), "{:?}", out.status);

    // Wrong seed: refused before any state is touched.
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_e2clab"));
    cmd.arg("optimize")
        .args(["--duration", "20", "--seed", "4", "--faults", "fail:1@0"])
        .args(["--archive"])
        .arg(fx.root.join("run"))
        .args(["--trace"])
        .arg(fx.root.join("run-trace"))
        .args(["--resume", &j])
        .arg(&fx.conf);
    let out = cmd.output().unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("different configuration"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // A fresh --journal refuses to clobber an existing one.
    let out = fx.optimize("run", &["--journal", &j]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--resume"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Flag validation: --crash-at alone, --journal + --resume, and
    // --replay-check + --journal are usage errors.
    for extra in [
        &["--crash-at", "2"][..],
        &["--journal", "a", "--resume", "b"][..],
        &["--replay-check", "--journal", "a"][..],
    ] {
        let out = fx.optimize("run", extra);
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {:?}", out.status);
    }

    // `max_concurrent` shapes the canonical commit order, so it is part
    // of the journal fingerprint: editing it between crash and resume is
    // refused, not silently diverged.
    std::fs::write(
        &fx.conf,
        CONF.replace("max_concurrent: 1", "max_concurrent: 2"),
    )
    .unwrap();
    let out = fx.optimize("run", &["--resume", &j]);
    assert!(!out.status.success(), "{:?}", out.status);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("different configuration"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&fx.root).unwrap();
}
