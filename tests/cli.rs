//! Integration tests for the `e2clab` CLI binary.

use std::path::PathBuf;
use std::process::Command;

const CONF: &str = r#"
name: cli-test
layers:
  - name: cloud
    services:
      - name: engine
        cluster: chifflot
        quantity: 1
  - name: edge
    services:
      - name: clients
        cluster: gros
        quantity: 2
network:
  - src: edge
    dst: cloud
    delay_ms: 5.0
    rate_mbps: 10000
optimization:
  metric: user_resp_time
  mode: min
  name: cli-test
  num_samples: 4
  max_concurrent: 2
  search:
    algo: random
  config:
    - name: http
      bounds: [20, 60]
    - name: download
      bounds: [20, 60]
    - name: simsearch
      bounds: [20, 60]
    - name: extract
      bounds: [3, 9]
"#;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_e2clab"))
}

fn write_conf(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("e2clab-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, text).expect("write temp conf");
    path
}

#[test]
fn validate_accepts_good_and_rejects_bad() {
    let good = write_conf("good.yaml", CONF);
    let out = bin().arg("validate").arg(&good).output().expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok: experiment `cli-test`"), "{stdout}");

    let bad = write_conf("bad.yaml", "layers: []\n"); // missing name
    let out = bin().arg("validate").arg(&bad).output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("invalid"), "{stderr}");
    let _ = std::fs::remove_file(good);
    let _ = std::fs::remove_file(bad);
}

#[test]
fn deploy_prints_the_scenario() {
    let conf = write_conf("deploy.yaml", CONF);
    let out = bin().arg("deploy").arg(&conf).output().expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("chifflot-1.lille"), "{stdout}");
    assert!(stdout.contains("net edge <-> cloud"), "{stdout}");
    let _ = std::fs::remove_file(conf);
}

#[test]
fn optimize_runs_and_reports() {
    let conf = write_conf("optimize.yaml", CONF);
    let archive = std::env::temp_dir().join(format!("e2clab-cli-arch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&archive);
    let out = bin()
        .args([
            "optimize",
            "--repeat",
            "1",
            "--duration",
            "40",
            "--seed",
            "5",
            "--archive",
        ])
        .arg(&archive)
        .arg(&conf)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("best user_resp_time"), "{stdout}");
    assert!(archive.join("evaluations.csv").is_file());

    // `report` re-prints the stored summary.
    let out = bin().arg("report").arg(&archive).output().expect("spawn");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("best configuration"));

    let _ = std::fs::remove_file(conf);
    let _ = std::fs::remove_dir_all(archive);
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = bin().arg("frobnicate").output().expect("spawn");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_search_algo_is_rejected_at_validation() {
    let bad = write_conf(
        "bad-algo.yaml",
        &CONF.replace("algo: random", "algo: sorcery"),
    );
    let out = bin().arg("validate").arg(&bad).output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("optimization.search.algo"), "{stderr}");
    assert!(stderr.contains("sorcery"), "{stderr}");
    let _ = std::fs::remove_file(bad);
}

#[test]
fn malformed_faults_spec_fails_with_usage() {
    let conf = write_conf("faults-bad.yaml", CONF);
    let out = bin()
        .args(["optimize", "--faults", "explode:everything"])
        .arg(&conf)
        .output()
        .expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--faults"), "{stderr}");
    let _ = std::fs::remove_file(conf);
}

#[test]
fn injected_fault_is_retried_and_recorded_in_the_archive() {
    // Give the config a retry budget, fail trial 1's first attempt from
    // the CLI knob, and check the archive shows the recovery.
    let text = CONF.replace(
        "  search:",
        "  fault_tolerance:\n    max_retries: 1\n    backoff_ms: 1\n  search:",
    );
    let conf = write_conf("faults.yaml", &text);
    let archive = std::env::temp_dir().join(format!("e2clab-cli-faults-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&archive);
    let out = bin()
        .args([
            "optimize",
            "--duration",
            "40",
            "--seed",
            "5",
            "--faults",
            "fail:1@0",
            "--archive",
        ])
        .arg(&archive)
        .arg(&conf)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let csv = std::fs::read_to_string(archive.join("evaluations.csv")).unwrap();
    assert!(
        csv.starts_with("trial,status,attempts,"),
        "unexpected header: {csv}"
    );
    assert!(
        csv.contains("\n1,terminated,2,"),
        "trial 1 should succeed on its second attempt: {csv}"
    );
    let _ = std::fs::remove_file(conf);
    let _ = std::fs::remove_dir_all(archive);
}

/// Run `e2clab` with `args`, assert it exits 2 with the usage text, and
/// return its stderr.
fn usage_error(args: &[&str]) -> String {
    let out = bin().args(args).output().expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    stderr
}

#[test]
fn malformed_flags_are_usage_errors() {
    let conf = write_conf("flags.yaml", CONF);
    let conf = conf.to_str().unwrap();
    let stderr = usage_error(&["optimize", conf, "--seed"]);
    assert!(stderr.contains("--seed needs a value"), "{stderr}");
    usage_error(&["optimize", "--seed", "abc", conf]);
    let stderr = usage_error(&["optimize", "--bogus", conf]);
    assert!(stderr.contains("unknown flag --bogus"), "{stderr}");
    usage_error(&["lint", "--format", "xml"]);
    for args in [
        &["lint", "--config", "F"][..],
        &["lint", "--baseline", "F"][..],
        &["lint", "--update-baseline"][..],
        &["lint", "--no-baseline"][..],
    ] {
        let stderr = usage_error(args);
        assert!(
            stderr.contains(&format!("unknown flag {}", args[1])),
            "{stderr}"
        );
    }
    let _ = std::fs::remove_file(conf);
}

#[test]
fn subcommands_without_a_positional_reject_one() {
    for args in [
        &["serve", "--out", "unused", "extra"][..],
        &["bench", "--list", "extra"][..],
        &["fuzz", "--list", "extra"][..],
        &["worker", "extra"][..],
    ] {
        usage_error(args);
    }
}

#[test]
fn farm_flags_are_validated() {
    let conf = write_conf("farm-flags.yaml", CONF);
    let conf = conf.to_str().unwrap();
    // A malformed count (including the retired `W@N` form), a kill knob
    // without a farm, a zeroth ask (N is 1-based) and a farmed replay
    // check are all usage errors.
    usage_error(&["optimize", "--workers", "2", "--kill-worker", "x", conf]);
    usage_error(&["optimize", "--workers", "2", "--kill-worker", "1@2", conf]);
    usage_error(&["optimize", "--kill-worker", "1", conf]);
    usage_error(&["optimize", "--workers", "2", "--kill-worker", "0", conf]);
    usage_error(&["optimize", "--workers", "2", "--replay-check", conf]);
    let _ = std::fs::remove_file(conf);
}

#[test]
fn zero_repeat_and_zero_duration_are_rejected() {
    let conf = write_conf("zero.yaml", CONF);
    let conf = conf.to_str().unwrap();
    for command in ["optimize", "worker"] {
        for flag in ["--repeat", "--duration"] {
            let mut args = vec![command, flag, "0"];
            if command == "optimize" {
                args.push(conf);
            }
            let stderr = usage_error(&args);
            assert!(stderr.contains(flag), "{args:?}: {stderr}");
        }
    }
    let _ = std::fs::remove_file(conf);
}

#[test]
fn a_duration_shorter_than_one_sample_window_still_measures() {
    // The objective is the mean of 10 s window samples; a 5 s run closes
    // none and is measured over its partial window, never scored 0.
    let conf = write_conf("short.yaml", CONF);
    let out = bin()
        .args(["optimize", "--duration", "5", "--seed", "5"])
        .arg(&conf)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("evaluations: 4 (0 failed, 0 retries)"),
        "{stdout}"
    );
    let best: f64 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("best user_resp_time = "))
        .expect("a best value")
        .parse()
        .unwrap();
    assert!(best > 0.5, "{stdout}");
    let _ = std::fs::remove_file(conf);
}

#[test]
fn a_crash_point_past_the_last_append_fails_the_run() {
    // A four-trial run appends far fewer than 5000 records, so the chaos
    // knob can never fire; the run must say so instead of exiting 0.
    let conf = write_conf("crash-never.yaml", CONF);
    let journal = std::env::temp_dir().join(format!("e2clab-cli-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&journal);
    let out = bin()
        .args(["optimize", "--duration", "40", "--seed", "5", "--journal"])
        .arg(&journal)
        .args(["--crash-at", "5000"])
        .arg(&conf)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--crash-at 5000 never fired"), "{stderr}");
    let records = e2c_journal::read_records(&journal.join("run.wal")).expect("journal");
    assert!(
        stderr.contains(&format!("appended only {} journal records", records.len())),
        "{stderr}"
    );
    let _ = std::fs::remove_file(conf);
    let _ = std::fs::remove_dir_all(journal);
}

#[test]
fn an_archive_root_that_cannot_be_made_fails_before_any_trial() {
    let conf = write_conf("bad-archive.yaml", CONF);
    let base = std::env::temp_dir().join(format!("e2clab-cli-bad-archive-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let file = base.join("a-file");
    std::fs::write(&file, b"not a directory").unwrap();
    let archive = file.join("x");
    let journal = base.join("journal");
    let out = bin()
        .args(["optimize", "--duration", "40", "--seed", "5", "--archive"])
        .arg(&archive)
        .arg("--journal")
        .arg(&journal)
        .arg(&conf)
        .output()
        .expect("spawn");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(&archive.display().to_string()), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!journal.join("run.wal").exists(), "a journal was opened");
    let _ = std::fs::remove_file(conf);
    let _ = std::fs::remove_dir_all(base);
}
