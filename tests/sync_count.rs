//! The syncs of a farmed run: a traced, journaled, archived 12-trial
//! `--workers 2` cycle, driven in process through `e2clab::cycle` with two
//! live `e2clab worker` children, syncs `run.wal` once per record plus the
//! fixed Phase III snapshots, and no per-trial file: `cycles/*.prom` and
//! `evals/*/result.csv` are views of the journal, written without fsync.
//! One test in its own binary: the sync counters are process-wide.

use e2c_conf::schema::ExperimentConf;
use e2c_core::optimization::JournalConfig;
use e2c_journal::{sync_counts, SyncCounts};
use e2c_tune::{FarmSpec, FaultPlan};
use e2clab::cycle::{Cycle, CycleSpec};
use std::path::PathBuf;

const CONF: &str = r#"
name: sync-count
optimization:
  metric: response_time
  mode: min
  name: sync-count
  num_samples: 12
  max_concurrent: 2
  search:
    algo: extra_trees
    n_initial_points: 4
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
      bounds: [2, 20]
"#;

/// The Phase III snapshots, each written atomically (one file sync and
/// one directory sync): `problem.yaml`, `summary.txt`,
/// `evaluations.csv`, `best.yaml`, `trials/trials.jsonl`, `trace.jsonl`
/// and `metrics.prom`.
const PHASE_III_FILES: u64 = 7;

#[test]
fn a_farmed_traced_run_syncs_its_journal_and_phase_iii_files_only() {
    let root: PathBuf =
        std::env::temp_dir().join(format!("e2clab-sync-count-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let opt_conf = ExperimentConf::from_value(&e2c_conf::parse(CONF).unwrap())
        .unwrap()
        .optimization
        .unwrap();
    let spec = CycleSpec {
        repeat: 1,
        duration: 10,
        clients: 80,
    };
    let args = format!(
        "worker --repeat 1 --duration {} --clients 80",
        spec.duration
    );
    let cycle = Cycle {
        opt_conf,
        seed: 7,
        faults: FaultPlan::new(),
        spec,
        journal: Some(JournalConfig::fresh(root.join("journal"))),
        farm: Some(FarmSpec::new(
            PathBuf::from(env!("CARGO_BIN_EXE_e2clab")),
            args.split(' ').map(String::from).collect(),
            2,
            7,
        )),
    };
    let before = sync_counts();
    let summary = cycle
        .run(Some(root.join("archive")), Some(&root.join("trace")))
        .unwrap();
    let after = sync_counts();
    let syncs = SyncCounts {
        files: after.files - before.files,
        dirs: after.dirs - before.dirs,
    };

    assert_eq!(summary.analysis.trials().len(), 12);
    let records = e2c_journal::read_records(&root.join("journal").join("run.wal"))
        .unwrap()
        .len() as u64;
    assert_eq!(records, summary.journal_appended);
    // Every trial landed both views.
    let cycles = std::fs::read_dir(root.join("trace").join("cycles")).unwrap();
    assert_eq!(cycles.count(), 12);
    for t in 0..12 {
        let result = root
            .join("archive")
            .join(format!("evals/trial_{t}/result.csv"));
        assert!(result.is_file(), "{}", result.display());
    }
    // Creating the journal syncs its new directory and that directory's
    // parent.
    assert_eq!(
        syncs,
        SyncCounts {
            files: records + PHASE_III_FILES,
            dirs: 2 + PHASE_III_FILES,
        },
        "{records} journal records"
    );
    std::fs::remove_dir_all(&root).unwrap();
}
