//! Smoke gate for the benchmark registry: every registered benchmark
//! must be selectable by the `smoke` tag, run at least one iteration,
//! and emit a `BENCH_<name>.json` report that parses back to the same
//! values. This is the test-level twin of CI's `bench-smoke` job.

use e2c_bench::{default_registry, BenchPolicy, BenchReport};

#[test]
fn every_registered_benchmark_runs_under_the_smoke_filter() {
    let dir = std::env::temp_dir().join(format!("e2c-bench-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let mut registry = default_registry()
        .with_seed(7)
        .with_filter("smoke")
        .with_policy(BenchPolicy::new(0, 1))
        .with_out_dir(dir.clone());
    // The `smoke` tag must select the full suite — a benchmark registered
    // without it would silently drop out of CI's bench-smoke job.
    let names = registry.selected();
    assert_eq!(
        names,
        vec![
            "des_mm1",
            "procshare_churn",
            "plantnet_600s",
            "bayes_cycle50",
            "surrogate_fit",
            "journal_wal",
            "journal_wire",
            "detlint_workspace",
            "worker_farm_overhead",
            "serving_epoch"
        ]
    );

    let reports = registry.run().unwrap();
    assert_eq!(reports.len(), names.len());
    for report in &reports {
        assert!(report.iterations >= 1, "{}", report.name);
        assert!(report.units_per_iter > 0.0, "{} did no work", report.name);
        let text = std::fs::read_to_string(dir.join(report.file_name())).unwrap();
        let parsed = BenchReport::from_json(&text).unwrap();
        assert_eq!(&parsed, report);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn filter_narrows_to_a_single_benchmark() {
    let mut registry = default_registry()
        .with_filter("journal_wire")
        .with_policy(BenchPolicy::new(0, 1));
    assert_eq!(registry.selected(), vec!["journal_wire"]);
    let reports = registry.run().unwrap();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].name, "journal_wire");
}
