//! The first-class benchmark API: a [`Benchmark`] trait, a builder-style
//! [`BenchRegistry`], and a machine-readable [`BenchReport`] serialized to
//! `BENCH_<name>.json`.
//!
//! The paper's premise is *measured, reproducible* performance
//! optimization; this module applies the same discipline to the
//! reproduction itself. Every load-bearing path registers a benchmark, and
//! every PR can regenerate the `BENCH_*.json` trajectory with
//! `e2clab bench`, so speed regressions are caught by diffing artifacts
//! instead of anecdotes.
//!
//! Design constraints:
//!
//! * **Deterministic work.** A benchmark's workload derives entirely from
//!   the seed handed to [`Benchmark::setup`] and the round index handed to
//!   [`Benchmark::iter`] — two hosts time different numbers, but they time
//!   the *same instructions*.
//! * **Stable reports.** [`BenchReport::to_json`] writes keys in a fixed
//!   order with shortest-round-trip floats, so byte-diffing two reports is
//!   meaningful and [`BenchReport::from_json`] parses them back exactly.
//! * **Sanctioned clock.** Timing goes through [`e2c_tune::clock::now`],
//!   the single wall-clock call site the determinism lint accepts
//!   (DET002); wall time here is *observed*, never *result-bearing*.
//!
//! The registry mirrors [`OptimizationManager`]'s by-value builder shape
//! (`with_seed`, `with_policy`, …) so the two top-level entry APIs read
//! identically.
//!
//! [`OptimizationManager`]: e2c_core::optimization::OptimizationManager

use e2c_journal::json::{Escaped, Json};
use e2c_tune::clock;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Warmup/measurement iteration counts for one benchmark run.
///
/// CI and quick local runs shrink the counts globally with
/// [`BenchRegistry::with_policy`] (`e2clab bench --iters/--warmup`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchPolicy {
    /// Untimed iterations run first (cache/branch-predictor warmup).
    pub warmup_iters: u32,
    /// Timed iterations; the report's percentiles come from these.
    pub measure_iters: u32,
}

impl BenchPolicy {
    /// A policy with at least one measured iteration.
    pub fn new(warmup_iters: u32, measure_iters: u32) -> Self {
        BenchPolicy {
            warmup_iters,
            measure_iters: measure_iters.max(1),
        }
    }
}

impl Default for BenchPolicy {
    /// Seven measured iterations — the paper's repetition protocol.
    fn default() -> Self {
        BenchPolicy::new(2, 7)
    }
}

/// One registered benchmark: a named, seeded, repeatable unit of work.
///
/// Implementations must be deterministic in their *work* (the instructions
/// executed depend only on the seed and round index), never read ambient
/// entropy or the clock, and return the number of logical work units an
/// iteration processed (events, trials, records) so the report can derive
/// a throughput.
pub trait Benchmark {
    /// Stable identifier; the report lands in `BENCH_<name>.json`.
    fn name(&self) -> &'static str;

    /// Filter tags (`e2clab bench --filter PAT` matches a tag exactly or
    /// a name substring). Every default-suite benchmark carries `smoke`.
    fn tags(&self) -> &'static [&'static str] {
        &[]
    }

    /// Per-benchmark default iteration counts (a registry-level
    /// [`BenchRegistry::with_policy`] overrides them for all benchmarks).
    fn policy(&self) -> BenchPolicy {
        BenchPolicy::default()
    }

    /// Prepare deterministic state. All randomness must derive from
    /// `seed`.
    fn setup(&mut self, seed: u64) {
        let _ = seed;
    }

    /// Run one iteration (warmup rounds included) and return the number
    /// of work units processed. `round` increments across warmup +
    /// measured iterations so per-round workloads can vary derived seeds
    /// deterministically.
    fn iter(&mut self, round: u64) -> u64;
}

/// Why a benchmark run could not produce its reports.
#[derive(Debug)]
pub enum BenchError {
    /// Writing a `BENCH_*.json` artifact failed.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
}

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchError::Io { path, source } => {
                write!(f, "write {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Io { source, .. } => Some(source),
        }
    }
}

/// Wall-clock statistics over the measured iterations, in nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct WallStats {
    /// Median (p50) iteration time.
    pub median_ns: u64,
    /// 10th percentile.
    pub p10_ns: u64,
    /// 90th percentile.
    pub p90_ns: u64,
    /// Fastest iteration.
    pub min_ns: u64,
    /// Slowest iteration.
    pub max_ns: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
}

/// Nearest-rank percentile over `sorted` (ascending). `q` in `[0, 1]`.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

impl WallStats {
    /// Statistics of one sample set (unsorted, one entry per iteration).
    pub fn from_samples(mut samples: Vec<u64>) -> Self {
        assert!(!samples.is_empty(), "need at least one sample");
        samples.sort_unstable();
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        WallStats {
            median_ns: percentile(&samples, 0.50),
            p10_ns: percentile(&samples, 0.10),
            p90_ns: percentile(&samples, 0.90),
            min_ns: samples[0],
            max_ns: samples[samples.len() - 1],
            mean_ns: (sum / samples.len() as u128) as u64,
        }
    }
}

/// The machine-readable result of one benchmark: what `BENCH_<name>.json`
/// holds and what the per-PR trajectory diffs.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Benchmark name (`Benchmark::name`).
    pub name: String,
    /// Measured iterations behind the statistics.
    pub iterations: u32,
    /// Warmup iterations run before measuring.
    pub warmup: u32,
    /// Seed handed to `Benchmark::setup`.
    pub seed: u64,
    /// Everything that shaped the workload, so two reports are only
    /// comparable when their fingerprints match.
    pub fingerprint: String,
    /// Wall-clock statistics (nanoseconds per iteration).
    pub wall_ns: WallStats,
    /// Work units processed per iteration (constant across rounds for a
    /// deterministic workload; the mean is recorded).
    pub units_per_iter: f64,
    /// Throughput: total units over total measured wall time.
    pub units_per_sec: f64,
}

impl BenchReport {
    /// File name the report is written under: `BENCH_<name>.json`.
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.name)
    }

    /// Serialize with a fixed key order and shortest-round-trip floats;
    /// [`BenchReport::from_json`] inverts this exactly.
    pub fn to_json(&self) -> String {
        let w = &self.wall_ns;
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"iterations\":{},\"warmup\":{},\"seed\":{},\"fingerprint\":\"{}\"",
            Escaped(&self.name),
            self.iterations,
            self.warmup,
            self.seed,
            Escaped(&self.fingerprint)
        );
        let _ = write!(
            s,
            ",\"wall_ns\":{{\"median\":{},\"p10\":{},\"p90\":{},\"min\":{},\"max\":{},\"mean\":{}}}",
            w.median_ns, w.p10_ns, w.p90_ns, w.min_ns, w.max_ns, w.mean_ns
        );
        let _ = write!(
            s,
            ",\"units\":{{\"per_iter\":{},\"per_sec\":{}}}}}",
            self.units_per_iter, self.units_per_sec
        );
        s
    }

    /// Parse a report produced by [`BenchReport::to_json`]. Integers are
    /// read exactly (never through `f64`); an `iterations` or `warmup`
    /// count beyond `u32` is an error, not a truncation.
    pub fn from_json(text: &str) -> Result<BenchReport, String> {
        let obj = match Json::parse(text)? {
            Json::Obj(obj) => obj,
            _ => return Err("report is not a JSON object".into()),
        };
        let field = |key: &str| -> Result<&Json, String> {
            obj.get(key).ok_or_else(|| format!("missing key `{key}`"))
        };
        let object = |key: &str| -> Result<&BTreeMap<String, Json>, String> {
            match field(key)? {
                Json::Obj(m) => Ok(m),
                _ => Err(format!("`{key}` is not an object")),
            }
        };
        let string = |key: &str| -> Result<String, String> {
            field(key)?
                .as_str()
                .map(str::to_string)
                .ok_or_else(|| format!("`{key}` is not a string"))
        };
        let count = |key: &str| -> Result<u32, String> {
            field(key)?
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("`{key}` is not an integer in 0..2^32"))
        };
        let wall = object("wall_ns")?;
        let wall_u64 = |key: &str| -> Result<u64, String> {
            wall.get(key)
                .ok_or_else(|| format!("missing key `wall_ns.{key}`"))?
                .as_u64()
                .ok_or_else(|| format!("`wall_ns.{key}` is not a non-negative integer"))
        };
        let units = object("units")?;
        let units_f64 = |key: &str| -> Result<f64, String> {
            units
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("missing number `units.{key}`"))
        };
        Ok(BenchReport {
            name: string("name")?,
            iterations: count("iterations")?,
            warmup: count("warmup")?,
            seed: field("seed")?
                .as_u64()
                .ok_or("`seed` is not a non-negative integer")?,
            fingerprint: string("fingerprint")?,
            wall_ns: WallStats {
                median_ns: wall_u64("median")?,
                p10_ns: wall_u64("p10")?,
                p90_ns: wall_u64("p90")?,
                min_ns: wall_u64("min")?,
                max_ns: wall_u64("max")?,
                mean_ns: wall_u64("mean")?,
            },
            units_per_iter: units_f64("per_iter")?,
            units_per_sec: units_f64("per_sec")?,
        })
    }

    /// One aligned human-readable row for the CLI table.
    pub fn render_row(&self) -> String {
        format!(
            "{:<16} {:>4} it  median {:>10}  p10 {:>10}  p90 {:>10}  {:>12.0} units/s",
            self.name,
            self.iterations,
            fmt_ns(self.wall_ns.median_ns),
            fmt_ns(self.wall_ns.p10_ns),
            fmt_ns(self.wall_ns.p90_ns),
            self.units_per_sec,
        )
    }
}

/// Render nanoseconds with an adaptive unit (`1.234ms`, `56.7µs`, …).
fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Runs registered benchmarks and writes their reports.
///
/// Builder methods take `self` by value, mirroring
/// `OptimizationManager::with_*`, so a full run reads as one chain:
///
/// ```no_run
/// use e2c_bench::{BenchPolicy, BenchRegistry};
/// let reports = e2c_bench::default_registry()
///     .with_seed(42)
///     .with_filter("smoke")
///     .with_policy(BenchPolicy::new(1, 3))
///     .with_out_dir("bench-out".into())
///     .run()
///     .unwrap();
/// # let _ = reports;
/// ```
pub struct BenchRegistry {
    benches: Vec<Box<dyn Benchmark>>,
    seed: u64,
    policy: Option<BenchPolicy>,
    filter: Option<String>,
    out_dir: Option<PathBuf>,
}

impl Default for BenchRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl BenchRegistry {
    /// An empty registry (seed 0, per-benchmark policies, no filter, no
    /// output directory).
    pub fn new() -> Self {
        BenchRegistry {
            benches: Vec::new(),
            seed: 0,
            policy: None,
            filter: None,
            out_dir: None,
        }
    }

    /// Add a benchmark.
    pub fn register(mut self, bench: impl Benchmark + 'static) -> Self {
        self.benches.push(Box::new(bench));
        self
    }

    /// Seed handed to every benchmark's `setup` (reproducibility: same
    /// seed ⇒ same workload).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Override every benchmark's iteration counts (the CLI's `--warmup`
    /// / `--iters` knobs). Environment overrides still apply on top.
    pub fn with_policy(mut self, policy: BenchPolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// Only run benchmarks whose name contains `pat` or whose tag equals
    /// `pat`.
    pub fn with_filter(mut self, pat: impl Into<String>) -> Self {
        self.filter = Some(pat.into());
        self
    }

    /// Write each report to `dir/BENCH_<name>.json` (atomically).
    pub fn with_out_dir(mut self, dir: PathBuf) -> Self {
        self.out_dir = Some(dir);
        self
    }

    /// Names of the benchmarks the current filter selects.
    pub fn selected(&self) -> Vec<&'static str> {
        self.benches
            .iter()
            .filter(|b| Self::matches(self.filter.as_deref(), b.as_ref()))
            .map(|b| b.name())
            .collect()
    }

    fn matches(filter: Option<&str>, bench: &dyn Benchmark) -> bool {
        match filter {
            None => true,
            Some(pat) => bench.name().contains(pat) || bench.tags().contains(&pat),
        }
    }

    /// Run every selected benchmark: setup, warmup, timed iterations,
    /// report (written to the output directory when one is configured).
    /// Reports come back in registration order.
    pub fn run(&mut self) -> Result<Vec<BenchReport>, BenchError> {
        let mut reports = Vec::new();
        let (seed, override_policy, filter) = (self.seed, self.policy, self.filter.clone());
        for bench in &mut self.benches {
            if !Self::matches(filter.as_deref(), bench.as_ref()) {
                continue;
            }
            let policy = override_policy.unwrap_or_else(|| bench.policy());
            bench.setup(seed);
            let mut round = 0u64;
            for _ in 0..policy.warmup_iters {
                std::hint::black_box(bench.iter(round));
                round += 1;
            }
            let mut samples = Vec::with_capacity(policy.measure_iters as usize);
            let mut total_units = 0u64;
            for _ in 0..policy.measure_iters {
                let t0 = clock::now();
                let units = std::hint::black_box(bench.iter(round));
                let dt = t0.elapsed();
                samples.push(dt.as_nanos().min(u64::MAX as u128) as u64);
                total_units += units;
                round += 1;
            }
            let total_ns: u128 = samples.iter().map(|&s| s as u128).sum();
            let report = BenchReport {
                name: bench.name().to_string(),
                iterations: policy.measure_iters,
                warmup: policy.warmup_iters,
                seed,
                fingerprint: format!(
                    "bench={};seed={seed};warmup={};iters={}",
                    bench.name(),
                    policy.warmup_iters,
                    policy.measure_iters
                ),
                wall_ns: WallStats::from_samples(samples),
                units_per_iter: total_units as f64 / policy.measure_iters as f64,
                units_per_sec: if total_ns == 0 {
                    0.0
                } else {
                    total_units as f64 / (total_ns as f64 / 1e9)
                },
            };
            if let Some(dir) = &self.out_dir {
                let path = dir.join(report.file_name());
                e2c_journal::write_atomic(&path, report.to_json().as_bytes())
                    .map_err(|source| BenchError::Io { path, source })?;
            }
            reports.push(report);
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> BenchReport {
        BenchReport {
            name: "des_mm1".to_string(),
            iterations: 7,
            warmup: 2,
            seed: 42,
            fingerprint: "bench=des_mm1;seed=42;warmup=2;iters=7".to_string(),
            wall_ns: WallStats {
                median_ns: 1_234_567,
                p10_ns: 1_100_000,
                p90_ns: 1_400_000,
                min_ns: 1_050_000,
                max_ns: 1_500_000,
                mean_ns: 1_250_000,
            },
            units_per_iter: 150_000.0,
            units_per_sec: 120_000_000.5,
        }
    }

    #[test]
    fn json_key_order_is_stable() {
        // The writer's key order is part of the artifact contract: the
        // per-PR trajectory is diffed byte-wise.
        let json = sample_report().to_json();
        let expected = "{\"name\":\"des_mm1\",\"iterations\":7,\"warmup\":2,\"seed\":42,\
             \"fingerprint\":\"bench=des_mm1;seed=42;warmup=2;iters=7\",\
             \"wall_ns\":{\"median\":1234567,\"p10\":1100000,\"p90\":1400000,\
             \"min\":1050000,\"max\":1500000,\"mean\":1250000},\
             \"units\":{\"per_iter\":150000,\"per_sec\":120000000.5}}";
        assert_eq!(json, expected);
    }

    #[test]
    fn json_roundtrips() {
        let report = sample_report();
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
        // And serializing the parse reproduces the bytes.
        assert_eq!(parsed.to_json(), report.to_json());
    }

    #[test]
    fn json_escapes_roundtrip() {
        let mut report = sample_report();
        report.fingerprint = "line1\nline2\t\"quoted\"\\x".to_string();
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.fingerprint, report.fingerprint);
    }

    #[test]
    fn from_json_rejects_malformed_reports() {
        assert!(BenchReport::from_json("{}").is_err());
        assert!(BenchReport::from_json("not json").is_err());
        assert!(BenchReport::from_json("{\"name\":\"x\"}").is_err());
        let truncated = &sample_report().to_json()[..40];
        assert!(BenchReport::from_json(truncated).is_err());
    }

    #[test]
    fn nesting_bomb_is_an_error_not_a_stack_overflow() {
        let err = BenchReport::from_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn large_integers_roundtrip_exactly() {
        // 2^53 + 1 is the first integer an f64 cannot hold.
        let mut report = sample_report();
        report.seed = (1 << 53) + 1;
        report.wall_ns.max_ns = u64::MAX;
        let parsed = BenchReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed.seed, (1 << 53) + 1);
        assert_eq!(parsed.wall_ns.max_ns, u64::MAX);
        assert_eq!(parsed, report);
    }

    #[test]
    fn iteration_counts_beyond_u32_are_rejected() {
        let json = sample_report()
            .to_json()
            .replace("\"iterations\":7", "\"iterations\":4294967297");
        let err = BenchReport::from_json(&json).unwrap_err();
        assert!(err.contains("iterations"), "{err}");
    }

    #[test]
    fn wall_stats_percentiles() {
        let stats = WallStats::from_samples((1..=100).rev().collect());
        assert_eq!(stats.min_ns, 1);
        assert_eq!(stats.max_ns, 100);
        assert_eq!(stats.median_ns, 51); // nearest-rank on [1, 100]
        assert_eq!(stats.p10_ns, 11);
        assert_eq!(stats.p90_ns, 90);
        let single = WallStats::from_samples(vec![7]);
        assert_eq!(single.median_ns, 7);
        assert_eq!(single.p10_ns, 7);
        assert_eq!(single.p90_ns, 7);
        assert_eq!(single.mean_ns, 7);
    }

    struct Counting {
        setup_seed: Option<u64>,
        rounds: Vec<u64>,
    }

    impl Benchmark for Counting {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn tags(&self) -> &'static [&'static str] {
            &["unit"]
        }
        fn policy(&self) -> BenchPolicy {
            BenchPolicy::new(1, 3)
        }
        fn setup(&mut self, seed: u64) {
            self.setup_seed = Some(seed);
        }
        fn iter(&mut self, round: u64) -> u64 {
            self.rounds.push(round);
            10
        }
    }

    #[test]
    fn registry_runs_warmup_then_measures() {
        let mut reg = BenchRegistry::new()
            .register(Counting {
                setup_seed: None,
                rounds: Vec::new(),
            })
            .with_seed(9);
        let reports = reg.run().unwrap();
        assert_eq!(reports.len(), 1);
        let r = &reports[0];
        assert_eq!(r.name, "counting");
        assert_eq!(r.iterations, 3);
        assert_eq!(r.warmup, 1);
        assert_eq!(r.seed, 9);
        assert_eq!(r.units_per_iter, 10.0);
        assert!(r.units_per_sec > 0.0);
    }

    #[test]
    fn filter_matches_name_substring_and_exact_tag() {
        let make = || Counting {
            setup_seed: None,
            rounds: Vec::new(),
        };
        let reg = BenchRegistry::new().register(make()).with_filter("count");
        assert_eq!(reg.selected(), vec!["counting"]);
        let reg = BenchRegistry::new().register(make()).with_filter("unit");
        assert_eq!(reg.selected(), vec!["counting"]);
        let reg = BenchRegistry::new().register(make()).with_filter("nope");
        assert!(reg.selected().is_empty());
    }

    #[test]
    fn registry_policy_overrides_bench_policy() {
        let mut reg = BenchRegistry::new()
            .register(Counting {
                setup_seed: None,
                rounds: Vec::new(),
            })
            .with_policy(BenchPolicy::new(0, 1));
        let reports = reg.run().unwrap();
        assert_eq!(reports[0].iterations, 1);
        assert_eq!(reports[0].warmup, 0);
    }

    #[test]
    fn reports_written_to_out_dir() {
        let dir = std::env::temp_dir().join(format!("e2c-bench-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut reg = BenchRegistry::new()
            .register(Counting {
                setup_seed: None,
                rounds: Vec::new(),
            })
            .with_out_dir(dir.clone());
        let reports = reg.run().unwrap();
        let path = dir.join("BENCH_counting.json");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, reports[0].to_json());
        assert_eq!(BenchReport::from_json(&text).unwrap(), reports[0]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
