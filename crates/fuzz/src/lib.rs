//! # e2c-fuzz — deterministic fuzz + differential-test harness
//!
//! The repository hand-rolls eight codecs — the YAML-subset configuration
//! parser (`e2c-conf`), the tab-separated journal wire format
//! (`e2c-tune`), the worker-farm stdio protocol (`e2c-tune`), the
//! `--faults` plan grammar (`e2c-tune`), the JSON codec behind
//! `trace.jsonl` and the benchmark reports (`e2c-journal::json`), the
//! CRC-framed write-ahead log (`e2c-journal`), the `lint.baseline`
//! file (`detlint`) and the `serving.wal` epoch rows (`e2c-core`). Each
//! sits on a crash-recovery, reproducibility or gating path, where a
//! panic on malformed bytes *is* data loss. This crate drives all eight with seeded byte mutation and checks three
//! property classes:
//!
//! 1. **No panics** — feeding arbitrary bytes to a parser must return
//!    `Ok`/`Err`, never unwind ([`engine::guard`] converts an unwind into
//!    a reported failure).
//! 2. **Roundtrip identity** — whenever a parser *accepts* an input,
//!    re-encoding must be byte-stable: for the strict journal wire,
//!    `parse(line).to_line() == line`; for YAML, JSONL, `--faults`
//!    plans and serving rows, the second encode of `encode(decode(encode(v)))` equals the
//!    first. Comparing bytes (not values) keeps NaN-carrying events
//!    honest. For `lint.baseline`, whose render sorts entries, the
//!    property is on the entry multiset: `parse(render(parse(x))) ==
//!    parse(x)`.
//! 3. **Differential oracles** — the YAML parser is compared against the
//!    committed fixture corpus (`crates/conf/tests/corpus/*.tree`), and
//!    torn-WAL recovery against a truncation oracle that predicts the
//!    exact record prefix a cut must recover.
//!
//! The harness mirrors `e2c-bench`'s registry shape: a [`FuzzTarget`]
//! trait, a builder-style [`FuzzRegistry`]
//! (`with_seed`/`with_iters`/`with_filter`), and `e2clab fuzz` as the CLI
//! entry point. Everything is reproducible: a `(seed, iteration)` pair
//! fully determines the bytes a target sees, and failures are shrunk with
//! [`engine::minimize`] before being reported, so a CI crash artifact is
//! a ready-made regression fixture.

pub mod engine;
pub mod targets;

pub use engine::{FailKind, SplitMix64};
pub use targets::{
    ConfYamlTarget, DetlintBaselineTarget, FaultPlanTarget, JournalWalTarget, JournalWireTarget,
    ServingRowTarget, TraceJsonlTarget, WorkerWireTarget,
};

use std::path::PathBuf;

/// One registered fuzz target: a named codec plus its property checks.
///
/// `generate` derives a candidate input purely from the RNG stream (which
/// the registry seeds per-target from the run seed), and `check` decides
/// whether the codec holds its properties on those bytes. `check` must be
/// a pure function of the input — the minimizer replays it on shrinking
/// candidates — and is always run under [`engine::guard`], so panicking
/// *is* a reportable outcome, not a harness crash.
pub trait FuzzTarget {
    /// Stable identifier (`e2clab fuzz --codec NAME`).
    fn name(&self) -> &'static str;

    /// Filter tags (matched exactly, like `e2clab bench --filter`).
    fn tags(&self) -> &'static [&'static str] {
        &[]
    }

    /// Deterministic one-shot checks run before the mutation loop:
    /// differential fixtures, exhaustive truncation oracles.
    fn preflight(&self) -> Result<(), String> {
        Ok(())
    }

    /// Derive one candidate input from the RNG stream.
    fn generate(&mut self, rng: &mut SplitMix64) -> Vec<u8>;

    /// Check every property the codec promises on `input`.
    fn check(&self, input: &[u8]) -> Result<(), String>;
}

/// A failure a target produced, with the shrunk reproducer.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// Iteration the failing input was generated on (`0` = preflight).
    pub iteration: u64,
    /// Panic or property mismatch, with the message.
    pub kind: FailKind,
    /// The input as generated.
    pub input: Vec<u8>,
    /// The ddmin-shrunk input that still fails.
    pub minimized: Vec<u8>,
}

/// The outcome of fuzzing one target.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Target name.
    pub name: String,
    /// Iterations requested for the run.
    pub iters_requested: u64,
    /// Iterations actually executed (a failure stops the target early).
    pub iters_run: u64,
    /// Run seed (the per-target stream is derived from it and the name).
    pub seed: u64,
    /// The first failure found, if any.
    pub failure: Option<FuzzFailure>,
}

impl FuzzReport {
    /// One aligned human-readable row for the CLI table.
    pub fn render_row(&self) -> String {
        match &self.failure {
            None => format!("{:<16} {:>8} iters  ok", self.name, self.iters_run),
            Some(f) => format!(
                "{:<16} {:>8} iters  FAIL at iteration {} ({}) — minimized to {} bytes",
                self.name,
                self.iters_run,
                f.iteration,
                match f.kind {
                    FailKind::Panic(_) => "panic",
                    FailKind::Mismatch(_) => "mismatch",
                },
                f.minimized.len()
            ),
        }
    }

    /// The crash-artifact body written as `FUZZ_<name>.crash`: everything
    /// needed to reproduce and fix the failure.
    pub fn crash_artifact(&self) -> Option<String> {
        let f = self.failure.as_ref()?;
        Some(format!(
            "target: {}\nseed: {}\niteration: {}\nfailure: {}\n\n== input ({} bytes) ==\n{}\n== minimized ({} bytes) ==\n{}",
            self.name,
            self.seed,
            f.iteration,
            f.kind,
            f.input.len(),
            engine::render_input(&f.input),
            f.minimized.len(),
            engine::render_input(&f.minimized),
        ))
    }
}

/// Why a fuzz run could not complete (finding failures is a *completed*
/// run — they land in the reports).
#[derive(Debug)]
pub enum FuzzError {
    /// Writing a crash artifact failed.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
}

impl std::fmt::Display for FuzzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FuzzError::Io { path, source } => write!(f, "write {}: {source}", path.display()),
        }
    }
}

impl std::error::Error for FuzzError {}

/// Predicate-evaluation budget handed to the minimizer per failure.
const MINIMIZE_BUDGET: usize = 2048;

/// Runs registered fuzz targets. Builder methods take `self` by value,
/// mirroring [`e2c-bench`'s `BenchRegistry`], so a run reads as one
/// chain:
///
/// ```no_run
/// let reports = e2c_fuzz::default_registry()
///     .with_seed(1)
///     .with_iters(10_000)
///     .with_filter("conf_yaml")
///     .run()
///     .unwrap();
/// # let _ = reports;
/// ```
pub struct FuzzRegistry {
    targets: Vec<Box<dyn FuzzTarget>>,
    seed: u64,
    iters: u64,
    filter: Option<String>,
    out_dir: Option<PathBuf>,
}

impl Default for FuzzRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl FuzzRegistry {
    /// An empty registry (seed 1, 1000 iterations, no filter).
    pub fn new() -> Self {
        FuzzRegistry {
            targets: Vec::new(),
            seed: 1,
            iters: 1000,
            filter: None,
            out_dir: None,
        }
    }

    /// Add a target.
    pub fn register(mut self, target: impl FuzzTarget + 'static) -> Self {
        self.targets.push(Box::new(target));
        self
    }

    /// Run seed; the per-target RNG stream is derived from it and the
    /// target name, so adding a target never perturbs the others.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Mutation-loop iterations per target.
    pub fn with_iters(mut self, iters: u64) -> Self {
        self.iters = iters;
        self
    }

    /// Only run targets whose name contains `pat` or whose tag equals
    /// `pat`.
    pub fn with_filter(mut self, pat: impl Into<String>) -> Self {
        self.filter = Some(pat.into());
        self
    }

    /// Write `FUZZ_<name>.crash` artifacts for failing targets.
    pub fn with_out_dir(mut self, dir: PathBuf) -> Self {
        self.out_dir = Some(dir);
        self
    }

    /// Names of the targets the current filter selects.
    pub fn selected(&self) -> Vec<&'static str> {
        self.targets
            .iter()
            .filter(|t| Self::matches(self.filter.as_deref(), t.as_ref()))
            .map(|t| t.name())
            .collect()
    }

    fn matches(filter: Option<&str>, target: &dyn FuzzTarget) -> bool {
        match filter {
            None => true,
            Some(pat) => target.name().contains(pat) || target.tags().contains(&pat),
        }
    }

    /// Derive the per-target stream seed: run seed mixed with the name,
    /// so each target sees an independent, stable stream.
    fn stream_seed(seed: u64, name: &str) -> u64 {
        name.bytes().fold(seed ^ 0x517C_C1B7_2722_0A95, |acc, b| {
            (acc ^ b as u64).wrapping_mul(0x0100_0000_01B3)
        })
    }

    /// Fuzz every selected target: preflight, then `iters` generate/check
    /// rounds; the first failure is minimized, recorded (and written as a
    /// crash artifact when an output directory is configured), and stops
    /// that target. Reports come back in registration order.
    pub fn run(&mut self) -> Result<Vec<FuzzReport>, FuzzError> {
        let (seed, iters, filter) = (self.seed, self.iters, self.filter.clone());
        let mut reports = Vec::new();
        for target in &mut self.targets {
            if !Self::matches(filter.as_deref(), target.as_ref()) {
                continue;
            }
            let mut report = FuzzReport {
                name: target.name().to_string(),
                iters_requested: iters,
                iters_run: 0,
                seed,
                failure: None,
            };
            if let Err(kind) = engine::guard(|| target.preflight()) {
                report.failure = Some(FuzzFailure {
                    iteration: 0,
                    kind,
                    input: Vec::new(),
                    minimized: Vec::new(),
                });
            } else {
                let mut rng = SplitMix64::new(Self::stream_seed(seed, target.name()));
                for i in 0..iters {
                    let input = target.generate(&mut rng);
                    report.iters_run = i + 1;
                    if let Err(kind) = engine::guard(|| target.check(&input)) {
                        let minimized = engine::minimize(&input, MINIMIZE_BUDGET, |c| {
                            engine::guard(|| target.check(c)).is_err()
                        });
                        report.failure = Some(FuzzFailure {
                            iteration: i + 1,
                            kind,
                            input,
                            minimized,
                        });
                        break;
                    }
                }
            }
            if let (Some(dir), Some(artifact)) = (&self.out_dir, report.crash_artifact()) {
                let path = dir.join(format!("FUZZ_{}.crash", report.name));
                e2c_journal::write_atomic(&path, artifact.as_bytes())
                    .map_err(|source| FuzzError::Io { path, source })?;
            }
            reports.push(report);
        }
        Ok(reports)
    }
}

/// The registry with all eight codec targets, in dependency order.
pub fn default_registry() -> FuzzRegistry {
    FuzzRegistry::new()
        .register(ConfYamlTarget::new())
        .register(JournalWireTarget::new())
        .register(WorkerWireTarget::new())
        .register(FaultPlanTarget::new())
        .register(TraceJsonlTarget::new())
        .register(JournalWalTarget::new())
        .register(DetlintBaselineTarget::new())
        .register(ServingRowTarget::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Flawed {
        trigger: u8,
    }

    impl FuzzTarget for Flawed {
        fn name(&self) -> &'static str {
            "flawed"
        }
        fn tags(&self) -> &'static [&'static str] {
            &["unit"]
        }
        fn generate(&mut self, rng: &mut SplitMix64) -> Vec<u8> {
            (0..8).map(|_| rng.ascii()).collect()
        }
        fn check(&self, input: &[u8]) -> Result<(), String> {
            if input.contains(&self.trigger) {
                panic!("hit the trigger byte");
            }
            Ok(())
        }
    }

    #[test]
    fn registry_finds_minimizes_and_reports_a_panic() {
        // Space is the most likely ascii() output, so the trigger fires
        // within a few iterations.
        let mut reg = FuzzRegistry::new()
            .register(Flawed { trigger: b' ' })
            .with_seed(7)
            .with_iters(200);
        let reports = reg.run().unwrap();
        assert_eq!(reports.len(), 1);
        let failure = reports[0].failure.as_ref().expect("trigger byte found");
        assert!(matches!(failure.kind, FailKind::Panic(_)));
        // ddmin shrinks to exactly the trigger byte.
        assert_eq!(failure.minimized, vec![b' ']);
        assert!(reports[0].iters_run < 200);
        // And the run replays identically.
        let reports2 = FuzzRegistry::new()
            .register(Flawed { trigger: b' ' })
            .with_seed(7)
            .with_iters(200)
            .run()
            .unwrap();
        assert_eq!(reports2[0].failure.as_ref().unwrap().input, failure.input);
        assert_eq!(reports2[0].iters_run, reports[0].iters_run);
    }

    struct Clean;

    impl FuzzTarget for Clean {
        fn name(&self) -> &'static str {
            "clean"
        }
        fn generate(&mut self, rng: &mut SplitMix64) -> Vec<u8> {
            vec![rng.ascii()]
        }
        fn check(&self, _input: &[u8]) -> Result<(), String> {
            Ok(())
        }
    }

    #[test]
    fn clean_targets_complete_all_iterations() {
        let reports = FuzzRegistry::new()
            .register(Clean)
            .with_iters(50)
            .run()
            .unwrap();
        assert!(reports[0].failure.is_none());
        assert_eq!(reports[0].iters_run, 50);
        assert!(reports[0].render_row().contains("ok"));
    }

    #[test]
    fn filter_selects_by_name_or_tag() {
        let reg = FuzzRegistry::new()
            .register(Flawed { trigger: 0 })
            .register(Clean);
        assert_eq!(reg.selected(), vec!["flawed", "clean"]);
        let reg = FuzzRegistry::new()
            .register(Flawed { trigger: 0 })
            .register(Clean)
            .with_filter("unit");
        assert_eq!(reg.selected(), vec!["flawed"]);
        let reg = FuzzRegistry::new()
            .register(Flawed { trigger: 0 })
            .register(Clean)
            .with_filter("cle");
        assert_eq!(reg.selected(), vec!["clean"]);
    }

    #[test]
    fn crash_artifacts_land_in_the_out_dir() {
        let dir = std::env::temp_dir().join(format!("e2c-fuzz-out-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let reports = FuzzRegistry::new()
            .register(Flawed { trigger: b' ' })
            .with_seed(7)
            .with_iters(200)
            .with_out_dir(dir.clone())
            .run()
            .unwrap();
        assert!(reports[0].failure.is_some());
        let text = std::fs::read_to_string(dir.join("FUZZ_flawed.crash")).unwrap();
        assert!(text.contains("seed: 7"), "{text}");
        assert!(text.contains("minimized"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stream_seeds_differ_per_target() {
        let a = FuzzRegistry::stream_seed(1, "conf_yaml");
        let b = FuzzRegistry::stream_seed(1, "journal_wire");
        assert_ne!(a, b);
        assert_eq!(a, FuzzRegistry::stream_seed(1, "conf_yaml"));
    }
}
