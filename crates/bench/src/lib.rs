//! # e2c-bench — benchmark API + experiment harness
//!
//! Two layers:
//!
//! 1. **The benchmark API** ([`harness`]): a public [`Benchmark`] trait, a
//!    builder-style [`BenchRegistry`], and stable [`BenchReport`]
//!    artifacts written as `BENCH_<name>.json`. The [`suite`] module
//!    registers one benchmark per load-bearing path (DES event loop,
//!    processor-sharing churn, full Pl@ntNet run, Bayesian cycle,
//!    surrogate fit, journal append/replay, wire codec, detlint
//!    throughput, worker-farm dispatch overhead, serving epoch);
//!    [`default_registry`] wires them up and `e2clab bench` runs them, so
//!    every PR can regenerate the performance trajectory.
//! 2. **The paper harness**: one binary per table/figure of the paper
//!    (see DESIGN.md §4 for the index). Binaries print the same
//!    rows/series the paper reports and honor two environment variables
//!    so CI can run them quickly:
//!    * `E2C_REPS` — repetitions per configuration (paper: 7);
//!    * `E2C_DURATION` — seconds per run (paper: 1380).
//!
//! The benchmark API honors `E2C_BENCH_WARMUP` / `E2C_BENCH_ITERS` the
//! same way (see [`BenchPolicy::from_env`]).

pub mod harness;
pub mod suite;

pub use harness::{BenchError, BenchPolicy, BenchRegistry, BenchReport, Benchmark, WallStats};
pub use suite::{
    default_registry, BayesCycleBench, DesMm1Bench, JournalWalBench, JournalWireBench,
    PlantnetRunBench, ProcShareChurnBench, WorkerFarmOverheadBench,
};

use e2c_des::SimTime;
use plantnet::sim::ExperimentSpec;
use plantnet::PoolConfig;

/// Repetitions per configuration (`E2C_REPS`, default 7 — the paper's
/// protocol).
pub fn reps() -> usize {
    std::env::var("E2C_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
}

/// Run duration in seconds (`E2C_DURATION`, default 1380 s).
pub fn duration_secs() -> u64 {
    std::env::var("E2C_DURATION")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1380)
}

/// The paper's experiment spec with the env-var overrides applied.
pub fn spec(config: PoolConfig, clients: usize) -> ExperimentSpec {
    let mut s = ExperimentSpec::paper(config, clients);
    s.duration = SimTime::from_secs(duration_secs());
    // Keep the warm-up under 10% of the duration for short CI runs.
    s.warmup = SimTime::from_secs((duration_secs() / 10).min(60));
    s
}

/// Render a percentage difference `new vs base` with sign, e.g. `-6.9%`.
pub fn pct(new: f64, base: f64) -> String {
    format!("{:+.1}%", (new - base) / base * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_signed() {
        assert_eq!(pct(93.1, 100.0), "-6.9%");
        assert_eq!(pct(110.0, 100.0), "+10.0%");
    }

    #[test]
    fn spec_honors_defaults() {
        let s = spec(PoolConfig::baseline(), 80);
        assert_eq!(s.clients, 80);
        assert!(s.duration.as_secs_f64() > 0.0);
        assert!(s.warmup < s.duration);
    }
}
