//! # e2c-bench — benchmark API + exhibit registry
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
//!    every PR can regenerate the performance trajectory. The counts
//!    shrink through `E2C_BENCH_WARMUP` / `E2C_BENCH_ITERS` (see
//!    [`BenchPolicy::from_env`]).
//! 2. **The exhibit registry** ([`exhibits`]): every table and figure of
//!    the paper (see DESIGN.md §4 for the index) as a named function that
//!    writes deterministic text, always at the paper's protocol of
//!    [`exhibits::REPS`] × [`exhibits::DURATION_SECS`] s. The `exhibit`
//!    binary prints them; `results/<name>.txt` holds each one's output,
//!    and CI byte-diffs the two.

pub mod exhibits;
pub mod harness;
pub mod suite;

pub use harness::{BenchError, BenchPolicy, BenchRegistry, BenchReport, Benchmark, WallStats};
pub use suite::{
    default_registry, BayesCycleBench, DesMm1Bench, JournalWalBench, JournalWireBench,
    PlantnetRunBench, ProcShareChurnBench, WorkerFarmOverheadBench,
};
