//! # e2clab — reproducible performance optimization on the Edge-to-Cloud continuum
//!
//! A from-scratch Rust reproduction of *"Reproducible Performance
//! Optimization of Complex Applications on the Edge-to-Cloud Continuum"*
//! (CLUSTER 2021): the E2Clab experiment framework with its optimization
//! extension, every substrate it needs (testbed simulator, network
//! emulation, discrete-event engine, Bayesian optimization and
//! metaheuristics, a Ray-Tune-style trial runner), and the Pl@ntNet
//! Identification Engine model the paper evaluates.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! dependency so downstream users (and the `examples/`) can write
//! `use e2clab::optim::BayesOpt` etc. Its one module of its own,
//! [`cycle`], is the engine-backed optimization cycle that `e2clab
//! optimize` and its `e2clab worker` children run.
//!
//! ## Crate map
//!
//! | module | crate | what it is |
//! |---|---|---|
//! | [`core`] | `e2c-core` | the framework: managers, services, experiment lifecycle, Optimization Manager, archive |
//! | [`conf`] | `e2c-conf` | YAML-subset parser + experiment schema |
//! | [`des`] | `e2c-des` | discrete-event simulation kernel |
//! | [`testbed`] | `e2c-testbed` | Grid'5000 model: clusters, reservations, deployments |
//! | [`net`] | `e2c-net` | network emulation (links, topology) |
//! | [`metrics`] | `e2c-metrics` | time series, online stats, summaries, tables |
//! | [`workload`] | `e2c-workload` | open-loop generators, seasonal traces, image sizes |
//! | [`optim`] | `e2c-optim` | spaces, samplers, surrogates, BO, metaheuristics, sensitivity |
//! | [`tune`] | `e2c-tune` | async parallel trial runner (searchers, retries, run journal, worker farm) |
//! | [`trace`] | `e2c-trace` | deterministic structured event log + virtual clock |
//! | [`journal`] | `e2c-journal` | write-ahead log + atomic and view snapshot writes + artifact tree comparison |
//! | [`bench`](mod@bench) | `e2c-bench` | benchmark API (`Benchmark`, `BenchRegistry`, `BENCH_*.json`) + the paper's exhibit registry |
//! | [`detlint`] | `detlint` | workspace lint: determinism (DET), panics (PANIC), I/O durability (IO), fsync under a lock (LOCK), unused allows (SUP) |
//! | [`plantnet`] | `plantnet` | the Pl@ntNet engine model (DES + real threads) |
//!
//! ## Quickstart
//!
//! ```
//! use e2clab::optim::{Acquisition, BayesOpt, Space, SurrogateKind};
//!
//! // Minimize a black-box over a mixed search space, skopt-style.
//! let space = Space::new().int("threads", 1, 32).real("ratio", 0.0, 1.0);
//! let mut opt = BayesOpt::new(space, 42)
//!     .base_estimator(SurrogateKind::ExtraTrees)
//!     .acq_func(Acquisition::GpHedge)
//!     .n_initial_points(8);
//! for _ in 0..20 {
//!     let x = opt.ask();
//!     let y = (x[0] - 20.0).powi(2) + (x[1] - 0.25).powi(2);
//!     opt.tell(x, y);
//! }
//! assert!(opt.best().is_some());
//! ```

pub mod cycle;

pub use detlint;
pub use e2c_bench as bench;
pub use e2c_conf as conf;
pub use e2c_core as core;
pub use e2c_des as des;
pub use e2c_journal as journal;
pub use e2c_metrics as metrics;
pub use e2c_net as net;
pub use e2c_testbed as testbed;
pub use e2c_trace as trace;
pub use e2c_tune as tune;
pub use e2c_workload as workload;
pub use plantnet;

/// Optimization toolkit (re-export of `e2c-optim` with the most-used
/// types flattened).
pub mod optim {
    pub use e2c_optim::acquisition::Acquisition;
    pub use e2c_optim::bayes::BayesOpt;
    pub use e2c_optim::linalg;
    pub use e2c_optim::metaheuristics::{DifferentialEvolution, Metaheuristic};
    pub use e2c_optim::pareto::{Nsga2, ParetoSolution};
    pub use e2c_optim::problem::{OptimizationProblem, Sense};
    pub use e2c_optim::sampling::InitialDesign;
    pub use e2c_optim::sensitivity::{morris, oat_effects, OatPlan};
    pub use e2c_optim::space::{Dimension, Point, Space};
    pub use e2c_optim::surrogate::{Surrogate, SurrogateKind};
}
