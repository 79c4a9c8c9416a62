//! # e2c-tune — asynchronous parallel trial execution
//!
//! The paper's Optimization Manager "takes advantage of Ray \[37\] to run
//! parallel application workflows" with Ray Tune providing search
//! algorithms, concurrency limiting and scheduling (Listing 1 uses
//! `SkOptSearch`, `ConcurrencyLimiter(max_concurrent=2)` and the
//! asynchronous HyperBand scheduler, ASHA). This crate reimplements the
//! search and the concurrency limiting on OS threads, and runs every
//! trial to completion in ask order ([`Fifo`]). The scheduler is left
//! out: ASHA stops a trial at a rung of its intermediate reports, and the
//! paper's objective returns one value per evaluation, so it would stop
//! nothing.
//!
//! * [`searcher`] — the ask/tell [`searcher::Searcher`] abstraction, the
//!   Bayesian [`searcher::SkOptSearch`], [`searcher::RandomSearch`], a
//!   list-driven [`searcher::GridSearch`], and
//!   [`searcher::ConcurrencyLimiter`];
//! * [`evolution`] — a generational GA behind the ask/tell interface,
//!   for the paper's "short-time running applications" (§III-B2);
//! * [`logger`] — the JSONL trial log ("manages model checkpoints and
//!   logging");
//! * [`fault`] — fault tolerance: [`fault::RetryPolicy`] (exponential
//!   backoff with seed-deterministic jitter) and the deterministic
//!   failure-injection [`fault::FaultPlan`] — edge testbeds fail
//!   routinely, so failed trials are retried before the searcher is fed
//!   a penalty;
//! * [`trial`] — trial state and records, including per-attempt
//!   bookkeeping ([`trial::Attempt`]) and the typed
//!   [`trial::TrialError`];
//! * [`journal`] — crash safety: the typed run journal
//!   ([`journal::RunJournal`]) appended to an `e2c-journal` WAL, and the
//!   deterministic [`journal::replay`] that rebuilds searcher state on
//!   `--resume`;
//! * [`tuner`] — [`tuner::Tuner`], which fans trials out over worker
//!   threads, feeding observations back to the searcher *asynchronously*
//!   (workers do not wait for a generation barrier — the paper's
//!   "asynchronous model optimization");
//! * [`sequencer`] — the tuner's commit sequencer as a pure,
//!   property-tested state machine (admission window, ask-order commits,
//!   one journal turn at a time);
//! * [`analysis`] — the result set: best trial, per-trial records;
//! * [`clock`] — the single sanctioned wall-clock read (detlint DET002):
//!   backoff and deadline timing route through it;
//! * [`worker`] — the framed stdio protocol of the multi-process trial
//!   farm, and [`worker::serve`], the worker-process main loop;
//! * [`supervisor`] — the farm's crash-tolerance core as a pure,
//!   property-tested state machine (heartbeats, stall deadlines, seeded
//!   respawn backoff, single-resolution tickets);
//! * [`farm`] — the parent side: [`farm::WorkerFarm`] spawns sanitized
//!   worker processes, re-dispatches asks off lost workers, and keeps
//!   every artifact byte-identical to an in-process run.

pub mod analysis;
pub mod clock;
pub mod evolution;
pub mod farm;
pub mod fault;
pub mod journal;
pub mod logger;
pub mod searcher;
pub mod sequencer;
pub mod supervisor;
pub mod trial;
pub mod tuner;
pub mod worker;

pub use analysis::Analysis;
pub use evolution::EvolutionSearch;
pub use farm::{FarmOutcome, FarmSpec, WorkerExit, WorkerFarm};
pub use fault::{FaultAction, FaultPlan, FaultSpec, RetryPolicy};
pub use journal::{load_events, replay, Fifo, ResumeState, RunEvent, RunJournal, CRASH_EXIT_CODE};
pub use logger::TrialLogger;
pub use searcher::{ConcurrencyLimiter, GridSearch, RandomSearch, Searcher, SkOptSearch};
pub use supervisor::{SlotState, StaleResult, Supervisor};
pub use trial::{Attempt, Trial, TrialError, TrialStatus};
pub use tuner::{TrialContext, Tuner};
pub use worker::{serve, WireMsg, WorkerAsk, WorkerReply};
