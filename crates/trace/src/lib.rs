//! # e2c-trace — deterministic tracing for the optimization cycle
//!
//! A std-only, append-only structured event log.  Spans and events are
//! keyed by *virtual time* (tuner event ticks, or discrete-event sim
//! microseconds) — never the wall clock — so a seeded run writes a
//! byte-identical `trace.jsonl` every time it replays.  This is the
//! measurement substrate behind `e2clab optimize --trace <dir>` and
//! `e2clab trace summarize`.
//!
//! * [`Tracer`] / [`VirtualClock`] — recording (cheap to clone, thread-safe);
//! * [`TraceEvent`] / [`Value`] — the event model and JSONL wire form;
//! * [`TraceSummary`] — per-phase breakdowns and per-trial critical paths.

pub mod event;
pub mod summary;
pub mod tracer;

pub use event::{EventKind, TraceEvent, Value};
pub use summary::{PhaseStats, TraceSummary, TrialPath};
pub use tracer::{fields, load_jsonl, Fields, Tracer, VirtualClock};
