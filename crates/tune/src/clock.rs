//! The single sanctioned wall-clock call site (detlint rule DET002).
//!
//! Reproducibility demands that wall-clock time never *decides* anything a
//! replay would re-decide — but the tuner still needs real time for
//! retry backoff pacing and wall-clock deadlines (the paper's
//! `time_budget`). Those uses are operational, not result-bearing:
//! a replay with different timings produces the same trial sequence.
//!
//! Centralizing the read here keeps that boundary auditable. Everything
//! else in the workspace must either call [`now`] or carry a justified
//! `detlint: allow(DET002)` (bench harnesses, the real-time engine
//! backend, elapsed-time test assertions).

use std::time::Instant;

/// Virtual time for anything *result-bearing*: the tracing layer keys its
/// event log off this clock (one tick per event, explicit advances for
/// simulated delays), never off [`now`], so `trace.jsonl` replays
/// byte-identically.  Re-exported here so the module stays the single
/// place to reason about time in the tuner.
pub use e2c_trace::VirtualClock;

/// Read the monotonic wall clock. The only `Instant::now()` the
/// determinism lint accepts outside explicitly annotated call sites.
pub fn now() -> Instant {
    Instant::now()
}

#[cfg(test)]
mod tests {
    #[test]
    fn clock_is_monotonic() {
        let a = super::now();
        let b = super::now();
        assert!(b >= a);
    }
}
