//! The [`Tracer`] — a cheap-to-clone handle onto an append-only event log.
//!
//! Determinism contract: a tracer never reads the wall clock.  Virtual time
//! comes from a per-tracer [`VirtualClock`] that ticks once per recorded
//! event (plus explicit [`Tracer::advance`] calls), or is supplied
//! explicitly by simulation layers via the `*_at` methods.  Two runs that
//! perform the same sequence of traced operations therefore produce
//! byte-identical `trace.jsonl` files — which `--replay-check` exploits.
//!
//! The event buffer lives behind a single `std::sync::Mutex`; `seq` and
//! `vt` are assigned under that lock so the (seq, vt) ordering is total
//! even when several worker threads trace concurrently.
//!
//! A tracer holds nothing durable. A journaled run persists its trace
//! through the run journal instead: each `tell` record carries the lines
//! [`Tracer::to_jsonl_from`] renders since the previous tell, and a
//! resume hands the concatenated prefix back to [`Tracer::restore`].

use crate::event::{EventKind, TraceEvent, Value};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonic virtual clock.  Fresh per [`Tracer`], so two in-process runs
/// (as `--replay-check` performs) start from zero and stay comparable.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ticks: AtomicU64,
}

impl VirtualClock {
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time without advancing it.
    pub fn now(&self) -> u64 {
        self.ticks.load(Ordering::SeqCst)
    }

    /// Advance by one tick and return the *new* time.
    pub fn tick(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Advance by `delta` ticks (e.g. a simulated delay) and return the
    /// new time.
    pub fn advance(&self, delta: u64) -> u64 {
        self.ticks.fetch_add(delta, Ordering::SeqCst) + delta
    }

    /// Set the clock to an absolute tick — crash-resume restores the
    /// virtual time of the journal's last tell point so re-executed
    /// events land on the same timestamps.
    pub fn restore(&self, ticks: u64) {
        self.ticks.store(ticks, Ordering::SeqCst);
    }
}

/// Convenience alias for building event field maps.
pub type Fields = BTreeMap<String, Value>;

/// Build a field map from `(key, value)` pairs.
pub fn fields<const N: usize>(pairs: [(&str, Value); N]) -> Fields {
    pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Event log plus, per event, whether its `vt` came from this tracer's
/// own clock (a tick or an `advance`) rather than an explicit `*_at`
/// stamp — the bit [`Tracer::splice`] needs to relocate events captured
/// on a detached per-trial buffer onto the main trace.
#[derive(Default)]
struct Buf {
    events: Vec<TraceEvent>,
    ticked: Vec<bool>,
}

struct Inner {
    events: Mutex<Buf>,
    clock: VirtualClock,
}

/// Handle onto a shared, append-only trace.  Clone freely; all clones
/// append to the same log.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            inner: Arc::new(Inner {
                events: Mutex::new(Buf::default()),
                clock: VirtualClock::new(),
            }),
        }
    }

    /// Preload a recovered event prefix and restore the virtual clock —
    /// the crash-resume path. The tracer must not have recorded anything
    /// yet; subsequent events continue the `seq` numbering and virtual
    /// time exactly where the prefix stops.
    pub fn restore(&self, events: Vec<TraceEvent>, vt: u64) {
        let mut buf = self.inner.events.lock().unwrap();
        assert!(
            buf.events.is_empty(),
            "restore into a tracer that already recorded"
        );
        buf.ticked = vec![true; events.len()];
        buf.events = events;
        self.inner.clock.restore(vt);
    }

    /// Current virtual time (does not advance the clock).
    pub fn now(&self) -> u64 {
        self.inner.clock.now()
    }

    /// Advance the virtual clock by `delta` ticks without emitting an
    /// event — used to account for simulated delays such as retry backoff.
    pub fn advance(&self, delta: u64) {
        self.inner.clock.advance(delta);
    }

    // One parameter per wire-format slot; only called through the typed
    // point/begin/end wrappers.
    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        vt: Option<u64>,
        phase: &str,
        name: &str,
        kind: EventKind,
        trial: Option<u64>,
        span: Option<u64>,
        fields: Fields,
    ) -> u64 {
        let mut buf = self.inner.events.lock().unwrap();
        // seq and vt are assigned under the same lock so their order agrees.
        let seq = buf.events.len() as u64;
        let ticked = vt.is_none();
        let vt = vt.unwrap_or_else(|| self.inner.clock.tick());
        let event = TraceEvent {
            seq,
            vt,
            phase: phase.to_string(),
            name: name.to_string(),
            kind,
            trial,
            span,
            fields,
        };
        buf.events.push(event);
        buf.ticked.push(ticked);
        seq
    }

    /// Drain a detached (per-trial) tracer for relocation onto the main
    /// trace via [`Tracer::splice`]: every event paired with its tick
    /// bit, plus the buffer clock's final value (which can exceed the
    /// last event's stamp after a trailing [`Tracer::advance`]).
    pub fn drain_for_splice(&self) -> (Vec<(TraceEvent, bool)>, u64) {
        let mut buf = self.inner.events.lock().unwrap();
        let events = std::mem::take(&mut buf.events);
        let ticked = std::mem::take(&mut buf.ticked);
        (
            events.into_iter().zip(ticked).collect(),
            self.inner.clock.now(),
        )
    }

    /// Splice a drained per-trial buffer onto this tracer as one atomic
    /// block: sequence numbers are reassigned, tick-stamped events
    /// replay their clock *deltas* against this tracer's clock (so
    /// inter-event `advance` gaps such as retry backoff carry over),
    /// explicitly stamped events (sim time) keep their `vt`, and span
    /// references — which must be buffer-local — are remapped to the new
    /// sequence numbers. `end_clock` is the buffer clock's final value;
    /// any advance past the last tick-stamped event is re-applied so the
    /// main clock ends where a live-traced execution would have left it.
    /// Returns the local-seq → spliced-seq map so the caller can close
    /// spans opened inside the buffer.
    pub fn splice(&self, buffered: &[(TraceEvent, bool)], end_clock: u64) -> Vec<u64> {
        let mut buf = self.inner.events.lock().unwrap();
        let mut seq_map: Vec<u64> = Vec::with_capacity(buffered.len());
        let mut local_clock = 0u64;
        for (ev, ticked) in buffered {
            let seq = buf.events.len() as u64;
            let vt = if *ticked {
                let delta = ev.vt.saturating_sub(local_clock);
                local_clock = ev.vt;
                self.inner.clock.advance(delta)
            } else {
                ev.vt
            };
            let span = ev.span.map(|s| seq_map[s as usize]);
            let mut event = ev.clone();
            event.seq = seq;
            event.vt = vt;
            event.span = span;
            seq_map.push(seq);
            buf.events.push(event);
            buf.ticked.push(*ticked);
        }
        if end_clock > local_clock {
            self.inner.clock.advance(end_clock - local_clock);
        }
        seq_map
    }

    /// Record a standalone event, ticking the virtual clock.
    pub fn point(&self, phase: &str, name: &str, trial: Option<u64>, fields: Fields) {
        self.push(None, phase, name, EventKind::Point, trial, None, fields);
    }

    /// Record a standalone event at an explicit virtual time (e.g. sim
    /// microseconds).  Does not tick the tracer clock.
    pub fn point_at(&self, vt: u64, phase: &str, name: &str, trial: Option<u64>, fields: Fields) {
        self.push(Some(vt), phase, name, EventKind::Point, trial, None, fields);
    }

    /// Open a span; returns the begin event's `seq` to pass to [`Tracer::end`].
    pub fn begin(&self, phase: &str, name: &str, trial: Option<u64>, fields: Fields) -> u64 {
        self.push(None, phase, name, EventKind::Begin, trial, None, fields)
    }

    /// Close the span opened by `begin_seq`.
    pub fn end(&self, phase: &str, name: &str, trial: Option<u64>, begin_seq: u64, fields: Fields) {
        self.push(
            None,
            phase,
            name,
            EventKind::End,
            trial,
            Some(begin_seq),
            fields,
        );
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.events.lock().unwrap().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the event log in append order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.inner.events.lock().unwrap().events.clone()
    }

    /// Serialize the log as JSONL (one event per line, trailing newline).
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_from(0)
    }

    /// Serialize the events from sequence number `seq` on, in the form of
    /// [`Tracer::to_jsonl`] — a journaled tell renders only the lines
    /// recorded since the previous one. Empty when `seq` is past the end.
    pub fn to_jsonl_from(&self, seq: usize) -> String {
        let buf = self.inner.events.lock().unwrap();
        let events = buf.events.get(seq..).unwrap_or_default();
        let mut out = String::with_capacity(events.len() * 96);
        for e in events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// Write the log to `path` as JSONL, durably: through
    /// [`e2c_journal::write_atomic`] (tmp + fsync + rename + directory
    /// fsync). Kept only for the `perfbench/tracer` probes, which time
    /// it; no program path calls it, and it goes when they move. A run
    /// writes [`Tracer::to_jsonl`] through the writer
    /// [`e2c_journal::snapshot_writer`] picks: a view of its journal when
    /// it has one. New callers do the same.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        e2c_journal::write_atomic(path, self.to_jsonl().as_bytes())
    }
}

/// Load a `trace.jsonl` file back into events (for `trace summarize`).
pub fn load_jsonl(path: &Path) -> Result<Vec<TraceEvent>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = TraceEvent::from_json(line)
            .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_and_vt_are_monotonic() {
        let t = Tracer::new();
        t.point("a", "x", None, Fields::new());
        let b = t.begin("a", "y", Some(1), Fields::new());
        t.end("a", "y", Some(1), b, Fields::new());
        let evs = t.snapshot();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(evs.iter().map(|e| e.vt).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(evs[2].span, Some(b));
    }

    #[test]
    fn point_at_does_not_tick_the_clock() {
        let t = Tracer::new();
        t.point_at(500_000, "sim", "queues", None, Fields::new());
        assert_eq!(t.now(), 0);
        t.point("tuner", "ask", Some(0), Fields::new());
        let evs = t.snapshot();
        assert_eq!(evs[0].vt, 500_000);
        assert_eq!(evs[1].vt, 1);
    }

    #[test]
    fn advance_accounts_for_simulated_delay() {
        let t = Tracer::new();
        t.point("tuner", "retry", Some(0), Fields::new());
        t.advance(250);
        t.point("tuner", "attempt", Some(0), Fields::new());
        let evs = t.snapshot();
        assert_eq!(evs[0].vt, 1);
        assert_eq!(evs[1].vt, 252);
    }

    #[test]
    fn fresh_tracers_replay_identically() {
        let run = || {
            let t = Tracer::new();
            t.point(
                "searcher",
                "ask",
                Some(0),
                fields([("config", "a=1".into())]),
            );
            let b = t.begin("tuner", "execute", Some(0), Fields::new());
            t.end(
                "tuner",
                "execute",
                Some(0),
                b,
                fields([("value", 2.5.into())]),
            );
            t.to_jsonl()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn splice_relocates_a_detached_buffer() {
        // Main trace already has one event (clock at 1).
        let main = Tracer::new();
        main.point("searcher", "ask", Some(0), Fields::new());

        // Per-trial buffer: a span, a sim-time event, a retry gap.
        let buf = Tracer::new();
        let b = buf.begin("tuner", "execute", Some(0), Fields::new()); // local vt 1
        buf.point_at(500_000, "sim", "queues", None, Fields::new()); // explicit
        buf.advance(250); // retry backoff
        buf.point("tuner", "attempt", Some(0), Fields::new()); // local vt 252
        buf.end("tuner", "execute", Some(0), b, Fields::new()); // local vt 253

        let (events, end_clock) = buf.drain_for_splice();
        assert_eq!(end_clock, 253);
        let map = main.splice(&events, end_clock);
        assert_eq!(map, vec![1, 2, 3, 4]);

        let evs = main.snapshot();
        assert_eq!(evs.len(), 5);
        // Tick-stamped events replay their deltas on the main clock
        // (1 + 1 = 2, then +251, +1); the sim event keeps its stamp.
        assert_eq!(evs[1].vt, 2);
        assert_eq!(evs[2].vt, 500_000);
        assert_eq!(evs[3].vt, 253);
        assert_eq!(evs[4].vt, 254);
        assert_eq!(main.now(), 254);
        // Span reference remapped from local seq 0 to spliced seq 1.
        assert_eq!(evs[4].span, Some(1));
        // Sequence numbers stay dense.
        assert_eq!(
            evs.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn suffixes_concatenate_to_the_log_and_a_restored_prefix_continues_it() {
        let t = Tracer::new();
        t.point(
            "a",
            "one",
            None,
            fields([("note", "esc \"\\\t\u{1}\" end".into())]),
        );
        let cut = t.len();
        // A spliced block renders in the suffix like any other event.
        let buf = Tracer::new();
        buf.point("b", "inside", Some(2), Fields::new());
        let (events, end_clock) = buf.drain_for_splice();
        t.splice(&events, end_clock);
        t.point("a", "two", Some(3), fields([("v", 1.5.into())]));
        let whole = t.to_jsonl();
        let tail = t.to_jsonl_from(cut);
        assert_eq!(t.to_jsonl_from(0), whole);
        assert_eq!(whole.lines().count(), 3);
        assert_eq!(tail.lines().count(), 2);
        assert!(whole.ends_with(&tail));
        assert_eq!(t.to_jsonl_from(t.len()), "");
        assert_eq!(t.to_jsonl_from(t.len() + 1), "");

        // Restore the parsed log into a fresh tracer and continue: seq and
        // vt carry on exactly where the original left off.
        let events = whole
            .lines()
            .map(|l| TraceEvent::from_json(l).unwrap())
            .collect();
        let resumed = Tracer::new();
        resumed.restore(events, t.now());
        resumed.point("a", "three", None, Fields::new());
        t.point("a", "three", None, Fields::new());
        assert_eq!(resumed.to_jsonl(), t.to_jsonl());
    }

    #[test]
    fn jsonl_round_trips_through_file() {
        let t = Tracer::new();
        t.point("cycle", "start", None, fields([("n", 6u64.into())]));
        t.point(
            "cycle",
            "objective",
            Some(0),
            fields([("value", f64::NAN.into())]),
        );
        let dir = std::env::temp_dir().join(format!("e2c-trace-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("trace.jsonl");
        t.save(&path).unwrap();
        let back = load_jsonl(&path).unwrap();
        // NaN breaks direct equality; compare the canonical wire form.
        let reserialized: String = back.iter().map(|e| e.to_json() + "\n").collect();
        assert_eq!(reserialized, t.to_jsonl());
        assert!(back[1].fields["value"].as_f64().unwrap().is_nan());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
