//! Post-hoc analysis of a trace: per-phase time breakdowns and per-trial
//! critical paths, rendered as fixed-width text tables for
//! `e2clab trace summarize`.

use crate::event::{EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregate statistics for one phase (subsystem).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PhaseStats {
    /// Total events attributed to the phase.
    pub events: u64,
    /// Completed begin/end span pairs.
    pub spans: u64,
    /// Sum of span durations in virtual-time units.
    pub span_vt: u64,
}

/// The critical path of a single trial: ask → execute span → tell.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TrialPath {
    pub trial: u64,
    pub ask_vt: Option<u64>,
    pub exec_begin_vt: Option<u64>,
    pub exec_end_vt: Option<u64>,
    pub attempts: u64,
    pub retries: u64,
    pub faults: u64,
    pub tell_vt: Option<u64>,
    /// Objective value reported to the searcher, if any.
    pub value: Option<f64>,
}

impl TrialPath {
    /// End-to-end virtual-time distance from ask to tell (the "latency"
    /// the issue asks for — measured in deterministic virtual ticks).
    pub fn ask_tell_vt(&self) -> Option<u64> {
        match (self.ask_vt, self.tell_vt) {
            (Some(a), Some(t)) => Some(t.saturating_sub(a)),
            _ => None,
        }
    }
}

/// Full summary of a trace.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TraceSummary {
    pub phases: BTreeMap<String, PhaseStats>,
    pub trials: BTreeMap<u64, TrialPath>,
    pub total_events: u64,
    /// Highest virtual time seen on any tuner-clock event.
    pub vt_end: u64,
}

impl TraceSummary {
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut s = TraceSummary::default();
        // seq -> vt of still-open begin events, for span durations.
        let mut open: BTreeMap<u64, u64> = BTreeMap::new();
        for e in events {
            s.total_events += 1;
            let ph = s.phases.entry(e.phase.clone()).or_default();
            ph.events += 1;
            match e.kind {
                EventKind::Begin => {
                    open.insert(e.seq, e.vt);
                }
                EventKind::End => {
                    if let Some(begin_vt) = e.span.and_then(|b| open.remove(&b)) {
                        ph.spans += 1;
                        ph.span_vt += e.vt.saturating_sub(begin_vt);
                    }
                }
                EventKind::Point => {}
            }
            // Sim-side events carry microsecond timestamps on their own
            // axis; only tuner-clock phases advance the global vt line.
            if e.phase != "sim" && e.phase != "des" {
                s.vt_end = s.vt_end.max(e.vt);
            }
            let Some(trial) = e.trial else { continue };
            let path = s.trials.entry(trial).or_insert_with(|| TrialPath {
                trial,
                ..TrialPath::default()
            });
            match (e.phase.as_str(), e.name.as_str(), e.kind) {
                ("searcher", "ask", _) => path.ask_vt = Some(e.vt),
                ("searcher", "tell", _) => {
                    path.tell_vt = Some(e.vt);
                    if let Some(v) = e.fields.get("value").and_then(|v| v.as_f64()) {
                        path.value = Some(v);
                    }
                }
                ("tuner", "execute", EventKind::Begin) => path.exec_begin_vt = Some(e.vt),
                ("tuner", "execute", EventKind::End) => path.exec_end_vt = Some(e.vt),
                ("tuner", "attempt", _) => {
                    path.attempts += 1;
                    if e.fields.contains_key("fault") {
                        path.faults += 1;
                    }
                }
                ("tuner", "retry", _) => path.retries += 1,
                _ => {}
            }
        }
        s
    }

    /// Render both tables as plain text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("per-phase breakdown (vt = virtual-time units)\n");
        out.push_str(&render_table(
            &["phase", "events", "spans", "span-vt"],
            &self
                .phases
                .iter()
                .map(|(name, p)| {
                    vec![
                        name.clone(),
                        p.events.to_string(),
                        p.spans.to_string(),
                        p.span_vt.to_string(),
                    ]
                })
                .collect::<Vec<_>>(),
        ));
        let _ = writeln!(
            out,
            "total events: {}   vt end: {}",
            self.total_events, self.vt_end
        );
        out.push('\n');
        out.push_str("per-trial critical path (ask -> execute -> tell)\n");
        let fmt_vt = |v: Option<u64>| v.map_or_else(|| "-".to_string(), |x| x.to_string());
        let rows: Vec<Vec<String>> = self
            .trials
            .values()
            .map(|t| {
                let exec = match (t.exec_begin_vt, t.exec_end_vt) {
                    (Some(b), Some(e)) => format!("{b}..{e}"),
                    (Some(b), None) => format!("{b}.."),
                    _ => "-".to_string(),
                };
                let value = match t.value {
                    Some(v) if v.is_finite() => format!("{v:.4}"),
                    Some(_) => "NaN".to_string(),
                    None => "-".to_string(),
                };
                vec![
                    t.trial.to_string(),
                    fmt_vt(t.ask_vt),
                    exec,
                    t.attempts.to_string(),
                    t.retries.to_string(),
                    t.faults.to_string(),
                    fmt_vt(t.tell_vt),
                    fmt_vt(t.ask_tell_vt()),
                    value,
                ]
            })
            .collect();
        out.push_str(&render_table(
            &[
                "trial", "ask@vt", "execute", "att", "retry", "fault", "tell@vt", "lat-vt", "value",
            ],
            &rows,
        ));
        out
    }
}

/// Left-aligned fixed-width text table.
fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let emit_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{cell:<width$}", width = widths[i]);
        }
        // Trim trailing padding so the byte stream is canonical.
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    };
    emit_row(
        &mut out,
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    );
    let rule: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    emit_row(&mut out, &rule);
    for row in rows {
        emit_row(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{fields, Fields, Tracer};

    fn sample_tracer() -> Tracer {
        let t = Tracer::new();
        t.point("cycle", "start", None, Fields::new());
        t.point(
            "searcher",
            "ask",
            Some(0),
            fields([("config", "http=40".into())]),
        );
        let b = t.begin("tuner", "execute", Some(0), Fields::new());
        t.point(
            "tuner",
            "attempt",
            Some(0),
            fields([("attempt", 1u64.into())]),
        );
        t.point(
            "tuner",
            "attempt",
            Some(0),
            fields([("attempt", 2u64.into()), ("fault", "fail".into())]),
        );
        t.point(
            "tuner",
            "retry",
            Some(0),
            fields([("delay_ms", 100u64.into())]),
        );
        t.end(
            "tuner",
            "execute",
            Some(0),
            b,
            fields([("value", 3.25.into())]),
        );
        t.point(
            "searcher",
            "tell",
            Some(0),
            fields([("value", 3.25.into())]),
        );
        t.point_at(
            1_000_000,
            "sim",
            "queues",
            Some(0),
            fields([("http", 3u64.into())]),
        );
        t
    }

    #[test]
    fn computes_phase_and_trial_stats() {
        let t = sample_tracer();
        let s = TraceSummary::from_events(&t.snapshot());
        assert_eq!(s.total_events, 9);
        assert_eq!(s.phases["tuner"].spans, 1);
        assert!(s.phases["tuner"].span_vt > 0);
        assert_eq!(s.phases["sim"].events, 1);
        let path = &s.trials[&0];
        assert_eq!(path.attempts, 2);
        assert_eq!(path.retries, 1);
        assert_eq!(path.faults, 1);
        assert_eq!(path.value, Some(3.25));
        assert!(path.ask_tell_vt().unwrap() > 0);
        // Sim-side microsecond timestamps must not distort the tuner vt line.
        assert!(s.vt_end < 1_000_000);
    }

    #[test]
    fn render_contains_both_tables() {
        let t = sample_tracer();
        let s = TraceSummary::from_events(&t.snapshot());
        let text = s.render();
        assert!(text.contains("per-phase breakdown"), "{text}");
        assert!(text.contains("per-trial critical path"), "{text}");
        assert!(text.contains("tuner"), "{text}");
        assert!(text.contains("3.2500"), "{text}");
    }

    #[test]
    fn render_is_deterministic() {
        let a = TraceSummary::from_events(&sample_tracer().snapshot()).render();
        let b = TraceSummary::from_events(&sample_tracer().snapshot()).render();
        assert_eq!(a, b);
    }

    #[test]
    fn empty_trace_renders_without_panicking() {
        let s = TraceSummary::from_events(&[]);
        let text = s.render();
        assert!(text.contains("total events: 0"), "{text}");
    }
}
