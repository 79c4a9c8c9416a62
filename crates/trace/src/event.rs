//! The trace event model and its deterministic JSONL wire form.
//!
//! Every event carries two clocks:
//!
//! * `seq` — a per-tracer append counter, unique and gapless;
//! * `vt`  — virtual time.  Tuner-side events tick a [`crate::VirtualClock`]
//!   (one tick per event plus explicit advances); simulation-side events
//!   carry their discrete-event sim time in microseconds.  No wall clock
//!   ever reaches an event, which is what makes `trace.jsonl` byte-stable
//!   under `--replay-check`.
//!
//! Events serialize one-per-line as JSON with keys in a fixed order and
//! `fields` in BTreeMap (sorted) order, so equal event streams produce
//! byte-identical files.

use e2c_journal::json::{Escaped, Json};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether an event opens a span, closes one, or stands alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Begin,
    End,
    Point,
}

impl EventKind {
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Point => "point",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "begin" => Some(EventKind::Begin),
            "end" => Some(EventKind::End),
            "point" => Some(EventKind::Point),
            _ => None,
        }
    }
}

/// A structured field value.  Unsigned integers keep their exact textual
/// form (no float round-trip); non-finite floats are serialized as quoted
/// strings because bare `NaN` is not JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    U64(u64),
    I64(i64),
    F64(f64),
    Str(String),
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl Value {
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::U64(v) => Some(*v as f64),
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            Value::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            Value::Bool(_) => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(v) => Some(*v),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else if v.is_nan() {
                    out.push_str("\"NaN\"");
                } else if *v > 0.0 {
                    out.push_str("\"inf\"");
                } else {
                    out.push_str("\"-inf\"");
                }
            }
            Value::Str(s) => {
                let _ = write!(out, "\"{}\"", Escaped(s));
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        }
    }
}

/// One record in the append-only log.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Append sequence number, gapless per tracer.
    pub seq: u64,
    /// Virtual time (event ticks or sim microseconds — see module docs).
    pub vt: u64,
    /// Subsystem the event belongs to (`tuner`, `searcher`, `des`, `sim`,
    /// `cycle`, ...).
    pub phase: String,
    /// Event name within the phase (`ask`, `execute`, `tell`, ...).
    pub name: String,
    pub kind: EventKind,
    /// Trial the event belongs to, when applicable.
    pub trial: Option<u64>,
    /// For `End` events: the `seq` of the matching `Begin`.
    pub span: Option<u64>,
    pub fields: BTreeMap<String, Value>,
}

impl TraceEvent {
    /// Serialize as a single JSON line (no trailing newline).  Key order is
    /// fixed; optional keys are omitted rather than null so the byte stream
    /// has one canonical form.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"seq\":{},\"vt\":{},\"phase\":\"{}\",\"name\":\"{}\",\"kind\":\"{}\"",
            self.seq,
            self.vt,
            Escaped(&self.phase),
            Escaped(&self.name),
            self.kind.as_str()
        );
        if let Some(t) = self.trial {
            let _ = write!(s, ",\"trial\":{t}");
        }
        if let Some(b) = self.span {
            let _ = write!(s, ",\"span\":{b}");
        }
        if !self.fields.is_empty() {
            s.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "\"{}\":", Escaped(k));
                v.write_json(&mut s);
            }
            s.push('}');
        }
        s.push('}');
        s
    }

    /// Parse one JSONL line produced by [`TraceEvent::to_json`].
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        let json = Json::parse(line)?;
        let obj = match json {
            Json::Obj(m) => m,
            _ => return Err("trace line is not a JSON object".into()),
        };
        let need_u64 = |key: &str| -> Result<u64, String> {
            obj.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing/invalid `{key}`"))
        };
        let need_str = |key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing/invalid `{key}`"))
        };
        let kind_s = need_str("kind")?;
        let kind = EventKind::parse(&kind_s).ok_or_else(|| format!("bad kind `{kind_s}`"))?;
        let mut fields = BTreeMap::new();
        if let Some(Json::Obj(m)) = obj.get("fields") {
            for (k, v) in m {
                fields.insert(k.clone(), json_to_value(v));
            }
        }
        Ok(TraceEvent {
            seq: need_u64("seq")?,
            vt: need_u64("vt")?,
            phase: need_str("phase")?,
            name: need_str("name")?,
            kind,
            trial: obj.get("trial").and_then(Json::as_u64),
            span: obj.get("span").and_then(Json::as_u64),
            fields,
        })
    }
}

/// Lossy conversion of a parsed JSON field into a trace [`Value`].
fn json_to_value(json: &Json) -> Value {
    match json {
        Json::Num(raw) => {
            if let Ok(u) = raw.parse::<u64>() {
                Value::U64(u)
            } else if raw.starts_with('-') && raw.parse::<i64>() == Ok(0) {
                // `-0` is integer-parseable but would re-encode as
                // `0`; keep the sign by staying in float space.
                Value::F64(-0.0)
            } else if let Ok(i) = raw.parse::<i64>() {
                Value::I64(i)
            } else {
                Value::F64(raw.parse().unwrap_or(f64::NAN))
            }
        }
        Json::Str(s) => Value::Str(s.clone()),
        Json::Bool(b) => Value::Bool(*b),
        Json::Obj(_) | Json::Arr(_) | Json::Null => Value::Str(String::new()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_json() {
        let mut fields = BTreeMap::new();
        fields.insert("value".to_string(), Value::F64(2.5));
        fields.insert("attempt".to_string(), Value::U64(3));
        fields.insert("error".to_string(), Value::Str("dead \"quote\"".into()));
        fields.insert("ok".to_string(), Value::Bool(false));
        let ev = TraceEvent {
            seq: 7,
            vt: 41,
            phase: "tuner".into(),
            name: "attempt".into(),
            kind: EventKind::Point,
            trial: Some(2),
            span: None,
            fields,
        };
        let line = ev.to_json();
        let back = TraceEvent::from_json(&line).unwrap();
        assert_eq!(ev, back);
    }

    #[test]
    fn nonfinite_floats_survive_serialization() {
        let mut fields = BTreeMap::new();
        fields.insert("value".to_string(), Value::F64(f64::NAN));
        let ev = TraceEvent {
            seq: 0,
            vt: 0,
            phase: "cycle".into(),
            name: "objective".into(),
            kind: EventKind::Point,
            trial: Some(0),
            span: None,
            fields,
        };
        let line = ev.to_json();
        assert!(line.contains("\"value\":\"NaN\""), "{line}");
        let back = TraceEvent::from_json(&line).unwrap();
        assert!(back.fields["value"].as_f64().unwrap().is_nan());
    }

    #[test]
    fn optional_keys_are_omitted() {
        let ev = TraceEvent {
            seq: 1,
            vt: 2,
            phase: "des".into(),
            name: "run".into(),
            kind: EventKind::Point,
            trial: None,
            span: None,
            fields: BTreeMap::new(),
        };
        let line = ev.to_json();
        assert!(!line.contains("trial"));
        assert!(!line.contains("span"));
        assert!(!line.contains("fields"));
        assert_eq!(TraceEvent::from_json(&line).unwrap(), ev);
    }

    #[test]
    fn span_reference_round_trips() {
        let ev = TraceEvent {
            seq: 9,
            vt: 12,
            phase: "tuner".into(),
            name: "execute".into(),
            kind: EventKind::End,
            trial: Some(4),
            span: Some(5),
            fields: BTreeMap::new(),
        };
        assert_eq!(TraceEvent::from_json(&ev.to_json()).unwrap(), ev);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(TraceEvent::from_json("{not json").is_err());
        assert!(TraceEvent::from_json("[1,2]").is_err());
        assert!(TraceEvent::from_json("{\"seq\":1}").is_err());
    }

    #[test]
    fn encode_decode_encode_is_byte_stable() {
        let mut fields = BTreeMap::new();
        fields.insert("value".to_string(), Value::F64(f64::INFINITY));
        fields.insert("note".to_string(), Value::Str("tab\there".into()));
        let ev = TraceEvent {
            seq: 3,
            vt: 8,
            phase: "tuner".into(),
            name: "objective".into(),
            kind: EventKind::Begin,
            trial: Some(1),
            span: Some(2),
            fields,
        };
        let once = ev.to_json();
        let twice = TraceEvent::from_json(&once).unwrap().to_json();
        assert_eq!(once, twice);
    }

    #[test]
    fn negative_zero_field_keeps_its_sign() {
        // Fuzz find: `-0` parses as i64 zero, which re-encoded as `0` and
        // broke the encode fixpoint. It must stay a (negative) float.
        let line = r#"{"seq":1,"vt":2,"phase":"p","name":"n","kind":"point","fields":{"x":-0}}"#;
        let ev = TraceEvent::from_json(line).unwrap();
        match ev.fields["x"] {
            Value::F64(f) => assert!(f == 0.0 && f.is_sign_negative()),
            ref other => panic!("expected F64(-0.0), got {other:?}"),
        }
        let once = ev.to_json();
        let twice = TraceEvent::from_json(&once).unwrap().to_json();
        assert_eq!(once, twice);
        assert!(once.contains("\"x\":-0"), "sign lost in {once}");
    }
}
