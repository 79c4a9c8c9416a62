//! The parsed configuration tree.

use std::fmt;

/// A node in a parsed configuration document.
///
/// Mappings preserve insertion order (they are stored as pairs), so
/// re-serializing a document is deterministic — which matters for the
/// reproducibility archive.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null` / `~` / empty.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer scalar.
    Int(i64),
    /// Float scalar.
    Float(f64),
    /// String scalar (quoted or bare).
    Str(String),
    /// Block or flow sequence.
    Seq(Vec<Value>),
    /// Block mapping with preserved key order.
    Map(Vec<(String, Value)>),
}

impl Value {
    /// Mapping lookup; `None` for non-maps or absent keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Sequence element; `None` for non-sequences or out of range.
    pub fn idx(&self, i: usize) -> Option<&Value> {
        match self {
            Value::Seq(items) => items.get(i),
            _ => None,
        }
    }

    /// String view of a string scalar.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view (exact ints only).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Float view; integers widen to floats.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// Sequence view.
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(items) => Some(items),
            _ => None,
        }
    }

    /// True for `Value::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Render the value as a canonical, line-oriented tree — one node per
    /// line, two-space indent, scalars tagged with their type. This is the
    /// *differential-testing* form: the fixture corpus under
    /// `crates/conf/tests/corpus/` commits the expected `.tree` rendering
    /// of each `.yaml` fixture, and both the corpus test and `e2clab fuzz
    /// --codec conf_yaml` byte-compare against it. Unlike `to_yaml` it is
    /// total (floats render via `{:?}`, so NaN/inf are representable) and
    /// unambiguous (Int(2) vs Float(2.0) vs Str("2") all render apart).
    pub fn to_tree(&self) -> String {
        let mut out = String::new();
        self.write_tree(&mut out, 0);
        out
    }

    fn write_tree(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Value::Null => out.push_str(&format!("{pad}null\n")),
            Value::Bool(b) => out.push_str(&format!("{pad}bool {b}\n")),
            Value::Int(i) => out.push_str(&format!("{pad}int {i}\n")),
            Value::Float(f) => out.push_str(&format!("{pad}float {f:?}\n")),
            Value::Str(s) => out.push_str(&format!("{pad}str {s:?}\n")),
            Value::Seq(items) => {
                out.push_str(&format!("{pad}seq[{}]\n", items.len()));
                for item in items {
                    item.write_tree(out, indent + 1);
                }
            }
            Value::Map(pairs) => {
                out.push_str(&format!("{pad}map[{}]\n", pairs.len()));
                for (k, v) in pairs {
                    out.push_str(&format!("{pad}  key {k:?}\n"));
                    v.write_tree(out, indent + 2);
                }
            }
        }
    }

    /// Serialize back to the YAML subset (block style, two-space indent).
    pub fn to_yaml(&self) -> String {
        let mut out = String::new();
        match self {
            // Empty collections have no block form — an empty document
            // re-parses as Null — so they get their flow spelling.
            Value::Seq(items) if items.is_empty() => out.push_str("[]"),
            Value::Map(pairs) if pairs.is_empty() => out.push_str("{}"),
            Value::Seq(_) | Value::Map(_) => self.write_block(&mut out, 0),
            scalar => out.push_str(&scalar.scalar_repr()),
        }
        out
    }

    fn scalar_repr(&self) -> String {
        match self {
            Value::Null => "null".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                // Keep floats recognizable as floats on re-parse.
                if f.fract() == 0.0 && f.is_finite() {
                    format!("{f:.1}")
                } else {
                    format!("{f}")
                }
            }
            Value::Str(s) => {
                // `s.trim() != s` (not just edge *spaces*): the parser
                // trims any whitespace off bare scalars, so a tab-edged
                // string emitted bare would re-parse differently.
                let needs_quotes = s.is_empty()
                    || s.trim() != s
                    || s.contains(':')
                    || s.contains('#')
                    || s.starts_with(['-', '[', ']', '{', '}', '\'', '"'])
                    || parses_as_non_string(s);
                if needs_quotes {
                    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
                } else {
                    s.clone()
                }
            }
            _ => unreachable!("scalar_repr on collection"),
        }
    }

    fn write_block(&self, out: &mut String, indent: usize) {
        let pad = "  ".repeat(indent);
        match self {
            Value::Map(pairs) => {
                for (k, v) in pairs {
                    let k = key_repr(k);
                    match v {
                        Value::Map(m) if !m.is_empty() => {
                            out.push_str(&format!("{pad}{k}:\n"));
                            v.write_block(out, indent + 1);
                        }
                        Value::Seq(s) if !s.is_empty() => {
                            out.push_str(&format!("{pad}{k}:\n"));
                            v.write_block(out, indent + 1);
                        }
                        Value::Map(_) => out.push_str(&format!("{pad}{k}: {{}}\n")),
                        Value::Seq(_) => out.push_str(&format!("{pad}{k}: []\n")),
                        scalar => out.push_str(&format!("{pad}{k}: {}\n", scalar.scalar_repr())),
                    }
                }
            }
            Value::Seq(items) => {
                for item in items {
                    match item {
                        Value::Map(pairs) if pairs.is_empty() => {
                            out.push_str(&format!("{pad}- {{}}\n"));
                        }
                        Value::Seq(s) if s.is_empty() => {
                            out.push_str(&format!("{pad}- []\n"));
                        }
                        Value::Map(pairs) => {
                            // `- key: value` with the rest indented.
                            let (k0, v0) = &pairs[0];
                            let k0 = key_repr(k0);
                            match v0 {
                                Value::Map(m) if m.is_empty() => {
                                    out.push_str(&format!("{pad}- {k0}: {{}}\n"))
                                }
                                Value::Seq(s) if s.is_empty() => {
                                    out.push_str(&format!("{pad}- {k0}: []\n"))
                                }
                                Value::Map(_) | Value::Seq(_) => {
                                    out.push_str(&format!("{pad}- {k0}:\n"));
                                    v0.write_block(out, indent + 2);
                                }
                                scalar => out
                                    .push_str(&format!("{pad}- {k0}: {}\n", scalar.scalar_repr())),
                            }
                            for (k, v) in &pairs[1..] {
                                let k = key_repr(k);
                                match v {
                                    Value::Map(m) if m.is_empty() => {
                                        out.push_str(&format!("{pad}  {k}: {{}}\n"))
                                    }
                                    Value::Seq(s) if s.is_empty() => {
                                        out.push_str(&format!("{pad}  {k}: []\n"))
                                    }
                                    Value::Map(_) | Value::Seq(_) => {
                                        out.push_str(&format!("{pad}  {k}:\n"));
                                        v.write_block(out, indent + 2);
                                    }
                                    scalar => out.push_str(&format!(
                                        "{pad}  {k}: {}\n",
                                        scalar.scalar_repr()
                                    )),
                                }
                            }
                        }
                        Value::Seq(_) => {
                            out.push_str(&format!("{pad}-\n"));
                            item.write_block(out, indent + 1);
                        }
                        scalar => out.push_str(&format!("{pad}- {}\n", scalar.scalar_repr())),
                    }
                }
            }
            _ => unreachable!("write_block on scalar"),
        }
    }
}

/// Render a mapping key so it re-parses to the same key. Bare keys must
/// survive comment stripping, `split_key` and `trim` unchanged; anything
/// else (embedded colons, `#`, quotes, edge whitespace, sequence-looking
/// prefixes) is double-quoted with the escape set `unquote` reverses.
/// Emitting such keys bare used to *misparse* on reload: `"a: b": 1`
/// round-tripped to `a: b: 1`, which reads back as `a: "b: 1"`.
fn key_repr(k: &str) -> String {
    let bare_is_safe = !k.is_empty()
        && k == k.trim()
        && !k.contains([':', '#', '"', '\''])
        && !k.starts_with("- ")
        && k != "-";
    if bare_is_safe {
        k.to_string()
    } else {
        format!("\"{}\"", k.replace('\\', "\\\\").replace('"', "\\\""))
    }
}

/// Would this bare string re-parse as something other than a string?
fn parses_as_non_string(s: &str) -> bool {
    matches!(s, "null" | "~" | "true" | "false")
        || s.parse::<i64>().is_ok()
        || s.parse::<f64>().is_ok()
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_yaml())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::Map(vec![
            ("name".into(), Value::Str("plantnet".into())),
            (
                "pools".into(),
                Value::Map(vec![
                    ("http".into(), Value::Int(40)),
                    ("extract".into(), Value::Int(7)),
                ]),
            ),
            (
                "workloads".into(),
                Value::Seq(vec![Value::Int(80), Value::Int(120), Value::Int(140)]),
            ),
        ])
    }

    #[test]
    fn get_and_idx() {
        let v = sample();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("plantnet"));
        assert_eq!(
            v.get("pools")
                .and_then(|p| p.get("http"))
                .and_then(Value::as_int),
            Some(40)
        );
        assert_eq!(
            v.get("workloads")
                .and_then(|w| w.idx(1))
                .and_then(Value::as_int),
            Some(120)
        );
        assert!(v.get("absent").is_none());
        assert!(v.idx(0).is_none());
    }

    #[test]
    fn as_float_widens_ints() {
        assert_eq!(Value::Int(3).as_float(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_float(), None);
    }

    #[test]
    fn yaml_roundtrip_shape() {
        let v = sample();
        let text = v.to_yaml();
        assert!(text.contains("name: plantnet"));
        assert!(text.contains("  http: 40"));
        assert!(text.contains("- 80"));
    }

    #[test]
    fn strings_that_look_like_numbers_are_quoted() {
        let v = Value::Map(vec![("version".into(), Value::Str("42".into()))]);
        assert_eq!(v.to_yaml(), "version: \"42\"\n");
    }

    #[test]
    fn float_serialization_keeps_floatness() {
        assert_eq!(Value::Float(2.0).to_yaml(), "2.0");
        assert_eq!(Value::Float(2.5).to_yaml(), "2.5");
    }

    #[test]
    fn hostile_keys_are_quoted() {
        let v = Value::Map(vec![
            ("a: b".into(), Value::Int(1)),
            ("a #c".into(), Value::Int(2)),
            ("he said \"hi\"".into(), Value::Int(3)),
            (" padded ".into(), Value::Int(4)),
            ("".into(), Value::Int(5)),
            ("plain".into(), Value::Int(6)),
        ]);
        let yaml = v.to_yaml();
        assert!(yaml.contains("\"a: b\": 1"), "{yaml}");
        assert!(yaml.contains("\"a #c\": 2"), "{yaml}");
        assert!(yaml.contains("\"he said \\\"hi\\\"\": 3"), "{yaml}");
        assert!(yaml.contains("\" padded \": 4"), "{yaml}");
        assert!(yaml.contains("\"\": 5"), "{yaml}");
        assert!(yaml.contains("plain: 6"), "{yaml}");
    }

    #[test]
    fn empty_root_collections_round_trip() {
        // Fuzz find: an empty Seq at the root serialized to an empty
        // document, which re-parses as Null. Flow form survives.
        for (v, want) in [(Value::Seq(vec![]), "[]"), (Value::Map(vec![]), "{}")] {
            let yaml = v.to_yaml();
            assert_eq!(yaml, want);
            assert_eq!(crate::parse(&yaml).unwrap(), v);
        }
    }

    #[test]
    fn tree_rendering_is_canonical() {
        let v = Value::Map(vec![
            ("f".into(), Value::Float(f64::NAN)),
            ("s".into(), Value::Seq(vec![Value::Int(2), Value::Null])),
        ]);
        assert_eq!(
            v.to_tree(),
            "map[2]\n  key \"f\"\n    float NaN\n  key \"s\"\n    seq[2]\n      int 2\n      null\n"
        );
    }
}
