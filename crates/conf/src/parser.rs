//! Recursive-descent parser for the YAML subset.
//!
//! Supported constructs:
//!
//! * block mappings — `key: value`, nested by indentation;
//! * block sequences — `- item`, including `- key: value` compact maps;
//! * flow sequences — `[1, 2, three]` (scalars only, no nesting);
//! * scalars — `null`/`~`, booleans, integers, floats, bare strings,
//!   single/double-quoted strings;
//! * comments — `# ...` full-line or trailing;
//! * a leading `---` document marker.
//!
//! Not supported (by design): anchors/aliases, multi-line scalars, flow
//! mappings, tabs for indentation, multiple documents.

use crate::value::Value;
use std::fmt;

/// Maximum nesting depth, counting block levels and flow-sequence levels
/// together. Real configurations are a handful of levels deep; the bound
/// exists so a pathological document (`[[[[…`, or ten thousand lines each
/// indented one step deeper) is a typed [`ParseError`] instead of a stack
/// overflow — the parser feeds on hand-edited files and must never abort.
const MAX_DEPTH: usize = 64;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line where the problem was detected.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

struct Line {
    number: usize,
    indent: usize,
    content: String,
}

/// Parse a document into a [`Value`]. An empty (or comment-only) document
/// parses to [`Value::Null`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let lines = preprocess(input)?;
    if lines.is_empty() {
        return Ok(Value::Null);
    }
    let mut pos = 0;
    // `lines` was checked non-empty above, but use the non-panicking
    // accessor anyway: this is the entry point for arbitrary user bytes.
    let root_indent = lines.first().map_or(0, |l| l.indent);
    let value = parse_block(&lines, &mut pos, root_indent, 0)?;
    if pos < lines.len() {
        return Err(ParseError {
            line: lines[pos].number,
            message: format!(
                "unexpected indentation {} (expected at most {})",
                lines[pos].indent, root_indent
            ),
        });
    }
    Ok(value)
}

fn preprocess(input: &str) -> Result<Vec<Line>, ParseError> {
    let mut out = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        let number = i + 1;
        let without_comment = strip_comment(raw);
        let trimmed = without_comment.trim_end();
        let content = trimmed.trim_start();
        if content.is_empty() {
            continue;
        }
        if number == 1 && content == "---" {
            continue;
        }
        // Indentation must be plain spaces. Checking the leading run
        // directly (rather than `starts_with('\t')`) also catches tabs
        // *mixed into* the run (`"  \tkey:"`), which `trim_start`-based
        // checks silently accept as indentation.
        if trimmed[..trimmed.len() - content.len()]
            .chars()
            .any(|c| c != ' ')
        {
            return Err(ParseError {
                line: number,
                message: "only spaces are allowed for indentation (no tabs or other whitespace)"
                    .into(),
            });
        }
        let indent = trimmed.len() - content.len();
        out.push(Line {
            number,
            indent,
            content: content.to_string(),
        });
    }
    Ok(out)
}

/// Remove a trailing comment, respecting quotes.
fn strip_comment(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut in_single = false;
    let mut in_double = false;
    let mut escaped = false;
    for c in line.chars() {
        match c {
            '\\' if in_double && !escaped => {
                escaped = true;
                out.push(c);
                continue;
            }
            '"' if !in_single && !escaped => in_double = !in_double,
            '\'' if !in_double => in_single = !in_single,
            '#' if !in_single && !in_double
                // `#` begins a comment at line start or after whitespace.
                && (out.is_empty() || out.ends_with(' ')) =>
            {
                break;
            }
            _ => {}
        }
        escaped = false;
        out.push(c);
    }
    out
}

fn parse_block(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Value, ParseError> {
    let Some(line) = lines.get(*pos) else {
        return Ok(Value::Null);
    };
    if depth >= MAX_DEPTH {
        return Err(ParseError {
            line: line.number,
            message: format!("nesting deeper than {MAX_DEPTH} levels"),
        });
    }
    if line.content.starts_with("- ") || line.content == "-" {
        parse_sequence(lines, pos, indent, depth)
    } else if split_key(&line.content).is_none()
        && lines.get(*pos + 1).is_none_or(|l| l.indent < indent)
    {
        // A lone keyless line is a scalar document (or scalar block
        // value): `null`, `42`, a bare string. Without this case a
        // serialized scalar root could not be read back.
        let number = line.number;
        let content = line.content.clone();
        *pos += 1;
        parse_scalar(&content, number, depth)
    } else {
        parse_mapping(lines, pos, indent, depth)
    }
}

fn parse_sequence(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Value, ParseError> {
    if depth >= MAX_DEPTH {
        return Err(too_deep(lines.get(*pos).map_or(0, |l| l.number)));
    }
    let mut items = Vec::new();
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent != indent {
            if line.indent > indent {
                return Err(ParseError {
                    line: line.number,
                    message: "unexpected deeper indentation in sequence".into(),
                });
            }
            break;
        }
        if !(line.content.starts_with("- ") || line.content == "-") {
            break;
        }
        let number = line.number;
        if line.content == "-" {
            // Nested block on the following, deeper-indented lines.
            *pos += 1;
            if *pos < lines.len() && lines[*pos].indent > indent {
                let child_indent = lines[*pos].indent;
                items.push(parse_block(lines, pos, child_indent, depth + 1)?);
            } else {
                items.push(Value::Null);
            }
            continue;
        }
        let rest = line.content[2..].trim_start().to_string();
        if let Some((key, inline)) = split_key(&rest) {
            // `- key: ...` — a compact mapping item. Re-interpret this line
            // as the first key of a mapping indented at `indent + 2`.
            let virtual_indent = indent + 2;
            let mut map_pairs = Vec::new();
            *pos += 1; // consume the `- key: ...` line itself
            let first_val =
                parse_mapping_value(lines, pos, virtual_indent, &inline, number, depth + 1)?;
            map_pairs.push((key, first_val));
            // Continue the mapping on subsequent lines at the same virtual
            // indent.
            while *pos < lines.len() && lines[*pos].indent == virtual_indent {
                let l = &lines[*pos];
                if l.content.starts_with("- ") || l.content == "-" {
                    break;
                }
                let Some((k, inline)) = split_key(&l.content) else {
                    return Err(ParseError {
                        line: l.number,
                        message: format!("expected `key:` in mapping, got `{}`", l.content),
                    });
                };
                let num = l.number;
                *pos += 1;
                let v = parse_mapping_value(lines, pos, virtual_indent, &inline, num, depth + 1)?;
                map_pairs.push((k, v));
            }
            items.push(Value::Map(map_pairs));
        } else {
            *pos += 1;
            items.push(parse_scalar(&rest, number, depth + 1)?);
        }
    }
    Ok(Value::Seq(items))
}

fn parse_mapping(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Value, ParseError> {
    if depth >= MAX_DEPTH {
        return Err(too_deep(lines.get(*pos).map_or(0, |l| l.number)));
    }
    let mut pairs: Vec<(String, Value)> = Vec::new();
    while *pos < lines.len() {
        let line = &lines[*pos];
        if line.indent != indent {
            if line.indent > indent {
                return Err(ParseError {
                    line: line.number,
                    message: "unexpected deeper indentation in mapping".into(),
                });
            }
            break;
        }
        if line.content.starts_with("- ") || line.content == "-" {
            break;
        }
        let Some((key, inline)) = split_key(&line.content) else {
            return Err(ParseError {
                line: line.number,
                message: format!("expected `key: value`, got `{}`", line.content),
            });
        };
        if pairs.iter().any(|(k, _)| *k == key) {
            return Err(ParseError {
                line: line.number,
                message: format!("duplicate key `{key}`"),
            });
        }
        let number = line.number;
        *pos += 1;
        let value = parse_mapping_value(lines, pos, indent, &inline, number, depth)?;
        pairs.push((key, value));
    }
    Ok(Value::Map(pairs))
}

/// Parse the value of `key:` — inline scalar/flow-seq if present, otherwise
/// a nested block on the following deeper-indented lines. As in YAML, a
/// block sequence may sit at the *same* indent as its key (`- ` lines are
/// unambiguous there, since mapping entries never start with a dash).
fn parse_mapping_value(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    inline: &str,
    line_number: usize,
    depth: usize,
) -> Result<Value, ParseError> {
    if !inline.is_empty() {
        return parse_scalar(inline, line_number, depth);
    }
    if *pos < lines.len() {
        let next = &lines[*pos];
        if next.indent > indent {
            let child_indent = next.indent;
            return parse_block(lines, pos, child_indent, depth + 1);
        }
        if next.indent == indent && (next.content.starts_with("- ") || next.content == "-") {
            return parse_sequence(lines, pos, indent, depth + 1);
        }
    }
    Ok(Value::Null)
}

/// Split `key: rest` respecting quoted keys. Returns `None` when the line
/// has no top-level `:` separator.
fn split_key(content: &str) -> Option<(String, String)> {
    let mut in_single = false;
    let mut in_double = false;
    let mut escaped = false;
    for (i, c) in content.char_indices() {
        match c {
            '\\' if in_double && !escaped => {
                escaped = true;
                continue;
            }
            '"' if !in_single && !escaped => in_double = !in_double,
            '\'' if !in_double => in_single = !in_single,
            ':' if !in_single && !in_double => {
                let after = &content[i + 1..];
                if after.is_empty() || after.starts_with(' ') {
                    let raw_key = content[..i].trim();
                    let key = unquote(raw_key);
                    return Some((key, after.trim().to_string()));
                }
            }
            _ => {}
        }
        escaped = false;
    }
    None
}

fn unquote(s: &str) -> String {
    if s.len() >= 2
        && ((s.starts_with('"') && s.ends_with('"')) || (s.starts_with('\'') && s.ends_with('\'')))
    {
        let inner = &s[1..s.len() - 1];
        if s.starts_with('"') {
            inner.replace("\\\"", "\"").replace("\\\\", "\\")
        } else {
            inner.replace("''", "'")
        }
    } else {
        s.to_string()
    }
}

/// The typed error for a document that nests past [`MAX_DEPTH`].
fn too_deep(line: usize) -> ParseError {
    ParseError {
        line,
        message: format!("nesting deeper than {MAX_DEPTH} levels"),
    }
}

fn parse_scalar(text: &str, line: usize, depth: usize) -> Result<Value, ParseError> {
    let t = text.trim();
    if t.is_empty() {
        return Ok(Value::Null);
    }
    if depth >= MAX_DEPTH {
        return Err(too_deep(line));
    }
    // Empty flow containers (the emitter's spelling for empty collections).
    if t == "{}" {
        return Ok(Value::Map(Vec::new()));
    }
    // Flow sequence of scalars.
    if t.starts_with('[') {
        if !t.ends_with(']') {
            return Err(ParseError {
                line,
                message: "unterminated flow sequence".into(),
            });
        }
        let inner = &t[1..t.len() - 1];
        let mut items = Vec::new();
        if !inner.trim().is_empty() {
            for part in split_flow_items(inner) {
                items.push(parse_scalar(part.trim(), line, depth + 1)?);
            }
        }
        return Ok(Value::Seq(items));
    }
    // A quoted scalar. Matching on the first char (instead of indexing
    // into it) keeps this arm free of panic-reachable `expect`s.
    if let Some(quote @ ('"' | '\'')) = t.chars().next() {
        if t.len() < 2 || !t.ends_with(quote) {
            return Err(ParseError {
                line,
                message: "unterminated quoted string".into(),
            });
        }
        return Ok(Value::Str(unquote(t)));
    }
    Ok(match t {
        "null" | "~" => Value::Null,
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => {
            if let Ok(i) = t.parse::<i64>() {
                Value::Int(i)
            } else if let Ok(f) = t.parse::<f64>() {
                Value::Float(f)
            } else {
                Value::Str(t.to_string())
            }
        }
    })
}

/// Split flow-sequence items on commas outside quotes.
fn split_flow_items(inner: &str) -> Vec<&str> {
    let mut items = Vec::new();
    let mut start = 0;
    let mut in_single = false;
    let mut in_double = false;
    for (i, c) in inner.char_indices() {
        match c {
            '"' if !in_single => in_double = !in_double,
            '\'' if !in_double => in_single = !in_single,
            ',' if !in_single && !in_double => {
                items.push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&inner[start..]);
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(parse("x: 42").unwrap().get("x"), Some(&Value::Int(42)));
        assert_eq!(parse("x: 2.5").unwrap().get("x"), Some(&Value::Float(2.5)));
        assert_eq!(parse("x: true").unwrap().get("x"), Some(&Value::Bool(true)));
        assert_eq!(parse("x: null").unwrap().get("x"), Some(&Value::Null));
        assert_eq!(parse("x: ~").unwrap().get("x"), Some(&Value::Null));
        assert_eq!(
            parse("x: hello world").unwrap().get("x"),
            Some(&Value::Str("hello world".into()))
        );
        assert_eq!(
            parse("x: \"42\"").unwrap().get("x"),
            Some(&Value::Str("42".into()))
        );
        assert_eq!(
            parse("x: 'it''s'").unwrap().get("x"),
            Some(&Value::Str("it's".into()))
        );
    }

    #[test]
    fn nested_mapping() {
        let doc = parse("engine:\n  pools:\n    http: 40\n    extract: 7\n  gpu: true\n").unwrap();
        let pools = doc.get("engine").unwrap().get("pools").unwrap();
        assert_eq!(pools.get("http").unwrap().as_int(), Some(40));
        assert_eq!(pools.get("extract").unwrap().as_int(), Some(7));
        assert_eq!(
            doc.get("engine").unwrap().get("gpu"),
            Some(&Value::Bool(true))
        );
    }

    #[test]
    fn block_sequence_of_scalars() {
        let doc = parse("workloads:\n  - 80\n  - 120\n  - 140\n").unwrap();
        let w = doc.get("workloads").unwrap().as_seq().unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w[1].as_int(), Some(120));
    }

    #[test]
    fn sequence_of_mappings() {
        let doc = parse(
            "services:\n- name: engine\n  cluster: chifflot\n  quantity: 1\n- name: clients\n  cluster: gros\n",
        )
        .unwrap();
        let services = doc.get("services").unwrap().as_seq().unwrap();
        assert_eq!(services.len(), 2);
        assert_eq!(
            services[0].get("cluster").unwrap().as_str(),
            Some("chifflot")
        );
        assert_eq!(services[0].get("quantity").unwrap().as_int(), Some(1));
        assert_eq!(services[1].get("name").unwrap().as_str(), Some("clients"));
    }

    #[test]
    fn sequence_item_with_nested_block() {
        let doc = parse("layers:\n- name: cloud\n  services:\n    - engine\n    - db\n").unwrap();
        let layer = &doc.get("layers").unwrap().as_seq().unwrap()[0];
        assert_eq!(layer.get("name").unwrap().as_str(), Some("cloud"));
        let svcs = layer.get("services").unwrap().as_seq().unwrap();
        assert_eq!(svcs.len(), 2);
        assert_eq!(svcs[1].as_str(), Some("db"));
    }

    #[test]
    fn flow_sequence() {
        let doc = parse("bounds: [20, 60]\nnames: [http, \"download, q\"]").unwrap();
        assert_eq!(
            doc.get("bounds").unwrap().as_seq().unwrap()[1].as_int(),
            Some(60)
        );
        let names = doc.get("names").unwrap().as_seq().unwrap();
        assert_eq!(names[1].as_str(), Some("download, q"));
    }

    #[test]
    fn comments_stripped() {
        let doc = parse("# experiment definition\nhttp: 40   # pool size\nurl: \"http://x#y\"\n")
            .unwrap();
        assert_eq!(doc.get("http").unwrap().as_int(), Some(40));
        assert_eq!(doc.get("url").unwrap().as_str(), Some("http://x#y"));
    }

    #[test]
    fn document_marker_and_empty() {
        assert_eq!(parse("").unwrap(), Value::Null);
        assert_eq!(parse("# only comments\n\n").unwrap(), Value::Null);
        let doc = parse("---\nkey: v\n").unwrap();
        assert_eq!(doc.get("key").unwrap().as_str(), Some("v"));
    }

    #[test]
    fn null_values_from_empty() {
        let doc = parse("a:\nb: 1\n").unwrap();
        assert!(doc.get("a").unwrap().is_null());
        assert_eq!(doc.get("b").unwrap().as_int(), Some(1));
    }

    #[test]
    fn duplicate_key_rejected() {
        let err = parse("a: 1\na: 2\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn tabs_rejected() {
        let err = parse("a:\n\tb: 1\n").unwrap_err();
        assert!(err.message.contains("tabs"));
    }

    #[test]
    fn bad_indent_rejected() {
        assert!(parse("a: 1\n   b: 2\n").is_err());
    }

    /// Minimized fuzz regression: a tab (or any non-space whitespace)
    /// *mixed into* the leading run used to slip past the tab check and
    /// count as indentation bytes, silently misparsing the document.
    #[test]
    fn tab_mixed_into_indentation_rejected() {
        let err = parse("a:\n \tb: 1\n").unwrap_err();
        assert!(err.message.contains("spaces"), "{}", err.message);
        assert_eq!(err.line, 2);
        // Unicode whitespace (NBSP here) is not indentation either.
        assert!(parse("a:\n\u{00A0}b: 1\n").is_err());
    }

    /// Minimized fuzz regression: `k: [[[[…` recursed once per bracket
    /// and overflowed the stack. Nesting past MAX_DEPTH is a ParseError.
    #[test]
    fn deep_flow_nesting_is_a_typed_error() {
        let doc = format!("k: {}{}", "[".repeat(2000), "]".repeat(2000));
        let err = parse(&doc).unwrap_err();
        assert!(err.message.contains("nesting"), "{}", err.message);
    }

    /// Minimized fuzz regression: one-level-deeper indentation per line
    /// recursed once per line; thousands of lines overflowed the stack.
    #[test]
    fn deep_block_nesting_is_a_typed_error() {
        let mut doc = String::new();
        for i in 0..2000 {
            doc.push_str(&" ".repeat(i));
            doc.push_str("a:\n");
        }
        let err = parse(&doc).unwrap_err();
        assert!(err.message.contains("nesting"), "{}", err.message);
    }

    /// The depth bound is far above anything a real configuration uses.
    #[test]
    fn realistic_nesting_depth_stays_accepted() {
        let mut doc = String::new();
        for i in 0..20 {
            doc.push_str(&" ".repeat(2 * i));
            doc.push_str(if i == 19 { "leaf: 1\n" } else { "a:\n" });
        }
        let parsed = parse(&doc).unwrap();
        let mut v = &parsed;
        for _ in 0..19 {
            v = v.get("a").unwrap();
        }
        assert_eq!(v.get("leaf").unwrap().as_int(), Some(1));
        // A few levels of comma-free flow nesting stay accepted (flow
        // items containing commas are "scalars only" by design).
        let flow = parse("k: [[[3]]]").unwrap();
        assert_eq!(
            flow.get("k")
                .unwrap()
                .idx(0)
                .unwrap()
                .idx(0)
                .unwrap()
                .idx(0),
            Some(&Value::Int(3))
        );
    }

    /// A document that is a single scalar (what `to_yaml` writes for a
    /// scalar root) must read back — found by the fuzz harness: `parse`
    /// of the empty document yields `Null`, whose serialized form `null`
    /// then failed to parse.
    #[test]
    fn scalar_root_documents_parse() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("42").unwrap(), Value::Int(42));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("hello").unwrap(), Value::Str("hello".into()));
        assert_eq!(
            parse("[1, 2]").unwrap(),
            Value::Seq(vec![Value::Int(1), Value::Int(2)])
        );
        // A scalar block value under a key reads back too.
        let v = parse("k:\n  just a string\n").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("just a string"));
        // Multi-line keyless content is still an error, not a scalar.
        assert!(parse("foo\nbar: 1\n").is_err());
    }

    #[test]
    fn unterminated_quote_rejected() {
        let err = parse("a: \"oops\n").unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn roundtrip_through_to_yaml() {
        let src = "name: plantnet\npools:\n  http: 40\n  extract: 7\nworkloads:\n  - 80\n  - 120\nservices:\n  - name: engine\n    gpu: true\n";
        let doc = parse(src).unwrap();
        let emitted = doc.to_yaml();
        let reparsed = parse(&emitted).unwrap();
        assert_eq!(doc, reparsed, "emitted:\n{emitted}");
    }

    #[test]
    fn listing1_style_config_parses() {
        // The optimizer_conf analog of the paper's Listing 1.
        let src = r#"
optimization:
  metric: user_resp_time
  mode: min
  name: plantnet_engine
  num_samples: 10
  max_concurrent: 2
  search:
    algo: extra_trees
    n_initial_points: 45
    initial_point_generator: lhs
    acq_func: gp_hedge
  config:
    - name: http
      type: randint
      bounds: [20, 60]
    - name: download
      type: randint
      bounds: [20, 60]
    - name: simsearch
      type: randint
      bounds: [20, 60]
    - name: extract
      type: randint
      bounds: [3, 9]
"#;
        let doc = parse(src).unwrap();
        let opt = doc.get("optimization").unwrap();
        assert_eq!(opt.get("metric").unwrap().as_str(), Some("user_resp_time"));
        assert_eq!(
            opt.get("search").unwrap().get("acq_func").unwrap().as_str(),
            Some("gp_hedge")
        );
        let config = opt.get("config").unwrap().as_seq().unwrap();
        assert_eq!(config.len(), 4);
        assert_eq!(
            config[3].get("bounds").unwrap().as_seq().unwrap()[1].as_int(),
            Some(9)
        );
    }
}
