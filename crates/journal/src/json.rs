//! The workspace's one JSON codec: a string escaper for the writers and
//! a minimal recursive-descent parser for the readers.
//!
//! Every JSON artifact — `trace.jsonl`, `trials.jsonl`, the
//! `BENCH_<name>.json` reports and detlint's SARIF/JSON output — is
//! hand-written with a fixed key order, so there is no serializer here,
//! only [`Escaped`], the string-literal escaping all writers share.
//! Reading back goes through [`Json::parse`].
//!
//! Supported subset:
//!
//! * objects, arrays, strings, `true`/`false`/`null`, and numbers, which
//!   are validated but kept as raw text ([`Json::Num`]) so `u64` values
//!   never round-trip through `f64`;
//! * the escapes `\" \\ \/ \n \r \t \b \f \uXXXX`;
//! * nesting up to 64 levels — deeper documents are a typed error, not a
//!   stack overflow.
//!
//! Not supported: streaming, surrogate pairs (each `\uD8xx` half decodes
//! to U+FFFD), and duplicate-key detection (the last key wins).

use std::collections::BTreeMap;
use std::fmt;

/// Maximum object/array nesting. The writers emit at most three levels;
/// the bound turns `[[[[…` — which would recurse once per bracket and
/// overflow the stack — into a typed error.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Obj(BTreeMap<String, Json>),
    Arr(Vec<Json>),
    Str(String),
    /// The number's raw text, already checked to parse as `f64`.
    Num(String),
    Bool(bool),
    Null,
}

impl Json {
    /// Parse a complete JSON document (no trailing bytes).
    pub fn parse(input: &str) -> Result<Json, String> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing bytes at offset {pos}"));
        }
        Ok(v)
    }

    /// An exact unsigned integer (no fraction, exponent or sign).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Writes a string's JSON-escaped form (without the surrounding quotes):
/// `"`, `\`, newline, carriage return and tab as two-character escapes,
/// every other C0 control character as `\u00XX`. Unescaped runs go out
/// with one `write_str` each, so `write!(out, "\"{}\"", Escaped(s))`
/// allocates nothing.
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut rest = self.0;
        while let Some(i) = rest.find(|c: char| c < ' ' || c == '"' || c == '\\') {
            let (run, tail) = rest.split_at(i);
            f.write_str(run)?;
            let mut chars = tail.chars();
            match chars.next() {
                Some('"') => f.write_str("\\\"")?,
                Some('\\') => f.write_str("\\\\")?,
                Some('\n') => f.write_str("\\n")?,
                Some('\r') => f.write_str("\\r")?,
                Some('\t') => f.write_str("\\t")?,
                Some(c) => write!(f, "\\u{:04x}", c as u32)?,
                None => {}
            }
            rest = chars.as_str();
        }
        f.write_str(rest)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while matches!(b.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    if depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {pos}"
        ));
    }
    match b.get(*pos) {
        Some(b'{') => object(b, pos, depth),
        Some(b'[') => array(b, pos, depth),
        Some(b'"') => Ok(Json::Str(string(b, pos)?)),
        Some(b't') => literal(b, pos, "true", Json::Bool(true)),
        Some(b'f') => literal(b, pos, "false", Json::Bool(false)),
        Some(b'n') => literal(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        _ => Err(format!("unexpected byte at offset {pos}")),
    }
}

fn literal(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b.get(*pos..)
        .is_some_and(|rest| rest.starts_with(lit.as_bytes()))
    {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        b.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let raw =
        std::str::from_utf8(b.get(start..*pos).unwrap_or_default()).map_err(|e| e.to_string())?;
    raw.parse::<f64>()
        .map_err(|_| format!("bad number `{raw}` at offset {start}"))?;
    Ok(Json::Num(raw.to_string()))
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    // Callers dispatch here on a leading quote; verify rather than
    // assert so no call path can turn a logic slip into a panic.
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at offset {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(b.get(*pos..).unwrap_or_default())
                    .map_err(|e| e.to_string())?;
                let Some(c) = rest.chars().next() else {
                    return Err("unterminated string".into());
                };
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // {
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at offset {pos}"));
        }
        let key = string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at offset {pos}"));
        }
        *pos += 1;
        let v = value(b, pos, depth + 1)?;
        map.insert(key, v);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected `,` or `}}` at offset {pos}")),
        }
    }
}

fn array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // [
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(value(b, pos, depth + 1)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn esc(s: &str) -> String {
        Escaped(s).to_string()
    }

    #[test]
    fn escaper_writes_the_shared_rule() {
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(esc("x\u{1}y"), "x\\u0001y");
        assert_eq!(esc("tab\there\r\n"), "tab\\there\\r\\n");
        assert_eq!(esc("\u{1f}\u{7f}é"), "\\u001f\u{7f}é");
        assert_eq!(esc(""), "");
    }

    #[test]
    fn escaped_strings_parse_back() {
        for s in ["", "plain", "q\"b\\s\n\r\t\u{0}\u{1b}", "ünï\u{2028}"] {
            let doc = format!("\"{}\"", Escaped(s));
            assert_eq!(Json::parse(&doc).unwrap(), Json::Str(s.to_string()));
        }
    }

    #[test]
    fn numbers_keep_their_raw_text() {
        let big = Json::parse("9007199254740993").unwrap();
        assert_eq!(big.as_u64(), Some((1 << 53) + 1));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap().as_u64(),
            Some(u64::MAX)
        );
        let neg_zero = Json::parse("-0").unwrap();
        assert_eq!(neg_zero, Json::Num("-0".into()));
        assert!(neg_zero.as_f64().unwrap().is_sign_negative());
        assert_eq!(Json::parse("2.5e3").unwrap().as_f64(), Some(2500.0));
        assert_eq!(Json::parse("2.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn last_duplicate_key_wins_and_surrogates_become_replacement() {
        let Json::Obj(m) = Json::parse(r#"{"k":1,"k":2}"#).unwrap() else {
            panic!("not an object");
        };
        assert_eq!(m["k"].as_u64(), Some(2));
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("\u{fffd}\u{fffd}".into())
        );
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        // 100k opening brackets used to recurse once per bracket.
        let bomb = "[".repeat(100_000);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");

        let obj_bomb = "{\"k\":".repeat(100_000);
        let err = Json::parse(&obj_bomb).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");

        // Realistic depth stays accepted (writers emit ≤ 3 levels).
        let nested = format!("{}1{}", "[".repeat(20), "]".repeat(20));
        assert!(Json::parse(&nested).is_ok());
    }

    #[test]
    fn parse_never_panics_on_malformed_input() {
        for s in [
            "",
            "\"",
            "\"\\",
            "\"\\u12",
            "\"\\u12zz\"",
            "{\"a\"",
            "{\"a\":",
            "[1,",
            "-",
            "1e",
            "truf",
            "nul",
            "\u{fffd}",
            "{\"a\":1}x",
        ] {
            assert!(Json::parse(s).is_err(), "accepted {s:?}");
        }
    }
}
