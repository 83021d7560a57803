//! Minimal JSON reader/writer for store snapshots.
//!
//! The workspace has no serialization dependency (it builds offline),
//! so — like the benchmark harness's `HarnessDoc` — snapshots are
//! rendered and parsed by hand. The dialect is plain JSON plus bare
//! `NaN`/`inf`/`-inf` number tokens, matching what Rust's `f64`
//! `Display` can emit; `Display` produces the shortest
//! string that parses back to the same bits, which is what makes
//! snapshot → restore round-trips bit-identical for finite values.

use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers included).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses `text` as a single JSON value (trailing whitespace allowed).
    pub fn parse(text: &str) -> Option<JsonValue> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        (pos == bytes.len()).then_some(value)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_num()?;
        (n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64).then_some(n as u64)
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn eat(bytes: &[u8], pos: &mut usize, token: &str) -> Option<()> {
    if bytes[*pos..].starts_with(token.as_bytes()) {
        *pos += token.len();
        Some(())
    } else {
        None
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<JsonValue> {
    skip_ws(bytes, pos);
    match *bytes.get(*pos)? {
        b'n' => eat(bytes, pos, "null").map(|()| JsonValue::Null),
        b't' => eat(bytes, pos, "true").map(|()| JsonValue::Bool(true)),
        b'f' => eat(bytes, pos, "false").map(|()| JsonValue::Bool(false)),
        b'N' => eat(bytes, pos, "NaN").map(|()| JsonValue::Num(f64::NAN)),
        b'i' => eat(bytes, pos, "inf").map(|()| JsonValue::Num(f64::INFINITY)),
        b'"' => parse_string(bytes, pos).map(JsonValue::Str),
        b'[' => parse_array(bytes, pos),
        b'{' => parse_object(bytes, pos),
        _ => parse_number(bytes, pos),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
    if bytes[*pos] != b'"' {
        return None;
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match *bytes.get(*pos)? {
            b'"' => {
                *pos += 1;
                return Some(out);
            }
            b'\\' => {
                *pos += 1;
                match *bytes.get(*pos)? {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b't' => out.push('\t'),
                    b'r' => out.push('\r'),
                    _ => return None,
                }
                *pos += 1;
            }
            _ => {
                // Advance one whole UTF-8 scalar so multi-byte
                // characters survive intact.
                let rest = std::str::from_utf8(&bytes[*pos..]).ok()?;
                let ch = rest.chars().next()?;
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<JsonValue> {
    let start = *pos;
    if *bytes.get(*pos)? == b'-' {
        *pos += 1;
        if bytes[*pos..].starts_with(b"inf") {
            *pos += 3;
            return Some(JsonValue::Num(f64::NEG_INFINITY));
        }
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()?
        .parse::<f64>()
        .ok()
        .map(JsonValue::Num)
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Option<JsonValue> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if *bytes.get(*pos)? == b']' {
        *pos += 1;
        return Some(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match *bytes.get(*pos)? {
            b',' => *pos += 1,
            b']' => {
                *pos += 1;
                return Some(JsonValue::Arr(items));
            }
            _ => return None,
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Option<JsonValue> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if *bytes.get(*pos)? == b'}' {
        *pos += 1;
        return Some(JsonValue::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if *bytes.get(*pos)? != b':' {
            return None;
        }
        *pos += 1;
        fields.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match *bytes.get(*pos)? {
            b',' => *pos += 1,
            b'}' => {
                *pos += 1;
                return Some(JsonValue::Obj(fields));
            }
            _ => return None,
        }
    }
}

/// Renders `v` so it parses back to the same bits: Rust's `Display`
/// already guarantees shortest-round-trip for finite values; the
/// non-finite spellings match the parser's extensions.
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-inf");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Renders a string literal with the escapes the parser understands.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            _ => out.push(ch),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null"), Some(JsonValue::Null));
        assert_eq!(JsonValue::parse("true"), Some(JsonValue::Bool(true)));
        assert_eq!(JsonValue::parse("-2.5e3"), Some(JsonValue::Num(-2500.0)));
        assert_eq!(
            JsonValue::parse("\"a\\\"b\""),
            Some(JsonValue::Str("a\"b".to_string()))
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = JsonValue::parse(r#"{"a": [1, 2, {"b": "x"}], "c": null}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[1].as_num(), Some(2.0));
        assert_eq!(arr[2].get("b"), Some(&JsonValue::Str("x".to_string())));
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
    }

    #[test]
    fn rejects_trailing_garbage_and_malformed_input() {
        assert_eq!(JsonValue::parse("{} x"), None);
        assert_eq!(JsonValue::parse("{\"a\" 1}"), None);
        assert_eq!(JsonValue::parse("[1,"), None);
        assert_eq!(JsonValue::parse(""), None);
    }

    #[test]
    fn f64_round_trips_bit_for_bit() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -2.75e-300,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.1 + 0.2,
        ] {
            let mut s = String::new();
            write_f64(&mut s, v);
            let back = JsonValue::parse(&s).unwrap().as_num().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {s}");
        }
        let mut s = String::new();
        write_f64(&mut s, f64::NAN);
        assert!(JsonValue::parse(&s).unwrap().as_num().unwrap().is_nan());
    }

    #[test]
    fn u64_extraction_is_exact_only() {
        assert_eq!(JsonValue::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(JsonValue::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(JsonValue::parse("-1").unwrap().as_u64(), None);
    }

    #[test]
    fn strings_escape_round_trip() {
        let original = "line\nwith \"quotes\" and \\slashes\\ and é";
        let mut s = String::new();
        write_str(&mut s, original);
        assert_eq!(
            JsonValue::parse(&s),
            Some(JsonValue::Str(original.to_string()))
        );
    }
}
