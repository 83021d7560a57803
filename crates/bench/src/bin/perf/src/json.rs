//! The little JSON this benchmark reads and writes: `BENCHMARK.json`,
//! result lines and `--record` ledgers. The build is offline and the
//! serde stand-ins are inert, so this is a small recursive-descent
//! reader plus string escaping for the writer.

/// A parsed JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Self::Obj(fields) => Some(fields),
            _ => None,
        }
    }
}

/// Parses one JSON document; `None` on any syntax error or trailing
/// input.
pub fn parse(text: &str) -> Option<Value> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    (p.pos == p.bytes.len()).then_some(value)
}

/// Renders `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number with every digit it has (non-finite values,
/// which JSON cannot carry, become `null`).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Option<()> {
        let end = self.pos + lit.len();
        (self.bytes.get(self.pos..end)? == lit.as_bytes()).then(|| self.pos = end)
    }

    fn value(&mut self) -> Option<Value> {
        self.skip_ws();
        match *self.bytes.get(self.pos)? {
            b'n' => self.eat("null").map(|()| Value::Null),
            b't' => self.eat("true").map(|()| Value::Bool(true)),
            b'f' => self.eat("false").map(|()| Value::Bool(false)),
            b'"' => self.string().map(Value::Str),
            b'[' => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]").is_some() {
                    return Some(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat(",").is_none() {
                        self.eat("]")?;
                        return Some(Value::Arr(items));
                    }
                }
            }
            b'{' => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.eat("}").is_some() {
                    return Some(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.eat(":")?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat(",").is_none() {
                        self.eat("}")?;
                        return Some(Value::Obj(fields));
                    }
                }
            }
            _ => self.number(),
        }
    }

    fn number(&mut self) -> Option<Value> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b"+-.eE0123456789".contains(b))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()?
            .parse()
            .ok()
            .map(Value::Num)
    }

    fn string(&mut self) -> Option<String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let rest = std::str::from_utf8(self.bytes.get(self.pos..)?).ok()?;
            let c = rest.chars().next()?;
            self.pos += c.len_utf8();
            match c {
                '"' => return Some(out),
                '\\' => {
                    let esc = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = std::str::from_utf8(self.bytes.get(self.pos..self.pos + 4)?)
                                .ok()?;
                            self.pos += 4;
                            out.push(char::from_u32(u32::from_str_radix(hex, 16).ok()?)?);
                        }
                        _ => return None,
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_result_line() {
        let line = format!(
            "{{\"correct\": true, \"attempted\": 12, \"metrics\": {{\"a.b\": {{\"value\": {}, \"unit\": {}}}}}, \"list\": [1, -2.5e-3, null, \"x\\\"y\"]}}",
            num(0.1 + 0.2),
            quote("µs")
        );
        let v = parse(&line).expect("valid json");
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Value::as_f64), Some(12.0));
        let metric = v.get("metrics").and_then(|m| m.get("a.b")).expect("metric");
        assert_eq!(metric.get("value").and_then(Value::as_f64), Some(0.1 + 0.2));
        assert_eq!(metric.get("unit").and_then(Value::as_str), Some("µs"));
        let list = v.get("list").and_then(Value::as_array).expect("list");
        assert_eq!(list[1], Value::Num(-2.5e-3));
        assert_eq!(list[2], Value::Null);
        assert_eq!(list[3], Value::Str("x\"y".into()));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "{\"a\" 1}",
            "[1,]",
            "tru",
            "{\"a\": 1} x",
            "\"open",
        ] {
            assert_eq!(parse(bad), None, "{bad}");
        }
        assert_eq!(num(f64::NAN), "null");
    }
}
