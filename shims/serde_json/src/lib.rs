//! Minimal `serde_json` shim: converts between JSON text and the shim
//! serde's [`Value`] tree. Supports the full JSON grammar (string
//! escapes including `\uXXXX`, nested containers, all number forms);
//! numbers parse preferentially as `u64`, then `i64`, then `f64`.

// Vendored stand-in for the crates.io package of the same name;
// kept lint-clean only at the correctness level.
#![allow(clippy::all)]

use serde::{DeError, Deserialize, Serialize, Value};

/// Error raised by [`from_str`] on malformed JSON or shape mismatches.
#[derive(Debug)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error(e.to_string())
    }
}

/// Result alias matching real serde_json's signature shape.
pub type Result<T> = std::result::Result<T, Error>;

// ----- serialization -----------------------------------------------------

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, f: f64) {
    if f.is_finite() {
        let s = format!("{f}");
        out.push_str(&s);
        // Keep floats distinguishable from integers on re-parse.
        if !s.contains('.') && !s.contains('e') && !s.contains('E') {
            out.push_str(".0");
        }
    } else {
        // JSON has no Inf/NaN; real serde_json emits null.
        out.push_str("null");
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::F64(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(depth) = indent {
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth + 1));
                }
                write_value(out, item, indent.map(|d| d + 1));
            }
            if let Some(depth) = indent {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(depth) = indent {
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth + 1));
                }
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent.map(|d| d + 1));
            }
            if let Some(depth) = indent {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
            out.push('}');
        }
    }
}

/// Serializes to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None);
    Ok(out)
}

/// Serializes to pretty-printed JSON (2-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(0));
    Ok(out)
}

// ----- parsing -----------------------------------------------------------

/// Deepest array/object nesting the parser accepts (the limit real
/// serde_json uses). The parser recurses once per level, so without a
/// bound a few hundred kilobytes of `[` overflow the stack.
pub const RECURSION_LIMIT: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Parses one container body with the nesting depth raised by one,
    /// failing instead of recursing past [`RECURSION_LIMIT`].
    fn nested(&mut self, body: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        if self.depth == RECURSION_LIMIT {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self
            .peek()
            .ok_or_else(|| self.err("unexpected end of input"))?
        {
            b'n' => {
                if self.eat_keyword("null") {
                    Ok(Value::Null)
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b't' => {
                if self.eat_keyword("true") {
                    Ok(Value::Bool(true))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b'f' => {
                if self.eat_keyword("false") {
                    Ok(Value::Bool(false))
                } else {
                    Err(self.err("invalid literal"))
                }
            }
            b'"' => self.parse_string().map(Value::Str),
            b'[' => self.nested(Self::parse_array),
            b'{' => self.nested(Self::parse_object),
            b'-' | b'0'..=b'9' => self.parse_number(),
            c => Err(self.err(&format!("unexpected character `{}`", c as char))),
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.parse_hex4()?;
                            // Surrogate pair handling for non-BMP chars.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if !self.eat_keyword("\\u") {
                                    return Err(self.err("lone high surrogate"));
                                }
                                let lo = self.parse_hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid surrogate pair"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                b if b < 0x80 => out.push(b as char),
                b => {
                    // Multi-byte UTF-8: copy continuation bytes verbatim.
                    let len = if b >= 0xF0 {
                        4
                    } else if b >= 0xE0 {
                        3
                    } else {
                        2
                    };
                    let start = self.pos - 1;
                    let end = start + len;
                    let chunk = self
                        .bytes
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8"))?;
                    let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(s);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_hex4(&mut self) -> Result<u32> {
        let chunk = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        // `from_str_radix` alone would also take a leading `+`.
        if !chunk.iter().all(u8::is_ascii_hexdigit) {
            return Err(self.err("invalid \\u escape"));
        }
        let s = std::str::from_utf8(chunk).map_err(|_| self.err("invalid \\u escape"))?;
        let cp = u32::from_str_radix(s, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err("invalid number"))
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses JSON text into a [`Value`] tree.
pub fn parse_value(s: &str) -> Result<Value> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Deserializes a value from JSON text.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let v = parse_value(s)?;
    Ok(T::from_value(&v)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(from_str::<i64>("-7").unwrap(), -7);
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(from_str::<f64>("3").unwrap(), 3.0);
        assert_eq!(from_str::<bool>("true").unwrap(), true);
        assert_eq!(from_str::<String>("\"hi\\nthere\"").unwrap(), "hi\nthere");
        assert_eq!(from_str::<Option<u32>>("null").unwrap(), None);
    }

    #[test]
    fn containers_roundtrip() {
        let v: Vec<f64> = from_str("[1, 2.5, 3]").unwrap();
        assert_eq!(v, vec![1.0, 2.5, 3.0]);
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[1.0,2.5,3.0]");
        let back: Vec<f64> = from_str(&s).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn nested_value_parses() {
        let v = parse_value(r#"{"a": [1, {"b": "x"}], "c": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("c"), Some(&Value::Null));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(from_str::<String>(r#""é""#).unwrap(), "é");
        assert_eq!(from_str::<String>(r#""😀""#).unwrap(), "😀");
        assert_eq!(from_str::<String>("\"π\"").unwrap(), "π");
    }

    #[test]
    fn surrogate_pairs_need_a_low_half() {
        assert_eq!(from_str::<String>(r#""\uD83D\uDE00""#).unwrap(), "😀");
        // A high surrogate followed by a BMP escape outside DC00–DFFF
        // used to decode silently to U+1F800.
        let err = parse_value(r#""\uD83D\uE000""#).unwrap_err();
        assert!(err.to_string().contains("invalid surrogate pair"), "{err}");
        assert!(parse_value(r#""\uD83D\u0041""#).is_err());
        assert!(parse_value(r#""\uD83Dx""#).is_err());
        assert!(parse_value(r#""\uDE00""#).is_err());
    }

    #[test]
    fn hex_escapes_take_exactly_four_hex_digits() {
        assert_eq!(from_str::<String>(r#""\u0041""#).unwrap(), "A");
        // `u32::from_str_radix` accepts a sign, so this used to read "A".
        let err = parse_value(r#""\u+041""#).unwrap_err();
        assert!(err.to_string().contains("invalid \\u escape"), "{err}");
        assert!(parse_value(r#""\u-041""#).is_err());
        assert!(parse_value(r#""\u 041""#).is_err());
        assert!(parse_value(r#""\u004""#).is_err());
    }

    /// A random value tree for the round-trip test: nested arrays and
    /// objects of escaped and non-BMP strings, integers and finite
    /// floats. Positive integers are always `U64`, since that is how
    /// the parser reads them back.
    fn random_value(state: &mut u64, depth: usize) -> Value {
        let mut next = || {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *state >> 33
        };
        const CHARS: [&str; 12] = [
            "a", "Z", "\"", "\\", "/", "\n", "\t", "\u{1}", "\u{1f}", "é", "€", "😀",
        ];
        let kind = if depth == 0 { next() % 6 } else { next() % 8 };
        match kind {
            0 => Value::Null,
            1 => Value::Bool(next() % 2 == 0),
            2 => Value::U64(next() << 31 | next()),
            3 => Value::I64(-1 - (next() << 20 | next()) as i64),
            4 => {
                let f = (next() as f64 - 2e9) * 10f64.powi(next() as i32 % 40 - 20);
                Value::F64(f)
            }
            5 => Value::Str(
                (0..next() % 8)
                    .map(|_| CHARS[next() as usize % CHARS.len()])
                    .collect(),
            ),
            6 => Value::Array(
                (0..next() % 5)
                    .map(|_| random_value(state, depth - 1))
                    .collect(),
            ),
            _ => Value::Object(
                (0..next() % 5)
                    .map(|k| (format!("k{k}😀\""), random_value(state, depth - 1)))
                    .collect(),
            ),
        }
    }

    #[test]
    fn serialize_then_parse_is_the_identity() {
        let mut state = 42u64;
        for _ in 0..500 {
            let v = random_value(&mut state, 4);
            let compact = to_string(&v).unwrap();
            assert_eq!(parse_value(&compact).unwrap(), v, "{compact}");
            let pretty = to_string_pretty(&v).unwrap();
            assert_eq!(parse_value(&pretty).unwrap(), v, "{pretty}");
        }
    }

    #[test]
    fn pretty_print_shape() {
        let v = Value::Object(vec![("a".into(), Value::U64(1))]);
        let mut out = String::new();
        write_value(&mut out, &v, Some(0));
        assert_eq!(out, "{\n  \"a\": 1\n}");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<u64>("42 x").is_err());
        assert!(parse_value("{").is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let at_limit = format!(
            "{}{}",
            "[".repeat(RECURSION_LIMIT),
            "]".repeat(RECURSION_LIMIT)
        );
        assert!(parse_value(&at_limit).is_ok());
        let past = format!("{{\"a\": {at_limit}}}");
        let err = parse_value(&past).unwrap_err();
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
        let err = parse_value(&"[".repeat(200_000)).unwrap_err();
        assert!(
            err.to_string().contains("recursion limit exceeded"),
            "{err}"
        );
    }

    #[test]
    fn float_formatting_keeps_point() {
        let mut out = String::new();
        write_f64(&mut out, 2.0);
        assert_eq!(out, "2.0");
        let mut out = String::new();
        write_f64(&mut out, 1e300);
        assert_eq!(out.parse::<f64>().unwrap(), 1e300);
        let mut out = String::new();
        write_f64(&mut out, f64::NAN);
        assert_eq!(out, "null");
    }
}
