//! A minimal JSON writer and reader for `BENCH_results.json`.
//!
//! The workspace's `serde` is a derive-only vendored shim (no
//! `serde_json`), so the machine-readable experiment record is emitted by
//! this small hand-rolled builder instead: objects, arrays, strings with
//! escaping, and numbers (non-finite floats become `null`, as JSON has no
//! representation for them). The output is deliberately pretty-printed with
//! stable key order so CI artifact diffs stay readable. [`Json::parse`] is
//! the matching reader — enough JSON to round-trip what the writer emits —
//! used by the `perf_gate` binary to diff a fresh `BENCH_results.json`
//! against the committed baselines under `ci/baselines/`.

use std::fmt::Write as _;

/// One JSON value, built bottom-up.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values render as `null`.
    Number(f64),
    /// A string (escaped on render).
    String(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object with keys in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Adds (or appends — keys are not deduplicated) a field to an object.
    ///
    /// # Panics
    ///
    /// Panics when `self` is not an object.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Object(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("set({key}) on non-object {other:?}"),
        }
        self
    }

    /// Renders the value as pretty-printed JSON (two-space indent).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Parses a JSON document (the subset the writer emits: `null`, booleans,
    /// finite decimal numbers, escaped strings, arrays, objects).
    ///
    /// # Errors
    ///
    /// Returns a message naming the byte offset on malformed input,
    /// trailing garbage, or arrays and objects nested deeper than
    /// [`MAX_DEPTH`].
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut parser = Parser {
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        parser.skip_whitespace();
        let value = parser.value()?;
        parser.skip_whitespace();
        if parser.pos != parser.bytes.len() {
            return Err(format!("trailing garbage at byte {}", parser.pos));
        }
        Ok(value)
    }

    /// Looks up a field of an object (`None` for missing keys or non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Number(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::String(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. The writer nests a
/// handful of levels; the bound keeps the recursive descent off the end of
/// the stack on hostile input.
pub const MAX_DEPTH: usize = 128;

/// Recursive-descent parser over the writer's output subset.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected {word:?} at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::String),
            Some(open @ (b'[' | b'{')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} levels at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let nested = if open == b'[' {
                    self.array()
                } else {
                    self.object()
                };
                self.depth -= 1;
                nested
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Number)
            .ok_or(format!("invalid number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or(format!("invalid \\u escape at byte {}", self.pos))?;
                            // The writer only emits \u escapes for control
                            // characters, all inside the BMP.
                            out.push(
                                char::from_u32(hex)
                                    .ok_or(format!("invalid code point at byte {}", self.pos))?,
                            );
                            self.pos += 4;
                        }
                        other => return Err(format!("invalid escape {other:?}")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one whole UTF-8 character (the input is a &str,
                    // so slicing at char boundaries is safe).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|e| e.to_string())?;
                    let c = s.chars().next().expect("peeked a byte");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_whitespace();
            items.push(self.value()?);
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_whitespace();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.expect(b':')?;
            self.skip_whitespace();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_whitespace();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Number(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Number(x as f64)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Number(x as f64)
    }
}

impl From<bool> for Json {
    fn from(x: bool) -> Json {
        Json::Bool(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::String(s)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(items: Vec<T>) -> Json {
        Json::Array(items.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::from(true).render(), "true\n");
        assert_eq!(Json::from(0.5).render(), "0.5\n");
        assert_eq!(Json::from(42usize).render(), "42\n");
        assert_eq!(Json::Number(f64::NAN).render(), "null\n");
        assert_eq!(Json::Number(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::from("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(Json::from("\u{1}").render(), "\"\\u0001\"\n");
    }

    #[test]
    fn objects_and_arrays_nest() {
        let doc = Json::object()
            .set("name", "fig1")
            .set("values", vec![1.0, 2.5])
            .set("empty", Json::Array(Vec::new()))
            .set("nested", Json::object().set("ok", true));
        let rendered = doc.render();
        assert_eq!(
            rendered,
            "{\n  \"name\": \"fig1\",\n  \"values\": [\n    1,\n    2.5\n  ],\n  \
             \"empty\": [],\n  \"nested\": {\n    \"ok\": true\n  }\n}\n"
        );
    }

    #[test]
    #[should_panic(expected = "on non-object")]
    fn set_on_non_object_panics() {
        let _ = Json::Null.set("k", 1.0);
    }

    #[test]
    fn parse_round_trips_the_writer() {
        let doc = Json::object()
            .set("name", "fig2 \"smoke\"\n")
            .set("values", vec![1.0, -2.5e3, 0.125])
            .set("empty", Json::Array(Vec::new()))
            .set("none", Json::Null)
            .set("nested", Json::object().set("ok", true).set("no", false))
            .set("control", "\u{1}")
            .set("unicode", "Φ ≈ δ");
        let rendered = doc.render();
        let parsed = Json::parse(&rendered).expect("writer output parses");
        assert_eq!(parsed.render(), rendered);
        assert_eq!(
            parsed.get("name").unwrap().as_str(),
            Some("fig2 \"smoke\"\n")
        );
        assert_eq!(parsed.get("values").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            parsed.get("values").unwrap().as_array().unwrap()[1].as_f64(),
            Some(-2500.0)
        );
        assert_eq!(
            parsed.get("nested").unwrap().get("ok").unwrap().as_bool(),
            Some(true)
        );
        assert_eq!(parsed.get("none"), Some(&Json::Null));
        assert_eq!(parsed.get("unicode").unwrap().as_str(), Some("Φ ≈ δ"));
        assert!(parsed.get("missing").is_none());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("{} {}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors_return_none_on_type_mismatch() {
        assert!(Json::Null.get("k").is_none());
        assert!(Json::from("s").as_f64().is_none());
        assert!(Json::from(1.0).as_str().is_none());
        assert!(Json::from(1.0).as_bool().is_none());
        assert!(Json::from(1.0).as_array().is_none());
    }
}
