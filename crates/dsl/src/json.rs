//! A small self-contained JSON parser and printer.
//!
//! Engage installation specifications are JSON documents (Figure 2). We
//! parse and print them ourselves rather than pulling a JSON crate: the
//! dialect is small (no floats are needed by specs, though they are
//! accepted), and object key *order is preserved* so that printed specs are
//! deterministic — the paper's spec-size comparisons count lines of this
//! output.

use std::fmt;

use crate::span::{Diagnostic, Span};

/// A JSON value. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Integer (the common case in install specs).
    Int(i64),
    /// Non-integral number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Json>),
    /// Object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String content, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer content, if an int.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Json::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Array items, if an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Object members, if an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// the canonical form whose line count the experiments report.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Prints on a single line with no whitespace — the wire form used
    /// by the `engage serve` line-JSON protocol, where one message is
    /// one newline-terminated line.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) => push_float(out, *x),
            Json::Str(s) => write_json_string(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Object(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(n) => out.push_str(&n.to_string()),
            Json::Float(x) => push_float(out, *x),
            Json::Str(s) => write_json_string(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    push_indent(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                    if i + 1 < items.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    push_indent(out, indent + 1);
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, indent + 1);
                    if i + 1 < members.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, n: usize) {
    for _ in 0..n {
        out.push_str("  ");
    }
}

/// Writes a float so that it reads back as one: Rust prints a whole
/// value without a fraction (`2`), which would re-parse as an integer.
fn push_float(out: &mut String, x: f64) {
    let text = x.to_string();
    out.push_str(&text);
    if text.bytes().all(|b| b.is_ascii_digit() || b == b'-') {
        out.push_str(".0");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.pretty().trim_end())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

impl From<i64> for Json {
    fn from(n: i64) -> Self {
        Json::Int(n)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a [`Diagnostic`] with the byte span of the first syntax error.
///
/// # Examples
///
/// ```
/// use engage_dsl::parse_json;
/// let v = parse_json(r#"{"id": "server", "key": "Mac-OSX 10.6"}"#).unwrap();
/// assert_eq!(v.get("id").unwrap().as_str(), Some("server"));
/// ```
pub fn parse_json(src: &str) -> Result<Json, Diagnostic> {
    let mut p = JsonParser {
        src: src.as_bytes(),
        text: src,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return Err(Diagnostic::new(
            "trailing characters after JSON value",
            Span::new(p.pos, p.src.len()),
        ));
    }
    Ok(v)
}

/// Maximum nesting depth accepted by [`parse_json`] — a guard against
/// stack exhaustion on adversarial inputs like `[[[[...`.
const MAX_JSON_DEPTH: usize = 512;

struct JsonParser<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.pos < self.src.len()
            && matches!(self.src[self.pos], b' ' | b'\t' | b'\r' | b'\n')
        {
            self.pos += 1;
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, Diagnostic> {
        Err(Diagnostic::new(msg, Span::point(self.pos)))
    }

    fn expect(&mut self, c: u8) -> Result<(), Diagnostic> {
        if self.src.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!(
                "expected `{}`, found `{}`",
                c as char,
                self.src
                    .get(self.pos)
                    .map(|b| (*b as char).to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))
        }
    }

    fn value(&mut self) -> Result<Json, Diagnostic> {
        self.depth += 1;
        if self.depth > MAX_JSON_DEPTH {
            return self.err(format!("nesting deeper than {MAX_JSON_DEPTH} levels"));
        }
        let result = match self.src.get(self.pos) {
            None => self.err("unexpected end of input"),
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.keyword("true", Json::Bool(true)),
            Some(b'f') => self.keyword("false", Json::Bool(false)),
            Some(b'n') => self.keyword("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => self.err(format!("unexpected character `{}`", *c as char)),
        };
        self.depth -= 1;
        result
    }

    fn keyword(&mut self, word: &str, v: Json) -> Result<Json, Diagnostic> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn object(&mut self) -> Result<Json, Diagnostic> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            members.push((key, v));
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return self.err("expected `,` or `}` in object"),
            }
        }
    }

    fn array(&mut self) -> Result<Json, Diagnostic> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.src.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.src.get(self.pos) {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return self.err("expected `,` or `]` in array"),
            }
        }
    }

    fn string(&mut self) -> Result<String, Diagnostic> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.src.get(self.pos) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    let esc =
                        self.src.get(self.pos + 1).copied().ok_or_else(|| {
                            Diagnostic::new("dangling escape", Span::point(self.pos))
                        })?;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex =
                                self.text.get(self.pos + 2..self.pos + 6).ok_or_else(|| {
                                    Diagnostic::new("truncated \\u escape", Span::point(self.pos))
                                })?;
                            // `from_str_radix` alone would take a sign.
                            let code = (u32::from_str_radix(hex, 16).ok())
                                .filter(|_| hex.bytes().all(|b| b.is_ascii_hexdigit()))
                                .ok_or_else(|| {
                                    Diagnostic::new("bad \\u escape", Span::point(self.pos))
                                })?;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => return self.err(format!("unknown escape `\\{}`", other as char)),
                    }
                    self.pos += 2;
                }
                Some(_) => {
                    // Advance one full UTF-8 character.
                    let rest = &self.text[self.pos..];
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, Diagnostic> {
        let start = self.pos;
        if self.src.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self.src.get(self.pos).is_some_and(|c| c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.src.get(self.pos) == Some(&b'.') {
            is_float = true;
            self.pos += 1;
            while self.src.get(self.pos).is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.src.get(self.pos), Some(b'e') | Some(b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.src.get(self.pos), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.src.get(self.pos).is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            // JSON has no infinity: a float too large for `f64` is an error.
            (text.parse::<f64>().ok())
                .filter(|x| x.is_finite())
                .map(Json::Float)
                .ok_or_else(|| Diagnostic::new("bad number", Span::new(start, self.pos)))
        } else {
            text.parse::<i64>()
                .map(Json::Int)
                .map_err(|_| Diagnostic::new("bad number", Span::new(start, self.pos)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_figure_2_style_object() {
        let src = r#"[
          { "id": "server", "key": "Mac-OSX 10.6",
            "config_port": { "hostname": "localhost", "os_user_name": "root" } },
          { "id": "tomcat", "key": "Tomcat 6.0.18", "inside": { "id": "server" } },
          { "id": "openmrs", "key": "OpenMRS 1.8", "inside": { "id": "tomcat" } }
        ]"#;
        let v = parse_json(src).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(
            arr[2].get("inside").unwrap().get("id").unwrap().as_str(),
            Some("tomcat")
        );
    }

    #[test]
    fn roundtrip_preserves_order() {
        let src = r#"{"z": 1, "a": 2, "m": [true, null, "x"]}"#;
        let v = parse_json(src).unwrap();
        let printed = v.pretty();
        let v2 = parse_json(&printed).unwrap();
        assert_eq!(v, v2);
        let zpos = printed.find("\"z\"").unwrap();
        let apos = printed.find("\"a\"").unwrap();
        assert!(zpos < apos, "order not preserved:\n{printed}");
    }

    #[test]
    fn compact_is_single_line_and_roundtrips() {
        let src = r#"{"z": 1, "a": [true, null, "x\ny"], "m": {}}"#;
        let v = parse_json(src).unwrap();
        let compact = v.compact();
        assert_eq!(compact, r#"{"z":1,"a":[true,null,"x\ny"],"m":{}}"#);
        assert!(!compact.contains('\n'));
        assert_eq!(parse_json(&compact).unwrap(), v);
    }

    #[test]
    fn numbers() {
        assert_eq!(parse_json("42").unwrap(), Json::Int(42));
        assert_eq!(parse_json("-7").unwrap(), Json::Int(-7));
        assert_eq!(parse_json("2.5").unwrap(), Json::Float(2.5));
        assert_eq!(parse_json("1e3").unwrap(), Json::Float(1000.0));
        assert!(parse_json("1e999").is_err(), "no infinity in JSON");
        // A whole float stays a float through a rendering.
        let whole = Json::Array(vec![
            Json::Float(2.0),
            Json::Float(-0.0),
            Json::Float(1e300),
        ]);
        assert_eq!(parse_json(&whole.compact()).unwrap(), whole);
        assert_eq!(Json::Float(2.0).compact(), "2.0");
    }

    #[test]
    fn string_escapes() {
        assert_eq!(
            parse_json(r#""a\"b\\c\ndA""#).unwrap(),
            Json::Str("a\"b\\c\ndA".into())
        );
        assert!(parse_json(r#""\u+041""#).is_err(), "a signed \\u escape");
    }

    #[test]
    fn errors() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("tru").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("\"x").is_err());
    }

    #[test]
    fn pretty_prints_stably() {
        let v = Json::Object(vec![
            ("id".into(), Json::from("db")),
            ("port".into(), Json::from(3306i64)),
            ("tags".into(), Json::Array(vec![])),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"id\": \"db\",\n  \"port\": 3306,\n  \"tags\": []\n}\n"
        );
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.message().contains("nesting"), "{}", err.message());
        // Reasonable nesting still parses.
        let ok = "[".repeat(100) + "1" + &"]".repeat(100);
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn get_on_non_object_is_none() {
        assert_eq!(Json::Int(1).get("x"), None);
        assert_eq!(Json::Array(vec![]).as_object(), None);
    }
}
