//! A minimal JSON reader/writer for the `mighty serve` wire protocol.
//!
//! The workspace has a zero-third-party-deps invariant, so the
//! line-delimited JSON protocol is parsed by this small
//! recursive-descent parser instead of `serde`. It implements the full JSON value
//! grammar (objects, arrays, strings with escapes, numbers, booleans,
//! null) with a nesting-depth cap, which is all a one-request-per-line
//! protocol needs; serialization goes through [`escape_str`] plus the
//! hand-rolled writers in the serve module, matching the style
//! `mig_bench::to_json` already uses for the trajectory file.

use std::collections::BTreeMap;

/// Maximum nesting depth accepted by the parser — far above anything
/// the protocol produces, low enough that a hostile request cannot
/// overflow the stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object keys are kept in a `BTreeMap`: protocol
/// objects are tiny and deterministic iteration keeps everything
/// reproducible.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (the protocol only uses integers that fit `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one complete JSON value; trailing non-whitespace is an
    /// error (the protocol is one value per line).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    /// The string value of object member `key`, if present.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(Json::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The numeric value of object member `key`, if present.
    pub fn get_num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(Json::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// The boolean value of object member `key`, if present.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(Json::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// Object member lookup (`None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
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
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err("nesting too deep".into());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected `{}` at byte {}",
                other as char, self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number `{text}`: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
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
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs: the protocol never emits
                            // them, but accept well-formed ones.
                            let ch = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    let lo = self
                                        .bytes
                                        .get(self.pos + 2..self.pos + 6)
                                        .ok_or("truncated surrogate")?;
                                    let lo =
                                        std::str::from_utf8(lo).map_err(|_| "bad surrogate")?;
                                    let lo =
                                        u32::from_str_radix(lo, 16).map_err(|_| "bad surrogate")?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("bad surrogate pair".into());
                                    }
                                    self.pos += 6;
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).ok_or("bad surrogate pair")?
                                } else {
                                    return Err("lone surrogate".into());
                                }
                            } else {
                                char::from_u32(code).ok_or("bad \\u code point")?
                            };
                            out.push(ch);
                        }
                        other => {
                            return Err(format!("bad escape `\\{}`", other as char));
                        }
                    }
                }
                Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                Some(_) => {
                    // Copy the run of plain bytes up to the next quote,
                    // backslash or control character in one slice. Those
                    // are ASCII and never occur inside a multibyte UTF-8
                    // sequence, so both ends are char boundaries.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Escapes `s` for embedding inside a JSON string literal (quotes not
/// included). Verilog payloads ride through this, so newlines, quotes
/// and control characters all round-trip.
pub fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_protocol_shaped_requests() {
        let v = Json::parse(
            r#"{"id": 7, "netlist": "module m;\nendmodule\n", "flow": "size*2; rewrite", "effort": 2, "progress": true}"#,
        )
        .unwrap();
        assert_eq!(v.get_num("id"), Some(7.0));
        assert_eq!(v.get_str("flow"), Some("size*2; rewrite"));
        assert_eq!(v.get_str("netlist"), Some("module m;\nendmodule\n"));
        assert_eq!(v.get_bool("progress"), Some(true));
        assert_eq!(v.get_str("missing"), None);
    }

    #[test]
    fn parses_scalars_arrays_and_nesting() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e1").unwrap(), Json::Num(-125.0));
        let v = Json::parse(r#"[1, [2, {"a": []}], "x"]"#).unwrap();
        match &v {
            Json::Arr(items) => assert_eq!(items.len(), 3),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "line1\nline2\t\"quoted\" back\\slash \u{1} end";
        let wire = format!("\"{}\"", escape_str(nasty));
        assert_eq!(Json::parse(&wire).unwrap(), Json::Str(nasty.to_string()));
    }

    #[test]
    fn multi_megabyte_string_round_trips() {
        // Multibyte characters and escapes spread through a large
        // payload: the parser must copy plain runs in slices (a per-char
        // re-validation of the rest of the input is quadratic here).
        let unit = "module m(a, b); // Grüße ∀x → 😀\n\t\"q\" \\ \u{1}\r";
        let big = unit.repeat(65_536);
        assert!(big.len() > 3 << 20);
        let wire = format!("{{\"netlist\": \"{}\"}}", escape_str(&big));
        let v = Json::parse(&wire).unwrap();
        assert_eq!(v.get_str("netlist"), Some(big.as_str()));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(
            Json::parse(r#""\u0041\u00e9""#).unwrap(),
            Json::Str("Aé".to_string())
        );
        assert_eq!(
            Json::parse(r#""\ud83d\ude00""#).unwrap(),
            Json::Str("😀".to_string())
        );
    }

    #[test]
    fn malformed_inputs_error_instead_of_panicking() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":}",
            "[1,",
            "\"unterminated",
            "tru",
            "01a",
            "{} trailing",
            "\"\\q\"",
            "\"\\ud800\"",
            "\"\\ud800\\u0041\"",
            "nul",
            "--3",
        ] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
        // Depth bomb: must error, not blow the stack.
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        assert!(Json::parse(&deep).is_err());
    }
}
