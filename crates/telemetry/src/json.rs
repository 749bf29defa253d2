//! A small, dependency-free JSON parser.
//!
//! The workspace builds offline with no serde; this module is the
//! shared JSON reader for everything that *consumes* machine-readable
//! output — `mmctl` loading snapshots, streams and fault plans, and
//! the schema validator. It parses standard JSON (RFC 8259) into a
//! [`JsonValue`] tree; object member order is preserved (the schema
//! tests assert emission order).

/// A parsed JSON value. Numbers keep an `is_integer` flag from the
/// lexer so the schema validator can tell `"integer"` from `"number"`
/// without round-trip heuristics.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number; the flag records whether the literal was integral
    /// (no fraction, no exponent).
    Num(f64, bool),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source member order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects (`None` elsewhere / when absent).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an `f64`, if numeric.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n, _) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is an integral
    /// number representable as `u64`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            &JsonValue::Num(n, true) if (0.0..=1.844_674_407_370_955_2e19).contains(&n) =>
            {
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                Some(n as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// JSON type name (used in validator diagnostics).
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "boolean",
            JsonValue::Num(_, true) => "integer",
            JsonValue::Num(_, false) => "number",
            JsonValue::Str(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }
}

/// Parse one JSON document. Trailing whitespace is allowed; trailing
/// garbage is an error.
///
/// # Errors
///
/// A human-readable message with the byte offset of the first problem.
pub fn parse(src: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: src.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!(
                "unexpected character '{}' at byte {}",
                char::from(other),
                self.pos
            )),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, text: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
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
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
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
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_owned())?;
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
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by any of
                            // our producers; map lone surrogates to the
                            // replacement character rather than erroring.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!(
                                "bad escape '\\{}' at byte {}",
                                char::from(other),
                                self.pos
                            ))
                        }
                    }
                }
                Some(_) => {
                    let rest = &self.bytes[self.pos..];
                    // SAFETY: `self.bytes` came from a `&str`, so the
                    // byte stream is valid UTF-8 by construction, and
                    // `self.pos` only ever advances by whole scalar
                    // widths (`ch.len_utf8()`), keeping the slice on a
                    // character boundary.
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let ch = s.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        let n: f64 = text
            .parse()
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))?;
        // "1.0" and "1e3" count as non-integral literals even when the
        // value is integral — the schema treats the *lexical* form as
        // the type, which is what our fixed-format emitter produces.
        Ok(JsonValue::Num(n, integral))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse(" 42 ").unwrap(), JsonValue::Num(42.0, true));
        assert_eq!(parse("-7").unwrap(), JsonValue::Num(-7.0, true));
        assert_eq!(parse("3.25").unwrap(), JsonValue::Num(3.25, false));
        assert_eq!(parse("1e3").unwrap(), JsonValue::Num(1000.0, false));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            JsonValue::Str("a\nbA".into())
        );
    }

    #[test]
    fn parses_nested_structures_preserving_order() {
        let v = parse(r#"{"b": [1, {"x": false}], "a": "s"}"#).unwrap();
        let JsonValue::Object(members) = &v else {
            panic!()
        };
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        let arr = v.get("b").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("x").unwrap().as_bool(), Some(false));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("\"open").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn real_bench_shapes_parse() {
        let v = parse(
            r#"{"meshes": [{"dims": "2x1x1", "cycles_per_sec": 1795348}],
                "busy_traffic": {"serial_cycles_per_sec": 5072.0}}"#,
        )
        .unwrap();
        let meshes = v.get("meshes").unwrap().as_array().unwrap();
        assert_eq!(meshes[0].get("dims").unwrap().as_str(), Some("2x1x1"));
        assert!(
            (v.get("busy_traffic")
                .unwrap()
                .get("serial_cycles_per_sec")
                .unwrap()
                .as_f64()
                .unwrap()
                - 5072.0)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn integer_flag_distinguishes_lexical_forms() {
        assert_eq!(parse("5").unwrap().type_name(), "integer");
        assert_eq!(parse("5.0").unwrap().type_name(), "number");
    }
}
