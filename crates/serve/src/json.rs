//! Serde-free JSON: the value-tree builder the CLI has always used for its
//! result files, now paired with a matching parser — the read/write
//! roundtrip layer shared by the `katod` daemon, the knowledge bank, the
//! `kato` CLI and the tests.
//!
//! Output is deterministic (object keys keep insertion order) and
//! non-finite numbers — which a sizing run produces legitimately, e.g. a
//! `−∞` score before anything is feasible — are written as `null`,
//! matching what `JSON.parse`-style consumers expect. Layers that need a
//! *lossless* roundtrip of non-finite values (the archive store) encode
//! them as tagged strings instead; see [`crate::archive`].

use std::fmt;

/// A JSON value tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true`/`false`.
    Bool(bool),
    /// A number; non-finite values serialise as `null`.
    Num(f64),
    /// A string (escaped on write).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object from `(key, value)` pairs.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Self {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor for a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Convenience constructor for an array of numbers.
    #[must_use]
    pub fn nums(values: &[f64]) -> Self {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// Parses a JSON document.
    ///
    /// Accepts exactly one value with optional surrounding whitespace.
    /// Numbers parse as `f64`; `\uXXXX` escapes (including surrogate
    /// pairs) are decoded.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the byte offset of the problem.
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
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

    /// Member lookup on an object (first match; `None` on non-objects).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a finite-or-not number (`Num` only).
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer (a `Num` that is a whole number
    /// in `u64` range). `u64::MAX as f64` rounds up to 2^64, one past the
    /// range, so the bound is strict.
    #[must_use]
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if v.fract() == 0.0 && *v >= 0.0 && *v < u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub(crate) fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object's `(key, value)` pairs.
    #[must_use]
    pub(crate) fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// `true` for `null`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Recursive-descent parser over the input: its bytes for scanning and
/// the same text, already valid UTF-8, for copying string contents.
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
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected '{}' at byte {}", c as char, self.pos)),
            None => Err("unexpected end of input".to_string()),
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("invalid number at byte {start}"))?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        let chunk = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let text = std::str::from_utf8(chunk)
            .map_err(|_| format!("invalid \\u escape at byte {}", self.pos))?;
        let v = u32::from_str_radix(text, 16)
            .map_err(|_| format!("invalid \\u escape '{text}' at byte {}", self.pos))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control byte
            // in one go. Those bytes are ASCII, so the run starts and ends
            // on character boundaries of the input.
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
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
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a \uXXXX low half must follow.
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(format!(
                                            "invalid low surrogate at byte {}",
                                            self.pos
                                        ));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(format!(
                                        "lone high surrogate at byte {}",
                                        self.pos
                                    ));
                                }
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| format!("invalid codepoint {code:#x}"))?,
                            );
                        }
                        other => {
                            return Err(format!(
                                "invalid escape '\\{}' at byte {}",
                                other as char,
                                self.pos - 1
                            ))
                        }
                    }
                }
                Some(_) => return Err(format!("unescaped control character at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

fn escape(s: &str, out: &mut String) {
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
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(v) => {
                if v.is_finite() {
                    // Shortest round-trip representation; integers print
                    // without a trailing ".0" which JSON also accepts.
                    write!(f, "{v}")
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape(s, &mut buf);
                write!(f, "\"{buf}\"")
            }
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(pairs) => {
                write!(f, "{{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    let mut buf = String::with_capacity(k.len() + 2);
                    escape(k, &mut buf);
                    write!(f, "\"{buf}\":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialise() {
        assert_eq!(Json::Null.to_string(), "null");
        assert_eq!(Json::Bool(true).to_string(), "true");
        assert_eq!(Json::Num(1.5).to_string(), "1.5");
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::str("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::str("a\"b\\c\nd").to_string(), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(Json::str("\u{1}").to_string(), "\"\\u0001\"");
    }

    #[test]
    fn nested_structures_keep_order() {
        let doc = Json::obj(vec![
            ("b", Json::Num(2.0)),
            ("a", Json::Arr(vec![Json::Num(1.0), Json::Null])),
        ]);
        assert_eq!(doc.to_string(), "{\"b\":2,\"a\":[1,null]}");
    }

    #[test]
    fn nums_helper_maps_slice() {
        assert_eq!(Json::nums(&[1.0, 0.5]).to_string(), "[1,0.5]");
    }

    #[test]
    fn parse_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("-1.5e3").unwrap(), Json::Num(-1500.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::str("hi"));
    }

    #[test]
    fn parse_structures() {
        let doc = Json::parse(r#"{"b":2,"a":[1,null,{"k":"v"}],"e":{},"f":[]}"#).unwrap();
        assert_eq!(doc.get("b").unwrap().as_f64(), Some(2.0));
        let a = doc.get("a").unwrap().as_arr().unwrap();
        assert_eq!(a.len(), 3);
        assert!(a[1].is_null());
        assert_eq!(a[2].get("k").unwrap().as_str(), Some("v"));
        assert_eq!(doc.get("e").unwrap().as_obj().unwrap().len(), 0);
        assert_eq!(doc.get("f").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn parse_string_escapes() {
        let doc = Json::parse(r#""a\"b\\c\nd\u0041\u00e9""#).unwrap();
        assert_eq!(doc.as_str(), Some("a\"b\\c\ndAé"));
        // Surrogate pair → astral codepoint.
        let doc = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(doc.as_str(), Some("😀"));
        // Lone surrogate is rejected.
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn parse_rejects_malformed_input() {
        for bad in [
            "",
            "tru",
            "{",
            "[1,",
            "[1 2]",
            "{\"a\"}",
            "{\"a\":}",
            "1.2.3",
            "[1]x",
            "\"\u{1}\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn display_parse_roundtrip() {
        let doc = Json::obj(vec![
            ("name", Json::str("opamp2_180nm")),
            ("xs", Json::nums(&[0.25, 1e-9, 3.0])),
            ("nested", Json::obj(vec![("ok", Json::Bool(true))])),
            ("none", Json::Null),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parse_multibyte_characters_in_keys_and_values() {
        // 2-, 3- and 4-byte UTF-8 scalars, alone and beside escapes.
        let doc =
            Json::parse(r#"{"é":"ü","€k":"漢字","😀":"a😀b","ñ\n":"\"é\"\\€\t😀\u00e9"}"#).unwrap();
        assert_eq!(doc.get("é").unwrap().as_str(), Some("ü"));
        assert_eq!(doc.get("€k").unwrap().as_str(), Some("漢字"));
        assert_eq!(doc.get("😀").unwrap().as_str(), Some("a😀b"));
        assert_eq!(doc.get("ñ\n").unwrap().as_str(), Some("\"é\"\\€\t😀é"));
        let doc = Json::parse("[\"\\\\😀\",\"€\\n\",\"\\u0041é\"]").unwrap();
        let items: Vec<&str> = doc
            .as_arr()
            .unwrap()
            .iter()
            .flat_map(Json::as_str)
            .collect();
        assert_eq!(items, ["\\😀", "€\n", "Aé"]);
    }

    #[test]
    fn parse_a_string_that_ends_the_input() {
        assert_eq!(Json::parse("\"é漢😀\"").unwrap(), Json::str("é漢😀"));
        assert_eq!(Json::parse("\"\"").unwrap(), Json::str(""));
        assert_eq!(
            Json::parse("\"abc😀").unwrap_err(),
            "unterminated string".to_string()
        );
        assert_eq!(
            Json::parse("\"abc\\").unwrap_err(),
            "unterminated escape".to_string()
        );
        assert_eq!(
            Json::parse("[\"é\"").unwrap_err(),
            "expected ',' or ']' at byte 5".to_string()
        );
    }

    #[test]
    fn parse_errors_name_the_byte_offset() {
        for (bad, msg) in [
            ("\"é\u{1}\"", "unescaped control character at byte 3"),
            ("\"😀\\x\"", "invalid escape '\\x' at byte 6"),
            ("\"\\u12zz\"", "invalid \\u escape '12zz' at byte 3"),
            ("\"\\u12\"", "truncated \\u escape at byte 3"),
            ("\"\\ud83d\\u0041\"", "invalid low surrogate at byte 13"),
            ("\"\\ud83dx\"", "lone high surrogate at byte 7"),
            ("\"€\"x", "trailing characters at byte 5"),
        ] {
            assert_eq!(Json::parse(bad).unwrap_err(), msg, "{bad:?}");
        }
    }

    #[test]
    fn parse_surrogate_pair_escapes() {
        for (text, want) in [
            (r#""\ud83d\ude00""#, "😀"),
            (r#""\uD834\uDD1E""#, "𝄞"),
            (r#""x\ud83d\ude00é\udbff\udfff""#, "x😀é\u{10ffff}"),
            (r#""\ud800\udc00😀""#, "\u{10000}😀"),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_str(), Some(want), "{text}");
        }
        // A low half alone decodes to no scalar value.
        assert!(Json::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn non_ascii_documents_roundtrip_through_display() {
        let doc = Json::obj(vec![
            ("名前", Json::str("opamp2_180nm 漢字")),
            ("é\"\\", Json::str("\u{1}\t€\n😀")),
            (
                "😀",
                Json::Arr(vec![
                    Json::str("ü"),
                    Json::Num(-0.5),
                    Json::obj(vec![("ß", Json::str("\u{10ffff}\u{7f}\u{80}"))]),
                ]),
            ),
            ("", Json::str("")),
        ]);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
        for s in [
            "é",
            "€",
            "😀",
            "a\"é\\€/😀",
            "\u{7ff}\u{800}\u{ffff}\u{10000}",
        ] {
            let v = Json::str(s);
            assert_eq!(Json::parse(&v.to_string()).unwrap(), v, "{s:?}");
        }
    }

    #[test]
    fn as_u64_accepts_whole_numbers_only() {
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::str("42").as_u64(), None);
        assert_eq!(Json::Num(2f64.powi(64)).as_u64(), None);
        assert_eq!(Json::Num(2f64.powi(63)).as_u64(), Some(1 << 63));
    }
}
