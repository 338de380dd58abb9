//! A minimal JSON value model, parser, and writer.
//!
//! The workspace's wire format (the `vqd-server` newline-delimited JSON
//! protocol) and machine-readable reports need *actual* JSON, and the
//! build environment has no `serde_json`. This module is the slice we
//! use: a [`Value`] tree, a strict recursive-descent [`parse`], and a
//! compact writer via [`std::fmt::Display`]. Object key order is
//! preserved (insertion order), numbers are `f64` with integers written
//! without a fractional part, and strings round-trip through standard
//! JSON escapes (including `\uXXXX` with surrogate pairs).

use std::fmt;

/// A JSON document: the usual six shapes.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; integers up to 2^53 are exact).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved and duplicate keys keep
    /// the *last* occurrence when parsed.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Builds an array.
    pub fn array(items: impl IntoIterator<Item = Value>) -> Value {
        Value::Arr(items.into_iter().collect())
    }

    /// Member lookup on objects; `None` elsewhere or when absent.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9.007_199_254_740_992e15 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Whether this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        Value::Num(n as f64)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::Num(n as f64)
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Value {
        Value::Num(n)
    }
}

/// Whether a string byte needs an escape: `"`, `\` and the control bytes
/// below 0x20. All are ASCII, so they never split a UTF-8 sequence.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// The longest piece of a run [`write_escaped`] writes at once. A
/// `String` that receives a long run in one write grows to exactly its
/// end, and the next small write then doubles it, which leaves up to
/// half of it unused; written in pieces, it grows by doubling as it
/// fills.
const RUN_PIECE: usize = 4096;

/// Writes a run that needs no escape, in pieces of at most
/// [`RUN_PIECE`] bytes cut at char boundaries.
fn write_run(f: &mut fmt::Formatter<'_>, mut run: &str) -> fmt::Result {
    while run.len() > RUN_PIECE {
        let cut =
            (0..=RUN_PIECE).rev().find(|&i| run.is_char_boundary(i)).expect("0 is a boundary");
        let (piece, rest) = run.split_at(cut);
        f.write_str(piece)?;
        run = rest;
    }
    f.write_str(run)
}

/// Writes `s` as a JSON string literal: each run of bytes that needs no
/// escape is copied by [`write_run`], not one character at a time.
fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    const HEX: &str = "0123456789abcdef";
    f.write_str("\"")?;
    let mut run = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        write_run(f, &s[run..i])?;
        run = i + 1;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => {
                let low = usize::from(b & 0xf);
                f.write_str(if b < 0x10 { "\\u000" } else { "\\u001" })?;
                f.write_str(&HEX[low..=low])?;
            }
        }
    }
    write_run(f, &s[run..])?;
    f.write_str("\"")
}

impl fmt::Display for Value {
    /// Compact (no-whitespace) JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => {
                if !n.is_finite() {
                    f.write_str("null") // JSON has no NaN/inf
                } else if n.fract() == 0.0 && n.abs() <= 9.007_199_254_740_992e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    f.write_str(":")?;
                    write!(f, "{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A JSON syntax error: byte offset plus explanation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.src.as_bytes()
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError { offset: self.pos, message: message.into() })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes().get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, JsonError> {
        if depth > 128 {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            None => self.err("unexpected end of input"),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Arr(items));
                        }
                        _ => return self.err("expected `,` or `]`"),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    let val = self.value(depth + 1)?;
                    fields.push((key, val));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Obj(fields));
                        }
                        _ => return self.err("expected `,` or `}`"),
                    }
                }
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => self.err(format!("unexpected byte 0x{b:02x}")),
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = &self.src[start..self.pos];
        match text.parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Value::Num(n)),
            _ => Err(JsonError { offset: start, message: format!("bad number `{text}`") }),
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let slice = self
            .bytes()
            .get(self.pos..self.pos + 4)
            .ok_or(JsonError { offset: self.pos, message: "truncated \\u escape".into() })?;
        let text = std::str::from_utf8(slice)
            .map_err(|_| JsonError { offset: self.pos, message: "bad \\u escape".into() })?;
        let n = u32::from_str_radix(text, 16)
            .map_err(|_| JsonError { offset: self.pos, message: "bad \\u escape".into() })?;
        self.pos += 4;
        Ok(n)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"`, `\` or control byte whole:
            // those bytes are ASCII, so the run is a slice of the input.
            let start = self.pos;
            let run = self.bytes()[start..].iter().position(|&b| needs_escape(b));
            self.pos = run.map_or(self.src.len(), |n| start + n);
            out.push_str(&self.src[start..self.pos]);
            match self.peek() {
                None => return self.err("unterminated string"),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require `\uXXXX` low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return self.err("unpaired surrogate");
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return self.err("unpaired surrogate");
                                }
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return self.err("unpaired surrogate");
                            } else {
                                hi
                            };
                            match char::from_u32(cp) {
                                Some(c) => out.push(c),
                                None => return self.err("invalid code point"),
                            }
                            continue; // pos already advanced past the escape
                        }
                        _ => return self.err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => return self.err("raw control character in string"),
            }
        }
    }
}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Value, JsonError> {
    let mut p = Parser { src: input, pos: 0 };
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.src.len() {
        return p.err("trailing characters after document");
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let v = Value::object([
            ("name", Value::from("vqd")),
            ("n", Value::from(42u64)),
            ("x", Value::from(1.5)),
            ("ok", Value::from(true)),
            ("none", Value::Null),
            ("arr", Value::array([Value::from(1u64), Value::from("two")])),
            ("obj", Value::object([("k", Value::from("v"))])),
        ]);
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn integers_write_without_fraction() {
        assert_eq!(Value::from(7u64).to_string(), "7");
        assert_eq!(Value::from(1.25).to_string(), "1.25");
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("-3.5").unwrap().as_f64(), Some(-3.5));
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn strings_escape_and_unescape() {
        let v = Value::from("a\"b\\c\nd\te\u{1}é 💡");
        let text = v.to_string();
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(parse(r#""\u00e9 \ud83d\udca1""#).unwrap(), Value::from("é 💡"));
    }

    #[test]
    fn object_lookup_takes_last_duplicate() {
        let v = parse(r#"{"a":1,"a":2,"b":null}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(2));
        assert!(v.get("b").is_some_and(Value::is_null));
        assert!(v.get("c").is_none());
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"k\":}",
            "nul",
            "01x",
            "{} trailing",
            "\"\\ud800\"",
            "[1 2]",
            "\u{1}",
        ] {
            let e = parse(bad).expect_err(bad);
            assert!(!e.message.is_empty());
        }
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(parse(&deep).is_err());
    }

    /// The per-character writer the run-based [`write_escaped`] replaced,
    /// kept as its reference.
    fn write_escaped_reference(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
        f.write_str("\"")?;
        for c in s.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => write!(f, "{c}")?,
            }
        }
        f.write_str("\"")
    }

    /// A string written by the reference writer.
    struct Reference<'a>(&'a str);

    impl fmt::Display for Reference<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write_escaped_reference(f, self.0)
        }
    }

    impl Parser<'_> {
        /// The per-character string parser the run-based
        /// [`Parser::string`] replaced, kept as its reference.
        fn string_reference(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return self.err("unterminated string"),
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
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                self.pos += 1;
                                let hi = self.hex4()?;
                                let cp = if (0xD800..0xDC00).contains(&hi) {
                                    if self.peek() == Some(b'\\') {
                                        self.pos += 1;
                                        self.expect(b'u')?;
                                        let lo = self.hex4()?;
                                        if !(0xDC00..0xE000).contains(&lo) {
                                            return self.err("unpaired surrogate");
                                        }
                                        0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                    } else {
                                        return self.err("unpaired surrogate");
                                    }
                                } else if (0xDC00..0xE000).contains(&hi) {
                                    return self.err("unpaired surrogate");
                                } else {
                                    hi
                                };
                                match char::from_u32(cp) {
                                    Some(c) => out.push(c),
                                    None => return self.err("invalid code point"),
                                }
                                continue;
                            }
                            _ => return self.err("bad escape"),
                        }
                        self.pos += 1;
                    }
                    Some(b) if b < 0x20 => return self.err("raw control character in string"),
                    Some(_) => {
                        let start = self.pos;
                        self.pos += 1;
                        while self.bytes().get(self.pos).is_some_and(|b| b & 0xC0 == 0x80) {
                            self.pos += 1;
                        }
                        match std::str::from_utf8(&self.bytes()[start..self.pos]) {
                            Ok(chunk) => out.push_str(chunk),
                            Err(_) => {
                                self.pos = start;
                                return self.err("invalid utf-8 in string");
                            }
                        }
                    }
                }
            }
        }
    }

    /// Parses the string literal at the start of `input` with both
    /// parsers; each gives its result and the offset it stopped at.
    fn parse_string_both(input: &str) -> [(Result<String, JsonError>, usize); 2] {
        let mut run = Parser { src: input, pos: 0 };
        let mut reference = Parser { src: input, pos: 0 };
        [(run.string(), run.pos), (reference.string_reference(), reference.pos)]
    }

    /// A seeded corpus of strings: fixed edge cases, then random strings
    /// built from every control byte, 0x7f, `"`, `\`, `/`, ASCII and 2-,
    /// 3- and 4-byte UTF-8 characters.
    fn corpus() -> Vec<String> {
        let pieces: Vec<String> = (0u8..0x20)
            .map(|b| char::from(b).to_string())
            .chain(
                ["\u{7f}", "\"", "\\", "/", "a", "N12", "(N1,N2), ", "é", "€", "💡"]
                    .map(String::from),
            )
            .collect();
        let long = "(N1024,N2047), ".repeat(2_731);
        assert!(long.len() >= 40_000);
        let mut out: Vec<String> = [
            "",
            "\"",
            "\\",
            "\"\"\\\\",
            "\"leading",
            "trailing\\",
            "\u{0}\u{1f}",
            "é\"€\\💡\n",
            "\u{1}é\u{1f}€\u{7f}💡\t",
            "💡",
        ]
        .map(String::from)
        .to_vec();
        out.extend([long.clone(), format!("\"{long}"), format!("{long}\n"), format!("💡{long}é")]);
        out.push("é€💡".repeat(4_500));
        let mut state = 0x5eed_u64;
        let mut next = move || {
            // SplitMix64.
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        for _ in 0..2_000 {
            let len = next() % 24;
            out.push((0..len).map(|_| pieces[next() % pieces.len()].as_str()).collect());
        }
        out
    }

    #[test]
    fn run_writer_matches_the_reference_and_round_trips() {
        for s in corpus() {
            let text = Value::from(s.as_str()).to_string();
            assert_eq!(text, Reference(&s).to_string(), "{s:?}");
            let [run, reference] = parse_string_both(&text);
            assert_eq!(run, (Ok(s.clone()), text.len()), "{s:?}");
            assert_eq!(run, reference, "{s:?}");
        }
    }

    #[test]
    fn long_runs_grow_the_encoding_by_doubling() {
        // Written in one piece, the run would grow the buffer to exactly
        // its end and the closing quote would double that, to twice the
        // text's length; grown by doubling, 40,002 bytes take 65,552.
        let text = Value::from("N".repeat(40_000)).to_string();
        assert!(text.capacity() < text.len() * 7 / 4, "{} of {}", text.capacity(), text.len());
    }

    #[test]
    fn run_parser_matches_the_reference_on_every_input() {
        let long = "N".repeat(40_000);
        let accepted = [
            r#""\/\b\f\u00e9\u00E9\ud83d\udca1""#.to_owned(),
            format!("\"{long}\\u0041{long}\" trailing"),
        ];
        let malformed = [
            format!("\"{long}\u{1}\""),
            format!("\"{}\n\"", "é".repeat(1_000)),
            r#""ab\x""#.to_owned(),
            "\"ab\\".to_owned(),
            format!("\"{long}"),
            "\"é💡".to_owned(),
            "\"".to_owned(),
            "abc".to_owned(),
            r#""\ud800""#.to_owned(),
            r#""\udc00""#.to_owned(),
            r#""\ud800\u0041""#.to_owned(),
            r#""\ud800\x""#.to_owned(),
            r#""\u12""#.to_owned(),
            r#""\u12g4""#.to_owned(),
            "\"\\u00é\"".to_owned(),
        ];
        for input in &accepted {
            let [run, reference] = parse_string_both(input);
            assert!(run.0.is_ok(), "{input:?}: {run:?}");
            assert_eq!(run, reference, "{input:?}");
        }
        for input in &malformed {
            let [run, reference] = parse_string_both(input);
            assert!(run.0.is_err(), "{input:?}: {run:?}");
            assert_eq!(run, reference, "{input:?}");
        }
    }
}
