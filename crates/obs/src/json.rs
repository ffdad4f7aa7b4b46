//! A minimal JSON value model, pull reader, and string escaper.
//!
//! The exporters in this crate hand-generate their JSON (the formats
//! are fixed and flat), but request bodies, ledgers and tests must be
//! *read* without external crates. This module owns the one JSON
//! grammar in the workspace: [`Reader`], a strict pull-style
//! recursive-descent reader over RFC 8259. It has two consumers:
//!
//! - [`parse`] builds a [`Value`] tree from it, for the ledger and
//!   profile readers, request bodies with a handful of fields, and
//!   tests ([`Value::render`] goes back to text, which is what makes
//!   quote→parse→render round-trips testable property-style);
//! - decoders that write straight into their own types, such as the
//!   `POST /ingest` body decoder, which fills one instruction per
//!   object without building a tree.
//!
//! The grammar is strict: strings decode every escape, including
//! `\uXXXX` with surrogate-pair recombination; numbers must match
//! `-? (0 | [1-9][0-9]*) (\.[0-9]+)? ([eE][+-]?[0-9]+)?`, so `01`,
//! `1.` and `-.5` are errors; and arrays and objects nest at most
//! [`MAX_DEPTH`] deep, so a hostile body of brackets is an error
//! rather than a stack overflow.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (all escape sequences decoded, including `\uXXXX` and
    /// surrogate pairs).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Keys are sorted (later duplicates win).
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Member `key` of this object, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj().and_then(|m| m.get(key))
    }

    /// Render back to compact JSON text (object keys in sorted order,
    /// so equal values always render identically).
    ///
    /// Numbers use Rust's shortest-round-trip `f64` formatting; a
    /// non-finite number (which JSON cannot represent) renders as
    /// `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => out.push_str(&quote(s)),
            Value::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&quote(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Quote and escape `s` as a JSON string literal (with the quotes).
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse `text` as a single JSON document.
///
/// Returns a human-readable error (with byte offset) on any deviation
/// from the grammar, including trailing garbage — exactly what a
/// "does the exported file parse" test wants.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut r = Reader::new(text);
    let v = Value::read(&mut r)?;
    r.finish()?;
    Ok(v)
}

impl Value {
    /// Build the next value of `r` as a tree.
    fn read(r: &mut Reader<'_>) -> Result<Value, String> {
        Ok(match r.kind()? {
            Kind::Null => {
                r.null()?;
                Value::Null
            }
            Kind::Bool => Value::Bool(r.bool()?),
            Kind::Num => Value::Num(r.num()?),
            Kind::Str => Value::Str(r.str()?.into_owned()),
            Kind::Arr => {
                let mut items = Vec::new();
                r.array(|r| {
                    items.push(Value::read(r)?);
                    Ok(())
                })?;
                Value::Arr(items)
            }
            Kind::Obj => {
                let mut map = BTreeMap::new();
                r.object(|key, r| {
                    map.insert(key.into_owned(), Value::read(r)?);
                    Ok(())
                })?;
                Value::Obj(map)
            }
        })
    }
}

/// Arrays and objects nest at most this deep. Every level costs the
/// reader a few stack frames, so the bound keeps a body made of
/// brackets far inside a 2 MiB thread stack.
pub const MAX_DEPTH: usize = 256;

/// The kind of the next value, told by its first byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `null`
    Null,
    /// `true` / `false`
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// A pull reader over one JSON document: the workspace's only JSON
/// tokenizer.
///
/// Every value method skips the whitespace before the value, reads
/// exactly one value of its kind and stops after it; [`Reader::kind`]
/// tells which method fits. Errors are human-readable and carry a byte
/// offset wherever the failed rule has one. After the top-level value,
/// [`Reader::finish`] checks that only whitespace follows.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// The kind of the next value, without consuming it.
    pub fn kind(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Kind::Obj),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            other => Err(format!("unexpected {other:?} at byte {}", self.pos)),
        }
    }

    /// Read `null`.
    pub fn null(&mut self) -> Result<(), String> {
        self.skip_ws();
        self.literal("null")
    }

    /// Read `true` or `false`.
    pub fn bool(&mut self) -> Result<bool, String> {
        self.skip_ws();
        let b = self.peek() == Some(b't');
        self.literal(if b { "true" } else { "false" })?;
        Ok(b)
    }

    /// Read a number. A plain integer of up to 15 digits is summed
    /// directly: it fits an `f64` exactly, so the result equals
    /// `str::parse`'s, which reads every other number.
    pub fn num(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let bytes = self.text.as_bytes();
        let digits = |mut p: usize| {
            while matches!(bytes.get(p), Some(b'0'..=b'9')) {
                p += 1;
            }
            p
        };
        let start = self.pos;
        let neg = bytes.get(start) == Some(&b'-');
        let int_start = start + usize::from(neg);
        let int_end = digits(int_start);
        let int_len = int_end - int_start;
        let mut ok = int_len == 1 || (int_len > 1 && bytes[int_start] != b'0');
        let mut p = int_end;
        if bytes.get(p) == Some(&b'.') {
            let end = digits(p + 1);
            ok &= end > p + 1;
            p = end;
        }
        if matches!(bytes.get(p), Some(b'e' | b'E')) {
            p += 1;
            if matches!(bytes.get(p), Some(b'+' | b'-')) {
                p += 1;
            }
            let end = digits(p);
            ok &= end > p;
            p = end;
        }
        // A malformed number is reported whole: its text runs on over
        // every character a number may hold.
        while matches!(
            bytes.get(p),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            ok = false;
            p += 1;
        }
        self.pos = p;
        let text = &self.text[start..p];
        if !ok {
            return Err(format!("bad number {text:?} at byte {start}"));
        }
        if p == int_end && int_len <= 15 {
            let n = bytes[int_start..int_end]
                .iter()
                .fold(0u64, |n, d| n * 10 + u64::from(d - b'0')) as f64;
            return Ok(if neg { -n } else { n });
        }
        text.parse::<f64>()
            .map_err(|_| format!("bad number {text:?} at byte {start}"))
    }

    /// Read a string, decoding every escape. A string without escapes
    /// is borrowed from the input.
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.skip_ws();
        self.expect(b'"')?;
        let start = self.pos;
        self.plain_run();
        match self.peek() {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                self.pos += 1;
                return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
            }
            _ => {}
        }
        let mut out = String::from(&self.text[start..self.pos]);
        loop {
            match self.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok(Cow::Owned(out)),
                Some(b'\\') => out.push(self.escape()?),
                Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                Some(_) => {
                    let run = self.pos - 1;
                    self.plain_run();
                    out.push_str(&self.text[run..self.pos]);
                }
            }
        }
    }

    /// Read an array, calling `item` once per element; `item` must
    /// read exactly one value.
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
        } else {
            loop {
                item(self)?;
                self.skip_ws();
                match self.bump() {
                    Some(b',') => {}
                    Some(b']') => break,
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Read an object, calling `member` once per key in document order
    /// (duplicates included); `member` must read exactly one value.
    pub fn object(
        &mut self,
        mut member: impl FnMut(Cow<'a, str>, &mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        self.open(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
        } else {
            loop {
                let key = self.str()?;
                self.skip_ws();
                self.expect(b':')?;
                member(key, self)?;
                self.skip_ws();
                match self.bump() {
                    Some(b',') => {}
                    Some(b'}') => break,
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        self.depth -= 1;
        Ok(())
    }

    /// Read one value of any kind, validating it without building it.
    pub fn skip(&mut self) -> Result<(), String> {
        match self.kind()? {
            Kind::Null => self.null(),
            Kind::Bool => self.bool().map(drop),
            Kind::Num => self.num().map(drop),
            Kind::Str => self.str().map(drop),
            Kind::Arr => self.array(Reader::skip),
            Kind::Obj => self.object(|_, r| r.skip()),
        }
    }

    /// End the document: only whitespace may follow the value read.
    pub fn finish(mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(format!("trailing data at byte {}", self.pos))
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}",
                b as char,
                self.pos.saturating_sub(1)
            ))
        }
    }

    /// Enter an array or object, holding the nesting bound.
    fn open(&mut self, bracket: u8) -> Result<(), String> {
        self.skip_ws();
        let at = self.pos;
        self.expect(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {at}"));
        }
        self.depth += 1;
        Ok(())
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    /// Step over string bytes that stand for themselves. The run ends
    /// on an ASCII byte (or the end), so it is whole UTF-8.
    fn plain_run(&mut self) {
        while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
            self.pos += 1;
        }
    }

    /// Decode the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        Ok(match self.bump() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let hi = self.hex4()?;
                if (0xD800..=0xDBFF).contains(&hi) {
                    // High surrogate: a low surrogate escape must
                    // follow immediately.
                    if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                        return Err("unpaired high surrogate".into());
                    }
                    let lo = self.hex4()?;
                    if !(0xDC00..=0xDFFF).contains(&lo) {
                        return Err("invalid low surrogate".into());
                    }
                    let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    char::from_u32(cp).ok_or("bad surrogate pair")?
                } else if (0xDC00..=0xDFFF).contains(&hi) {
                    return Err("unpaired low surrogate".into());
                } else {
                    char::from_u32(hi).ok_or("bad \\u escape")?
                }
            }
            other => return Err(format!("bad escape {other:?}")),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v = 0u32;
        for _ in 0..4 {
            match self.bump() {
                Some(d) if d.is_ascii_hexdigit() => {
                    v = v * 16 + (d as char).to_digit(16).expect("hex digit");
                }
                _ => return Err("bad \\u escape".into()),
            }
        }
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .expect("valid");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse("{} extra").is_err());
        assert!(parse("{\"a\": ").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("").is_err());
        assert_eq!(
            parse("\"a\u{1}b\"").unwrap_err(),
            "raw control character in string"
        );
    }

    #[test]
    fn quote_roundtrips_through_parse() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnl\nback\\slash",
            "héllo",
            "\u{1}\u{1f}",
            "emoji \u{1F600} pair",
        ] {
            let quoted = quote(s);
            assert_eq!(parse(&quoted).unwrap().as_str(), Some(s), "{quoted}");
        }
    }

    #[test]
    fn control_chars_are_escaped() {
        let q = quote("\u{1}");
        assert_eq!(q, "\"\\u0001\"");
        assert_eq!(parse(&q).unwrap().as_str(), Some("\u{1}"));
    }

    #[test]
    fn unicode_escapes_decode_with_surrogate_pairs() {
        assert_eq!(parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(
            parse(r#""\ud83d\ude00""#).unwrap().as_str(),
            Some("\u{1F600}")
        );
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\ude00""#).is_err(), "lone low surrogate");
        assert!(parse(r#""\ud83d\u0041""#).is_err(), "bad low surrogate");
    }

    #[test]
    fn render_roundtrips_values() {
        let text = r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x\ny"}"#;
        let v = parse(text).expect("valid");
        let rendered = v.render();
        assert_eq!(parse(&rendered).expect("render is valid JSON"), v);
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for bad in [
            "01", "00", "-01", "1.", "-.5", "1.e3", "-", "1e", "1e+", "--1", "1.5.3",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err, format!("bad number {bad:?} at byte 0"));
        }
        assert_eq!(parse("[1, 01]").unwrap_err(), "bad number \"01\" at byte 4");
        for good in [
            "-0",
            "0",
            "0.5",
            "1e5",
            "1E+2",
            "-1.5e-3",
            "123.456e-7",
            "1e999",
        ] {
            let v = parse(good).expect(good).as_num().expect("a number");
            let want: f64 = good.parse().expect("std parses it");
            assert_eq!(v.to_bits(), want.to_bits(), "{good}");
        }
    }

    #[test]
    fn plain_integer_fast_path_equals_str_parse() {
        let mut texts: Vec<String> = ["0", "-0", "7", "999999999999999", "-999999999999999"]
            .map(String::from)
            .into();
        // Past 15 digits the general path takes over; it must agree too.
        texts.extend(["9007199254740993", "12345678901234567890"].map(String::from));
        let mut x: u64 = 1;
        for _ in 0..200 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let digits = 1 + (x >> 60) as u32;
            texts.push((x % 10u64.pow(digits.min(15))).to_string());
        }
        for text in &texts {
            let mut r = Reader::new(text);
            let got = r.num().expect(text);
            let want: f64 = text.parse().expect("std parses it");
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert_eq!(
            parse(&nest(MAX_DEPTH + 1)).unwrap_err(),
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Far past the bound, on a 2 MiB thread: an error, not an abort.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let arrays = "[".repeat(100_000);
                let objects = "{\"k\":".repeat(100_000);
                let mut skipped = Reader::new(&arrays);
                (parse(&arrays), parse(&objects), skipped.skip())
            })
            .expect("spawn")
            .join()
            .expect("no stack overflow");
        assert!(deep.0.unwrap_err().starts_with("nesting deeper"));
        assert!(deep.1.unwrap_err().starts_with("nesting deeper"));
        assert!(deep.2.unwrap_err().starts_with("nesting deeper"));
    }

    #[test]
    fn reader_borrows_plain_strings_and_skip_validates_like_parse() {
        let mut r = Reader::new(r#" "pc" "l\u0064" "#);
        assert!(matches!(r.str(), Ok(Cow::Borrowed("pc"))));
        assert!(matches!(r.str(), Ok(Cow::Owned(s)) if s == "ld"));
        r.finish().expect("only whitespace left");
        for doc in [
            r#"{"a": [1, {"b": null}], "c": "x\ty", "d": -2.5e3}"#,
            "[true, false, null]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "[1 2]",
            "[\"\\q\"]",
            "[\"\u{1}\"]",
            "[tru]",
            "\"open",
            "{} {}",
            "",
        ] {
            let mut r = Reader::new(doc);
            let skipped = r.skip().and_then(|()| r.finish());
            assert_eq!(skipped, parse(doc).map(drop), "{doc}");
        }
    }
}
