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
/// reader a few stack frames (a few hundred bytes optimized, about
/// 5 KB unoptimized), so the bound keeps a body made of brackets inside
/// a 2 MiB thread stack.
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
///
/// Each scan is one tight loop over the byte slice: whitespace and the
/// plain runs of a string take a table lookup per byte, and a number's
/// digits are summed as they are scanned. Compact JSON has no
/// whitespace, so the reader looks for it only where the byte it
/// expects is not there. [`Reader::skip`] and escaped strings run on a
/// copy of the position passed by value: a reader that no call borrows
/// keeps its position in a register.
#[derive(Debug)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    depth: usize,
}

/// Byte class: JSON whitespace.
const WS: u8 = 1;
/// Byte class: a string byte that stands for itself.
const PLAIN: u8 = 2;
/// Byte class: a byte a number's text may hold.
const NUM: u8 = 4;

/// The classes of every byte value.
static CLASS: [u8; 256] = {
    let mut table = [0; 256];
    let mut i = 0;
    while i < 256 {
        let b = i as u8;
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            table[i] |= WS;
        }
        if b >= 0x20 && b != b'"' && b != b'\\' {
            table[i] |= PLAIN;
        }
        if matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
            table[i] |= NUM;
        }
        i += 1;
    }
    table
};

#[inline(always)]
fn is(b: u8, class: u8) -> bool {
    CLASS[usize::from(b)] & class != 0
}

/// Where the run of bytes of `class` from `from` ends.
#[inline(always)]
fn run_end(bytes: &[u8], from: usize, class: u8) -> usize {
    from + bytes[from..].iter().take_while(|&&b| is(b, class)).count()
}

/// Where the digit run from `from` ends, and its value (which wraps
/// past 19 digits).
#[inline(always)]
fn digits(bytes: &[u8], from: usize) -> (usize, u64) {
    let mut n = 0u64;
    let mut end = from;
    for &b in &bytes[from..] {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        n = n.wrapping_mul(10).wrapping_add(u64::from(d));
        end += 1;
    }
    (end, n)
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
    #[inline]
    pub fn kind(&mut self) -> Result<Kind, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => Ok(Kind::Obj),
            Some(b'[') => Ok(Kind::Arr),
            Some(b'"') => Ok(Kind::Str),
            Some(b't' | b'f') => Ok(Kind::Bool),
            Some(b'n') => Ok(Kind::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Kind::Num),
            other => Err(unexpected(other, self.pos)),
        }
    }

    /// Read `null`.
    #[inline]
    pub fn null(&mut self) -> Result<(), String> {
        self.skip_ws();
        self.literal(b"null")
    }

    /// Read `true` or `false`.
    #[inline]
    pub fn bool(&mut self) -> Result<bool, String> {
        self.skip_ws();
        self.bool_here()
    }

    /// Read a number. A plain integer of up to 19 digits is summed as
    /// it is scanned: it fits a `u64`, whose conversion rounds to the
    /// nearest `f64` just as `str::parse` does, which reads every other
    /// number.
    #[inline]
    pub fn num(&mut self) -> Result<f64, String> {
        self.skip_ws();
        self.num_here()
    }

    /// Read a string, decoding every escape. A string without escapes
    /// is borrowed from the input.
    #[inline]
    pub fn str(&mut self) -> Result<Cow<'a, str>, String> {
        self.str_here()
    }

    /// Read an array, calling `item` once per element; `item` must
    /// read exactly one value.
    #[inline]
    pub fn array(
        &mut self,
        mut item: impl FnMut(&mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut more = self.open(b'[', b']')?;
        while more {
            item(self)?;
            more = self.more(b']')?;
        }
        Ok(())
    }

    /// Read an object, calling `member` once per key in document order
    /// (duplicates included); `member` must read exactly one value.
    #[inline]
    pub fn object(
        &mut self,
        mut member: impl FnMut(Cow<'a, str>, &mut Reader<'a>) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut more = self.open(b'{', b'}')?;
        while more {
            let key = self.str_here()?;
            self.expect(b':')?;
            member(key, self)?;
            more = self.more(b'}')?;
        }
        Ok(())
    }

    /// Read one value of any kind, validating it without building it.
    #[inline]
    pub fn skip(&mut self) -> Result<(), String> {
        self.pos = Reader::skip_at(self.text, self.pos, self.depth)?;
        Ok(())
    }

    /// [`Reader::skip`] from `pos` at nesting `depth`; returns where the
    /// value ends.
    fn skip_at(text: &'a str, pos: usize, depth: usize) -> Result<usize, String> {
        let mut r = Reader { text, pos, depth };
        match r.kind()? {
            Kind::Arr => r.array(Reader::skip_here)?,
            Kind::Obj => r.object(|_, r| r.skip_here())?,
            scalar => r.skip_scalar(scalar)?,
        }
        Ok(r.pos)
    }

    /// [`Reader::skip`] with a scalar read in line: only arrays and
    /// objects recurse. It and [`Reader::skip_scalar`] sit on the skip
    /// recursion, `MAX_DEPTH` levels deep, so they are forced in line
    /// only in optimized builds: an unoptimized frame keeps a slot for
    /// every temporary of every function inlined into it. Left to plain
    /// `#[inline]`, an optimized `skip` runs ~13% slower.
    #[cfg_attr(debug_assertions, inline)]
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn skip_here(&mut self) -> Result<(), String> {
        match self.kind()? {
            Kind::Arr | Kind::Obj => self.skip(),
            scalar => self.skip_scalar(scalar),
        }
    }

    /// Validate the scalar of `kind` that starts here.
    #[cfg_attr(debug_assertions, inline)]
    #[cfg_attr(not(debug_assertions), inline(always))]
    fn skip_scalar(&mut self, kind: Kind) -> Result<(), String> {
        match kind {
            Kind::Null => self.literal(b"null"),
            Kind::Bool => self.bool_here().map(drop),
            Kind::Num => self.num_here().map(drop),
            _ => match self.open_str()? {
                (_, true) => Ok(()),
                (start, false) => self.escaped_str(start).map(drop),
            },
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

    // The `_here` readers start at the value's first byte, whitespace
    // already stepped over, and are forced in line: `#[inline]` on the
    // public methods is only a hint, and a reader lent to a call that
    // was not inlined keeps its position in memory.

    #[inline(always)]
    fn bool_here(&mut self) -> Result<bool, String> {
        let b = self.peek() == Some(b't');
        self.literal(if b { b"true" } else { b"false" })?;
        Ok(b)
    }

    #[inline(always)]
    fn num_here(&mut self) -> Result<f64, String> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let neg = bytes.get(start) == Some(&b'-');
        let int_start = start + usize::from(neg);
        let (int_end, n) = digits(bytes, int_start);
        let int_len = int_end - int_start;
        let canonical = int_len == 1 || (int_len > 1 && bytes[int_start] != b'0');
        if canonical && int_len <= 19 && !bytes.get(int_end).is_some_and(|&b| is(b, NUM)) {
            self.pos = int_end;
            let n = n as f64;
            return Ok(if neg { -n } else { n });
        }
        let (n, end) = num_rest(self.text, start, int_end, canonical)?;
        self.pos = end;
        Ok(n)
    }

    #[inline(always)]
    fn str_here(&mut self) -> Result<Cow<'a, str>, String> {
        match self.open_str()? {
            (start, true) => Ok(Cow::Borrowed(&self.text[start..self.pos - 1])),
            (start, false) => self.escaped_str(start).map(Cow::Owned),
        }
    }

    /// Read a string's opening quote and its first plain run. Returns
    /// where the run started and whether the closing quote ended it
    /// (and was read).
    #[inline(always)]
    fn open_str(&mut self) -> Result<(usize, bool), String> {
        self.expect(b'"')?;
        let start = self.pos;
        self.pos = run_end(self.text.as_bytes(), start, PLAIN);
        let closed = self.peek() == Some(b'"');
        self.pos += usize::from(closed);
        Ok((start, closed))
    }

    /// Finish a string whose first plain run, from `start`, did not end
    /// on its closing quote.
    #[inline]
    fn escaped_str(&mut self, start: usize) -> Result<String, String> {
        let (out, end) = Reader::escaped_str_at(self.text, start, self.pos)?;
        self.pos = end;
        Ok(out)
    }

    /// [`Reader::escaped_str`] with the position by value; returns the
    /// string and where it ends.
    fn escaped_str_at(text: &'a str, start: usize, pos: usize) -> Result<(String, usize), String> {
        let mut r = Reader {
            text,
            pos,
            depth: 0,
        };
        let mut out = String::from(&text[start..pos]);
        loop {
            match r.bump() {
                None => return Err("unterminated string".into()),
                Some(b'"') => return Ok((out, r.pos)),
                Some(b'\\') => out.push(r.escape()?),
                Some(b) if b < 0x20 => return Err("raw control character in string".into()),
                Some(_) => {
                    let run = r.pos - 1;
                    r.pos = run_end(text.as_bytes(), r.pos, PLAIN);
                    out.push_str(&text[run..r.pos]);
                }
            }
        }
    }

    #[inline(always)]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    #[inline(always)]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    /// Step over whitespace. Compact JSON has none, so one look at the
    /// next byte usually settles it.
    #[inline(always)]
    fn skip_ws(&mut self) {
        if self.peek().is_some_and(|b| is(b, WS)) {
            self.pos = run_end(self.text.as_bytes(), self.pos, WS);
        }
    }

    /// Read the byte `b`, after whitespace if there is any.
    #[inline(always)]
    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() != Some(b) {
            self.skip_ws();
            if self.peek() != Some(b) {
                // The offset of the wrong byte, or of the last byte
                // when the text ended.
                return Err(expected(b, self.pos.min(self.text.len().saturating_sub(1))));
            }
        }
        self.pos += 1;
        Ok(())
    }

    /// Enter an array or object, holding the nesting bound. Returns
    /// whether it holds any item: an empty one is read whole, `close`
    /// included.
    #[inline(always)]
    fn open(&mut self, bracket: u8, close: u8) -> Result<bool, String> {
        self.expect(bracket)?;
        if self.depth == MAX_DEPTH {
            return Err(too_deep(self.pos - 1));
        }
        self.skip_ws();
        let empty = self.peek() == Some(close);
        self.pos += usize::from(empty);
        self.depth += usize::from(!empty);
        Ok(!empty)
    }

    /// Read the `,` or `close` after an item: whether another item
    /// follows. Leaving the array or object, step out of its depth.
    #[inline(always)]
    fn more(&mut self, close: u8) -> Result<bool, String> {
        if self.peek() != Some(b',') && self.peek() != Some(close) {
            self.skip_ws();
        }
        match self.bump() {
            Some(b',') => Ok(true),
            Some(b) if b == close => {
                self.depth -= 1;
                Ok(false)
            }
            other => Err(expected_sep(close as char, other)),
        }
    }

    #[inline(always)]
    fn literal(&mut self, word: &[u8]) -> Result<(), String> {
        if self.text.as_bytes()[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(bad_literal(self.pos))
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

/// Finish a number that is not a plain integer of up to 19 digits;
/// returns it and where it ends.
fn num_rest(
    text: &str,
    start: usize,
    int_end: usize,
    canonical: bool,
) -> Result<(f64, usize), String> {
    let bytes = text.as_bytes();
    let mut ok = canonical;
    let mut p = int_end;
    if bytes.get(p) == Some(&b'.') {
        let end = digits(bytes, p + 1).0;
        ok &= end > p + 1;
        p = end;
    }
    if matches!(bytes.get(p), Some(b'e' | b'E')) {
        p += 1;
        if matches!(bytes.get(p), Some(b'+' | b'-')) {
            p += 1;
        }
        let end = digits(bytes, p).0;
        ok &= end > p;
        p = end;
    }
    // A malformed number is reported whole: its text runs on over
    // every character a number may hold.
    let end = run_end(bytes, p, NUM);
    ok &= end == p;
    let text = &text[start..end];
    match text.parse::<f64>() {
        Ok(n) if ok => Ok((n, end)),
        _ => Err(format!("bad number {text:?} at byte {start}")),
    }
}

// The error texts, kept out of line: the scanning paths that build them
// stay small enough to inline.

#[cold]
fn unexpected(byte: Option<u8>, at: usize) -> String {
    format!("unexpected {byte:?} at byte {at}")
}

#[cold]
fn expected(byte: u8, at: usize) -> String {
    format!("expected {:?} at byte {at}", byte as char)
}

#[cold]
fn expected_sep(close: char, got: Option<u8>) -> String {
    format!("expected ',' or '{close}', got {got:?}")
}

#[cold]
fn too_deep(at: usize) -> String {
    format!("nesting deeper than {MAX_DEPTH} at byte {at}")
}

#[cold]
fn bad_literal(at: usize) -> String {
    format!("bad literal at byte {at}")
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
