#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::panic_in_result_fn
)]
//! Offline stand-in for the `serde_json` crate.
//!
//! Renders and parses the [`Value`] tree defined by the vendored `serde`
//! stand-in as JSON text. Covers the API surface this workspace uses:
//! [`to_string`], [`to_string_pretty`], [`from_str`], the [`json!`] macro,
//! [`Value`] indexing / `Display`, and an [`Error`] convertible into
//! `std::io::Error`. One addition has no serde_json counterpart:
//! [`from_str_keeping_raw`] checks a member's object without building it
//! and hands back its text, the role `RawValue` plays in serde_json; an
//! object text it accepted before is stepped over without a second check.
//!
//! The parser reads every client line the serve daemon receives, so it
//! is linear in its input and every slice it takes is checked: strings
//! are copied run by run between quotes and escapes. It recurses once per
//! nesting level, so nesting past [`RECURSION_LIMIT`] is an ordinary
//! parse error rather than a stack overflow.

pub use serde::{Number, Value};

use serde::{write_json_number, write_json_string, DeError, Deserialize, Serialize};
use std::fmt;

/// Deepest array/object nesting the parser accepts; one more level fails
/// with `recursion limit exceeded at byte N`, `N` the offset of the
/// bracket that opens it.
///
/// The deepest document the workspace writes is a store snapshot holding
/// a certificate whose branch path splits every ReLU of CIFAR-10_DEEP, 736
/// neurons: two object levels per split (the externally tagged
/// `ProofNode::Branch` and its fields), seven levels of snapshot frame
/// above the root node and five inside the last leaf, 1,484 in all. The
/// limit rounds that up to 1,536. A document nested that deep still
/// parses on a 2 MiB thread, the stack a TCP connection thread of the
/// serve daemon gets.
pub const RECURSION_LIMIT: usize = 1536;

/// A serialization or deserialization failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Error {
    msg: String,
}

impl Error {
    fn new(msg: impl Into<String>) -> Self {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.0)
    }
}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Serializes `value` to compact JSON.
///
/// # Errors
///
/// Never fails in this implementation; the `Result` mirrors serde_json's
/// signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_value().to_string())
}

/// Serializes `value` to pretty-printed JSON (2-space indent,
/// `"key": value` separators — serde_json's default style).
///
/// # Errors
///
/// Never fails in this implementation.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_pretty(&value.to_value(), 0, &mut out);
    Ok(out)
}

fn write_pretty(v: &Value, indent: usize, out: &mut String) {
    match v {
        Value::Array(items) if !items.is_empty() => {
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_pretty(item, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push(']');
        }
        Value::Object(entries) if !entries.is_empty() => {
            out.push_str("{\n");
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(",\n");
                }
                push_indent(indent + 1, out);
                write_json_string(k, out);
                out.push_str(": ");
                write_pretty(val, indent + 1, out);
            }
            out.push('\n');
            push_indent(indent, out);
            out.push('}');
        }
        Value::Array(_) => out.push_str("[]"),
        Value::Object(_) => out.push_str("{}"),
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_json_number(*n, out),
        Value::String(s) => write_json_string(s, out),
    }
}

fn push_indent(levels: usize, out: &mut String) {
    for _ in 0..levels {
        out.push_str("  ");
    }
}

/// Deserializes a `T` from JSON text.
///
/// # Errors
///
/// Returns an [`Error`] on malformed JSON or when the parsed value does
/// not match `T` (including failed `try_from` re-validation).
pub fn from_str<T: Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse_value(text)?;
    T::from_value(&value).map_err(Error::from)
}

/// A document read by [`from_str_keeping_raw`].
#[derive(Debug, Clone, PartialEq)]
pub enum Document<'a> {
    /// A top-level object: its members in input order.
    Object(Vec<(String, Member<'a>)>),
    /// Any other top-level value, built as [`from_str`] builds it.
    Other(Value),
}

/// One member value of a [`Document::Object`].
#[derive(Debug, Clone, PartialEq)]
pub enum Member<'a> {
    /// A value built as [`from_str`] builds it.
    Value(Value),
    /// An object left unbuilt, like serde_json's `RawValue`: the exact
    /// text it occupies in the document, from `{` to `}`.
    Raw(&'a str),
}

/// Reads `text` as [`from_str::<Value>`](from_str) does, except that the
/// object value of any top-level member named `raw_key` is checked but
/// not built, and comes back as [`Member::Raw`].
///
/// The check runs the parser's own string and number code over the
/// skipped object, so a document is accepted, or rejected with the same
/// message and byte offset, exactly when [`from_str::<Value>`](from_str)
/// accepts or rejects it. Parsing the raw text later yields the value
/// [`from_str`] would have built in its place.
///
/// `known` lists texts that an earlier call returned as a
/// [`Member::Raw`]. Where the unread input at a raw member starts with
/// one of them, the parser steps over it instead of checking it again,
/// and the result is the one the check would give: the known text was
/// accepted by the same check at the same nesting depth, and the check
/// of an object reads nothing past its closing brace, so it would accept
/// exactly that span again. A listed text that is not an object span,
/// `{` to `}`, is never stepped over. Any other text in `known` can make
/// the parser accept a span that the check would reject.
///
/// # Errors
///
/// The [`Error`] that [`from_str::<Value>`](from_str) returns for `text`.
pub fn from_str_keeping_raw<'a>(
    text: &'a str,
    raw_key: &str,
    known: &[&str],
) -> Result<Document<'a>, Error> {
    let mut p = Parser::new(text);
    p.skip_ws();
    if p.peek() != Some(b'{') {
        let value = p.value()?;
        p.finish()?;
        return Ok(Document::Other(value));
    }
    let mut members = Vec::new();
    p.seq(b'{', b'}', |p| {
        let key = p.key()?;
        let member = if key == raw_key && p.peek() == Some(b'{') {
            let start = p.pos;
            match known
                .iter()
                .find(|k| is_object_span(k) && p.rest().starts_with(k.as_bytes()))
            {
                Some(k) => p.pos += k.len(),
                None => p.check_value()?,
            }
            Member::Raw(p.text_from(start)?)
        } else {
            Member::Value(p.value()?)
        };
        members.push((key, member));
        Ok(())
    })?;
    p.finish()?;
    Ok(Document::Object(members))
}

/// Whether `text` runs from a `{` to a `}`, as every [`Member::Raw`]
/// does. Surrounding whitespace, which a model file may hold, makes the
/// text no raw member's span.
fn is_object_span(text: &str) -> bool {
    text.starts_with('{') && text.ends_with('}')
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

fn parse_value(text: &str) -> Result<Value, Error> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.value()?;
    p.finish()?;
    Ok(v)
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The unread input.
    fn rest(&self) -> &'a [u8] {
        self.text.as_bytes().get(self.pos..).unwrap_or_default()
    }

    /// The input from `start` to the current position. Every caller
    /// starts and stops next to an ASCII byte, so the slice is always on
    /// character boundaries.
    fn text_from(&self, start: usize) -> Result<&'a str, Error> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid utf-8"))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Fails unless only whitespace is left.
    fn finish(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.pos == self.text.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters"))
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn keyword(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        if self.rest().starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.keyword("null", Value::Null),
            Some(b't') => self.keyword("true", Value::Bool(true)),
            Some(b'f') => self.keyword("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::String),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Checks one value exactly as [`Parser::value`] would read it, with
    /// the same errors at the same offsets, but builds nothing.
    fn check_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'[') => self.seq(b'[', b']', Self::check_value),
            Some(b'{') => self.seq(b'{', b'}', |p| {
                p.key()?;
                p.check_value()
            }),
            Some(b'"') => self.string().map(drop),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                // Every text `number` accepts as an integer also parses
                // as a float, so the float parse alone decides.
                let (text, _) = self.number_text()?;
                text.parse::<f64>()
                    .map(drop)
                    .map_err(|_| self.err("invalid number"))
            }
            _ => self.value().map(drop),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        let mut items = Vec::new();
        self.seq(b'[', b']', |p| {
            items.push(p.value()?);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    fn object(&mut self) -> Result<Value, Error> {
        let mut entries = Vec::new();
        self.seq(b'{', b'}', |p| {
            let key = p.key()?;
            entries.push((key, p.value()?));
            Ok(())
        })?;
        Ok(Value::Object(entries))
    }

    /// Reads `open`, then comma-separated items, each read by `item`,
    /// then `close`: the shared frame of arrays and objects, and the only
    /// place the parser recurses, so it alone counts the nesting depth.
    fn seq(
        &mut self,
        open: u8,
        close: u8,
        item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        if self.depth == RECURSION_LIMIT {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let read = self.seq_items(open, close, item);
        self.depth -= 1;
        read
    }

    fn seq_items(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), Error>,
    ) -> Result<(), Error> {
        self.expect(open)?;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    /// An object member's key and the `:` after it.
    fn key(&mut self) -> Result<String, Error> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one
            // piece. Both are ASCII, so the run ends on a character
            // boundary, and each byte of the input is visited once.
            let rest = self.rest();
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let start = self.pos;
            self.pos += run;
            out.push_str(self.text_from(start)?);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(_) => out.push(self.escape()?),
            }
        }
    }

    /// Decodes the escape sequence at the current backslash.
    fn escape(&mut self) -> Result<char, Error> {
        self.pos += 1;
        let ch = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{08}',
            Some(b'f') => '\u{0C}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode_escape();
            }
            _ => return Err(self.err("invalid escape")),
        };
        self.pos += 1;
        Ok(ch)
    }

    /// Decodes the `XXXX` after a `\u`, or a `XXXX\uXXXX` surrogate pair.
    fn unicode_escape(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let code = if (0xD800..0xDC00).contains(&hi) {
            if !self.rest().starts_with(b"\\u") {
                return Err(self.err("lone surrogate"));
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return Err(self.err("invalid unicode escape"));
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.rest().len() < 4 {
            return Err(self.err("truncated unicode escape"));
        }
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("invalid unicode escape"))?;
        let code =
            u32::from_str_radix(digits, 16).map_err(|_| self.err("invalid unicode escape"))?;
        self.pos += 4;
        Ok(code)
    }

    /// Scans a number's sign, digits, fraction and exponent. Returns its
    /// text and whether it has a fraction or an exponent; whether the
    /// text is a number at all is left to the caller's conversion.
    fn number_text(&mut self) -> Result<(&'a str, bool), Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.skip_digits();
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            self.skip_digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.skip_digits();
        }
        let text = self
            .text
            .get(start..self.pos)
            .ok_or_else(|| self.err("invalid number"))?;
        Ok((text, is_float))
    }

    fn skip_digits(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let (text, is_float) = self.number_text()?;
        if !is_float {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(n)));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::Number(Number::NegInt(n)));
            }
        }
        text.parse::<f64>()
            .map(|f| Value::Number(Number::Float(f)))
            .map_err(|_| self.err("invalid number"))
    }
}

/// Helpers for the [`json!`] macro; not public API.
#[doc(hidden)]
pub mod __private {
    /// Converts any serializable expression to a [`crate::Value`].
    pub fn to_val<T: serde::Serialize + ?Sized>(v: &T) -> crate::Value {
        v.to_value()
    }
}

/// Builds a [`Value`] from JSON-like syntax.
///
/// Supports `null`, literals/expressions, arrays, and objects with string
/// literal keys. Each array element / object value must be a single token
/// tree (a literal, a `[...]`, or a `{...}`), which covers this
/// workspace's usage.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($elem:tt),* $(,)? ]) => {
        $crate::Value::Array(<[_]>::into_vec(::std::boxed::Box::new([
            $( $crate::json!($elem) ),*
        ])))
    };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ({ $($key:literal : $val:tt),* $(,)? }) => {
        $crate::Value::Object(<[_]>::into_vec(::std::boxed::Box::new([
            $( (::std::string::String::from($key), $crate::json!($val)) ),*
        ])))
    };
    ({}) => { $crate::Value::Object(::std::vec::Vec::new()) };
    ($other:expr) => { $crate::__private::to_val(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_roundtrip() {
        let v = json!({
            "name": "net",
            "layers": [{"Dense": {"rows": 2}}, "Relu"],
            "eps": 0.125,
            "count": 7
        });
        let compact = v.to_string();
        assert_eq!(
            compact,
            r#"{"name":"net","layers":[{"Dense":{"rows":2}},"Relu"],"eps":0.125,"count":7}"#
        );
        let back: Value = from_str(&compact).unwrap();
        assert_eq!(back, v);
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\"eps\": 0.125"), "pretty: {pretty}");
        let back2: Value = from_str(&pretty).unwrap();
        assert_eq!(back2, v);
    }

    #[test]
    fn floats_roundtrip_exactly() {
        let xs = vec![
            0.1,
            -1.0 / 3.0,
            f64::MIN_POSITIVE,
            1.7976931348623157e308,
            -0.0,
            12345.678901234567,
        ];
        let json = to_string(&xs).unwrap();
        let back: Vec<f64> = from_str(&json).unwrap();
        for (a, b) in xs.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} failed to roundtrip");
        }
    }

    #[test]
    fn integers_stay_integers() {
        let json = to_string(&vec![0usize, 3, 1_000_000]).unwrap();
        assert_eq!(json, "[0,3,1000000]");
        let back: Vec<usize> = from_str(&json).unwrap();
        assert_eq!(back, vec![0, 3, 1_000_000]);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = "line\nbreak \"quoted\" back\\slash tab\t unicode \u{1F600} nul\u{0}".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
        // And we can parse foreign \u escapes, including surrogate pairs.
        let parsed: String = from_str(r#""A😀""#).unwrap();
        assert_eq!(parsed, "A\u{1F600}");
    }

    #[test]
    fn value_indexing_matches_serde_json() {
        let mut v = json!({"a": [1, 2], "b": {"c": true}});
        assert_eq!(v["a"][1], json!(2));
        assert_eq!(v["b"]["c"], Value::Bool(true));
        assert_eq!(v["missing"], Value::Null);
        v["b"]["c"] = Value::Bool(false);
        assert_eq!(v["b"]["c"], Value::Bool(false));
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
        assert!(from_str::<Vec<f64>>("{\"a\":1}").is_err());
    }

    /// `depth` nested arrays around `0` (objects when `objects`), each
    /// object with the single key `a`.
    fn nested(depth: usize, objects: bool) -> String {
        let (open, close) = if objects {
            ("{\"a\":", "}")
        } else {
            ("[", "]")
        };
        format!("{}0{}", open.repeat(depth), close.repeat(depth))
    }

    /// Runs `f` on a thread with the 2 MiB stack of a serve connection.
    fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn nesting_at_the_limit_parses_on_a_connection_stack() {
        on_small_stack(|| {
            for objects in [false, true] {
                assert!(from_str::<Value>(&nested(RECURSION_LIMIT, objects)).is_ok());
            }
            let doc = format!("{{\"raw\":{}}}", nested(RECURSION_LIMIT - 1, true));
            let Document::Object(members) = from_str_keeping_raw(&doc, "raw", &[]).unwrap() else {
                panic!("an object document");
            };
            assert!(matches!(members[0].1, Member::Raw(_)));
        });
    }

    #[test]
    fn nesting_past_the_limit_is_an_ordinary_error() {
        on_small_stack(|| {
            // The bracket opening level `RECURSION_LIMIT + 1` is at byte
            // `RECURSION_LIMIT * width`.
            for (objects, width) in [(false, 1), (true, 5)] {
                let err = from_str::<Value>(&nested(RECURSION_LIMIT + 1, objects)).unwrap_err();
                let want = format!(
                    "recursion limit exceeded at byte {}",
                    RECURSION_LIMIT * width
                );
                assert_eq!(err.to_string(), want);
            }
            // The raw check stops where the building parser does.
            let doc = format!("{{\"raw\":{}}}", nested(RECURSION_LIMIT, true));
            let raw = from_str_keeping_raw(&doc, "raw", &[]).unwrap_err();
            assert_eq!(raw, from_str::<Value>(&doc).unwrap_err());
            let want = format!(
                "recursion limit exceeded at byte {}",
                7 + 5 * (RECURSION_LIMIT - 1)
            );
            assert_eq!(raw.to_string(), want);
            // 300 KB of open brackets fail at the limit, not on the stack.
            let flood = format!("{{\"cmd\":\"stats\",\"id\":{}", "[".repeat(300_000));
            assert!(from_str::<Value>(&flood).is_err());
            assert!(from_str_keeping_raw(&flood, "model", &[]).is_err());
        });
    }

    #[test]
    fn error_converts_to_io_error() {
        let e = from_str::<Value>("oops").unwrap_err();
        let io: std::io::Error = e.into();
        assert_eq!(io.kind(), std::io::ErrorKind::InvalidData);
    }

    /// Characters the string property draws from: plain ASCII, every
    /// character with a short escape, other control characters, and two-,
    /// three- and four-byte UTF-8 (four-byte ones escape as surrogate
    /// pairs).
    const POOL: &[char] = &[
        'a',
        'Z',
        ' ',
        '"',
        '\\',
        '/',
        '\u{08}',
        '\u{0C}',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1F}',
        '\u{7F}',
        'é',
        'ß',
        '€',
        '\u{FFFD}',
        '\u{FFFF}',
        '😀',
        '\u{10000}',
        '\u{10FFFF}',
    ];

    /// `ch` as a `\uXXXX` escape, or two for a surrogate pair.
    fn unicode_escaped(ch: char) -> String {
        let mut units = [0u16; 2];
        ch.encode_utf16(&mut units)
            .iter()
            .map(|unit| format!("\\u{unit:04x}"))
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(512))]
        #[test]
        fn strings_roundtrip_in_every_spelling(
            picks in proptest::collection::vec((0usize..POOL.len(), 0usize..3), 0..40)
        ) {
            let s: String = picks.iter().map(|&(i, _)| POOL[i]).collect();
            proptest::prop_assert_eq!(from_str::<String>(&to_string(&s).unwrap()).unwrap(), s.clone());
            // Each character spelled as `to_string` writes it, as `\u`
            // escapes, or with its short escape (`\/` included) and raw
            // otherwise, so escapes and raw runs alternate at random.
            let mut mixed = String::from("\"");
            for &(i, style) in &picks {
                let ch = POOL[i];
                let short = ['"', '\\', '/', '\u{08}', '\u{0C}', '\n', '\r', '\t']
                    .iter()
                    .position(|&c| c == ch);
                match (style, short) {
                    (0, _) => {
                        let quoted = to_string(&ch.to_string()).unwrap();
                        let inner = quoted.strip_prefix('"').and_then(|q| q.strip_suffix('"'));
                        mixed.push_str(inner.unwrap());
                    }
                    (1, _) => mixed.push_str(&unicode_escaped(ch)),
                    (_, Some(k)) => {
                        mixed.push('\\');
                        mixed.push(['"', '\\', '/', 'b', 'f', 'n', 'r', 't'][k]);
                    }
                    (_, None) => mixed.push(ch),
                }
            }
            mixed.push('"');
            proptest::prop_assert_eq!(from_str::<String>(&mixed).unwrap(), s);
        }
    }

    #[test]
    fn bad_escapes_and_lone_surrogates_keep_their_error_text() {
        let cases = [
            (r#""\x""#, "invalid escape at byte 2"),
            (r#""a\"#, "invalid escape at byte 3"),
            (r#""é\q""#, "invalid escape at byte 4"),
            (r#""\ud800""#, "lone surrogate at byte 7"),
            (r#""\ud800x""#, "lone surrogate at byte 7"),
            (r#""\udc00""#, "invalid unicode escape at byte 7"),
            (r#""\u12""#, "truncated unicode escape at byte 3"),
            (r#""\u12g4""#, "invalid unicode escape at byte 3"),
            (r#""\ud800\u12""#, "truncated unicode escape at byte 9"),
            (r#""abc"#, "unterminated string at byte 4"),
            // A high surrogate pairs only with a low one: any other
            // second escape would combine into an unrelated character.
            (r#""\ud800\u0041""#, "invalid unicode escape at byte 13"),
            (r#""\ud800\ue000""#, "invalid unicode escape at byte 13"),
        ];
        for (text, message) in cases {
            let err = from_str::<String>(text).unwrap_err();
            assert_eq!(err.to_string(), message, "{text}");
        }
        assert_eq!(
            from_str::<String>(r#""\udbff\udfff""#).unwrap(),
            "\u{10FFFF}"
        );
    }

    #[test]
    fn mebibyte_strings_parse() {
        for s in ["x".repeat(1 << 20), "ab€\n".repeat(1 << 18)] {
            assert!(s.len() >= 1 << 20);
            assert_eq!(from_str::<String>(&to_string(&s).unwrap()).unwrap(), s);
        }
    }

    #[test]
    fn raw_members_are_exact_spans() {
        let doc = r#" {"id": 1, "model" : { "a" : [1, 2.50, -0.0, 15e-1], "b": "\u0041" } ,
                      "x": {"y": 1}, "model": "m.json"} "#;
        let Document::Object(members) = from_str_keeping_raw(doc, "model", &[]).unwrap() else {
            panic!("an object document")
        };
        let raw = r#"{ "a" : [1, 2.50, -0.0, 15e-1], "b": "\u0041" }"#;
        assert_eq!(members[1], ("model".to_string(), Member::Raw(raw)));
        assert_eq!(members[2].1, Member::Value(json!({"y": 1})));
        assert_eq!(members[3].1, Member::Value(json!("m.json")));
        // The raw text reads back as the value `from_str` builds in its place.
        let full: Value = from_str(doc).unwrap();
        assert_eq!(from_str::<Value>(raw).unwrap(), full["model"]);
    }

    #[test]
    fn known_texts_are_stepped_over_with_the_check_s_result() {
        let model = r#"{"a":[1,2.50,-0.0,{"b":"\u0041"}],"c":null}"#;
        let docs = [
            format!(r#"{{"id":1,"model":{model},"x":2}}"#),
            format!(r#"{{"model":{model}x}}"#),
            format!(r#"{{"model":{model} ,"model":{model}}}"#),
            format!(r#"{{"model":{model}{model}}}"#),
            format!(r#"{{"model":{model}"#),
            format!(r#"{{"model":{}}}"#, model.strip_suffix('}').unwrap()),
            format!(r#"{{"model":{}}}"#, model.replace("2.50", "2.5e")),
        ];
        let spaced = format!(" {model}\n");
        let knowns: [&[&str]; 4] = [&[model], &[&spaced], &["{}", model], &["", "{", "}"]];
        for doc in &docs {
            for known in knowns {
                assert_eq!(
                    from_str_keeping_raw(doc, "model", known),
                    from_str_keeping_raw(doc, "model", &[]),
                    "{doc} knowing {known:?}"
                );
            }
        }
    }

    #[test]
    fn a_known_object_span_is_not_checked_again() {
        // A known text is trusted to pass the check, so a text it would
        // reject shows that the check did not run; surrounding whitespace
        // makes a text no object span, and it is never stepped over.
        let bad = r#"{"a":1e}"#;
        let doc = format!(r#"{{"model":{bad}}}"#);
        assert!(from_str_keeping_raw(&doc, "model", &[]).is_err());
        let Document::Object(members) = from_str_keeping_raw(&doc, "model", &[bad]).unwrap() else {
            panic!("an object document")
        };
        assert_eq!(members, vec![("model".to_string(), Member::Raw(bad))]);
        let spaced = format!("{bad} ");
        assert!(from_str_keeping_raw(&doc, "model", &[&spaced]).is_err());
    }

    #[test]
    fn only_top_level_objects_stay_raw() {
        assert_eq!(
            from_str_keeping_raw(" [1] ", "model", &[]).unwrap(),
            Document::Other(json!([1]))
        );
        let doc = r#"{"model":[1],"inner":{"model":{}}}"#;
        let Document::Object(members) = from_str_keeping_raw(doc, "model", &[]).unwrap() else {
            panic!("an object document")
        };
        assert_eq!(members[0].1, Member::Value(json!([1])));
        assert_eq!(members[1].1, Member::Value(json!({"model": {}})));
    }

    #[test]
    fn keeping_raw_rejects_exactly_what_from_str_rejects() {
        let docs = [
            "",
            "{",
            "{}",
            r#"{"model":{}}"#,
            r#"{"model":{"a":{"b":{"c":[true,false,null]}}}}"#,
            r#"{"model":{"a":01,"b":1.,"c":1e400}}"#,
            r#"{"model":{"a":1e}}"#,
            r#"{"model":{"a":-}}"#,
            r#"{"model":{"a":"x}}"#,
            r#"{"model":{"a":[1,]}}"#,
            r#"{"model":{"a":[1 2]}}"#,
            r#"{"model":{"a":1,}}"#,
            r#"{"model":{"a" 1}}"#,
            r#"{"model":{1:2}}"#,
            r#"{"model":{"a":nul}}"#,
            r#"{"model":{"a":"\x"}}"#,
            r#"{"model":{"a":"\ud800"}}"#,
            r#"{"model":{"a":1}"#,
            r#"{"model":{"a":1}}}"#,
            r#"{"model":{"a":1}} x"#,
            r#"{"model" {"a":1}}"#,
            r#"{"id":1,"model":{"a":1},"property":"p"#,
            r#"{"id":[1,],"model":{"a":1}}"#,
        ];
        for doc in docs {
            assert_eq!(
                from_str_keeping_raw(doc, "model", &[]).err(),
                from_str::<Value>(doc).err(),
                "{doc}"
            );
        }
    }
}
