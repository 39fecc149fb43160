//! Offline stand-in for the `serde` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors a small value-tree serialization framework exposing
//! the serde API surface it actually uses: the [`Serialize`] /
//! [`Deserialize`] traits, derive macros (re-exported from the companion
//! `serde_derive` proc-macro crate) supporting named-field structs,
//! externally tagged enums, and the `try_from` / `into` / `skip`
//! attributes, plus impls for the std types the workspace serializes.
//!
//! Instead of serde's zero-copy visitor architecture, everything routes
//! through an owned JSON-shaped [`Value`] tree; the companion
//! `serde_json` crate renders and parses that tree as JSON text. This is
//! slower than real serde but behaviourally equivalent for the formats
//! the workspace persists (model zoo caches, run records, certificates).

pub use serde_derive::{Deserialize, Serialize};

use std::fmt;

/// A JSON-shaped value tree: the interchange format between [`Serialize`]
/// producers and [`Deserialize`] consumers.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON boolean.
    Bool(bool),
    /// JSON number.
    Number(Number),
    /// JSON string.
    String(String),
    /// JSON array.
    Array(Vec<Value>),
    /// JSON object. Insertion order is preserved so serialized output is
    /// deterministic in field declaration order.
    Object(Vec<(String, Value)>),
}

/// A JSON number, kept in its narrowest exact representation so integers
/// round-trip without a float detour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// Non-negative integer.
    PosInt(u64),
    /// Negative integer.
    NegInt(i64),
    /// Floating point.
    Float(f64),
}

impl Number {
    /// The number as `f64` (lossy only beyond 2^53).
    #[must_use]
    pub fn as_f64(self) -> f64 {
        match self {
            Number::PosInt(n) => n as f64,
            Number::NegInt(n) => n as f64,
            Number::Float(f) => f,
        }
    }

    /// The number as `u64` when exactly representable.
    #[must_use]
    pub fn as_u64(self) -> Option<u64> {
        match self {
            Number::PosInt(n) => Some(n),
            Number::NegInt(_) | Number::Float(_) => None,
        }
    }

    /// The number as `i64` when exactly representable.
    #[must_use]
    pub fn as_i64(self) -> Option<i64> {
        match self {
            Number::PosInt(n) => i64::try_from(n).ok(),
            Number::NegInt(n) => Some(n),
            Number::Float(_) => None,
        }
    }
}

impl Value {
    /// Short name of the value's JSON type, for error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Looks up a key in an object value.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Writes `s` as a JSON string literal (with quotes) into `out`.
#[doc(hidden)]
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes a JSON number. Non-finite floats render as `null`, matching the
/// [`Serialize`] impls.
#[doc(hidden)]
pub fn write_json_number(n: Number, out: &mut String) {
    match n {
        Number::PosInt(v) => out.push_str(&v.to_string()),
        Number::NegInt(v) => out.push_str(&v.to_string()),
        Number::Float(f) if f.is_finite() => {
            // Debug formatting is shortest-roundtrip and keeps a `.0` on
            // integral floats (serde_json style), so values parse back
            // bit-exactly — including `-0.0`.
            out.push_str(&format!("{f:?}"));
        }
        Number::Float(_) => out.push_str("null"),
    }
}

impl Value {
    fn write_compact(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_json_number(*n, out),
            Value::String(s) => write_json_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_json_string(k, out);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact JSON rendering, like `serde_json::Value`'s `Display`.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_compact(&mut out);
        f.write_str(&out)
    }
}

static NULL_VALUE: Value = Value::Null;

/// Object lookup; missing keys and non-objects yield `Null`, matching
/// serde_json's indexing semantics.
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key).unwrap_or(&NULL_VALUE)
    }
}

/// Array lookup; out-of-range indexes and non-arrays yield `Null`.
impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, index: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(index).unwrap_or(&NULL_VALUE),
            _ => &NULL_VALUE,
        }
    }
}

/// Mutable object lookup; inserts `Null` for a missing key, panics on a
/// non-object (serde_json behaviour).
impl std::ops::IndexMut<&str> for Value {
    fn index_mut(&mut self, key: &str) -> &mut Value {
        match self {
            Value::Object(entries) => {
                if let Some(pos) = entries.iter().position(|(k, _)| k == key) {
                    &mut entries[pos].1
                } else {
                    entries.push((key.to_string(), Value::Null));
                    &mut entries.last_mut().expect("just pushed").1
                }
            }
            other => panic!("cannot index {} with a string key", other.type_name()),
        }
    }
}

/// Mutable array lookup; panics out of range or on a non-array.
impl std::ops::IndexMut<usize> for Value {
    fn index_mut(&mut self, index: usize) -> &mut Value {
        match self {
            Value::Array(items) => &mut items[index],
            other => panic!("cannot index {} with a usize", other.type_name()),
        }
    }
}

/// A deserialization error: a human-readable message describing where the
/// value tree did not match the target type.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl DeError {
    /// Builds an error from any displayable cause (used by generated
    /// `try_from` conversions).
    pub fn custom<T: fmt::Display>(msg: T) -> Self {
        DeError(msg.to_string())
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

/// Types that can render themselves as a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` to the interchange tree.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self`, validating shape and numeric ranges.
    ///
    /// # Errors
    ///
    /// Returns a [`DeError`] when the tree does not match.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

// ---------------------------------------------------------------------------
// Primitive impls
// ---------------------------------------------------------------------------

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError(format!("expected bool, got {}", other.type_name()))),
        }
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::PosInt(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match v {
                    Value::Number(n) => n.as_u64(),
                    _ => None,
                };
                n.and_then(|n| <$t>::try_from(n).ok()).ok_or_else(|| {
                    DeError(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"),
                        v
                    ))
                })
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let n = *self as i64;
                if n >= 0 {
                    Value::Number(Number::PosInt(n as u64))
                } else {
                    Value::Number(Number::NegInt(n))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = match v {
                    Value::Number(n) => n.as_i64(),
                    _ => None,
                };
                n.and_then(|n| <$t>::try_from(n).ok()).ok_or_else(|| {
                    DeError(format!(
                        concat!("expected ", stringify!($t), ", got {:?}"),
                        v
                    ))
                })
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                // Mirror serde_json: non-finite floats serialize as null.
                let f = f64::from(*self);
                if f.is_finite() {
                    Value::Number(Number::Float(f))
                } else {
                    Value::Null
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                match v {
                    Value::Number(n) => Ok(n.as_f64() as $t),
                    other => Err(DeError(format!(
                        concat!("expected ", stringify!($t), ", got {}"),
                        other.type_name()
                    ))),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            other => Err(DeError(format!(
                "expected string, got {}",
                other.type_name()
            ))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

// ---------------------------------------------------------------------------
// Container impls
// ---------------------------------------------------------------------------

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError(format!(
                "expected array, got {}",
                other.type_name()
            ))),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }

        impl<$($name: Deserialize),+> Deserialize for ($($name,)+) {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                const LEN: usize = [$($idx),+].len();
                match v {
                    Value::Array(items) if items.len() == LEN => {
                        Ok(($($name::from_value(&items[$idx])?,)+))
                    }
                    Value::Array(items) => Err(DeError(format!(
                        "expected {}-tuple, got array of {}",
                        LEN,
                        items.len()
                    ))),
                    other => Err(DeError(format!(
                        "expected tuple array, got {}",
                        other.type_name()
                    ))),
                }
            }
        }
    };
}

impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}

// ---------------------------------------------------------------------------
// Derive support
// ---------------------------------------------------------------------------

/// Helpers referenced by the generated code of the derive macros. Not
/// part of the public API surface of real serde; do not use directly.
pub mod __private {
    use super::{DeError, Deserialize, Value};

    /// Looks up and deserializes one named field of a struct or struct
    /// variant. Unknown extra fields in `v` are ignored (derived types
    /// re-validate through their own invariants where it matters).
    pub fn field<T: Deserialize>(v: &Value, ty: &str, name: &str) -> Result<T, DeError> {
        match v {
            Value::Object(entries) => match entries.iter().find(|(k, _)| k == name) {
                Some((_, fv)) => {
                    T::from_value(fv).map_err(|e| DeError(format!("{ty}.{name}: {e}")))
                }
                None => Err(DeError(format!("missing field `{name}` in {ty}"))),
            },
            other => Err(DeError(format!(
                "expected object for {ty}, got {}",
                other.type_name()
            ))),
        }
    }

    /// Deserializes the payload of a newtype enum variant.
    pub fn variant_payload<T: Deserialize>(v: &Value, ty: &str, tag: &str) -> Result<T, DeError> {
        T::from_value(v).map_err(|e| DeError(format!("{ty}::{tag}: {e}")))
    }

    /// Error for an unrecognized enum tag.
    #[must_use]
    pub fn unknown_variant(ty: &str, tag: &str) -> DeError {
        DeError(format!("unknown variant `{tag}` for {ty}"))
    }

    /// Error for a value that is not a valid externally tagged enum.
    #[must_use]
    pub fn bad_enum(ty: &str, v: &Value) -> DeError {
        DeError(format!(
            "expected externally tagged {ty}, got {}",
            v.type_name()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_exact_integer_forms() {
        assert_eq!(7usize.to_value(), Value::Number(Number::PosInt(7)));
        assert_eq!((-3i64).to_value(), Value::Number(Number::NegInt(-3)));
        let f = 0.125f64.to_value();
        assert_eq!(f, Value::Number(Number::Float(0.125)));
        assert_eq!(f64::NAN.to_value(), Value::Null);
    }

    #[test]
    fn floats_accept_integer_values() {
        let v = Value::Number(Number::PosInt(4));
        assert_eq!(f64::from_value(&v), Ok(4.0));
    }

    #[test]
    fn vec_roundtrip() {
        let v = vec![1.5f64, -2.0, 0.0];
        let tree = v.to_value();
        assert_eq!(Vec::<f64>::from_value(&tree), Ok(v));
    }

    #[test]
    fn out_of_range_integers_are_rejected() {
        let neg = Value::Number(Number::NegInt(-1));
        assert!(usize::from_value(&neg).is_err());
        let big = Value::Number(Number::PosInt(300));
        assert!(u8::from_value(&big).is_err());
    }
}
