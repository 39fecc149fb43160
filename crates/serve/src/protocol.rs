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
//! Line-delimited JSON wire protocol: strict request parsing and
//! deterministic response rendering.
//!
//! One request per line, one response line per request. Parsing is
//! strict — unknown fields, wrong types, and out-of-domain numbers are
//! structured errors, never panics and never silent defaults — because
//! the peer is untrusted and a typo'd field name silently ignored would
//! change what was verified.
//!
//! Each line is read once. An inline `model` object, which makes up
//! nearly all of a request's bytes, is checked by the same grammar as the
//! rest of the line but not built: [`ModelRef::Inline`] carries its exact
//! text, which the model cache compares byte for byte before it parses
//! anything (see [`crate::model_cache`]). A line is accepted or rejected,
//! with the same message, exactly when a full parse of it would be.
//!
//! Responses are built as insertion-ordered [`Value::Object`]s with a
//! fixed field order, so the byte stream is identical across thread
//! counts and machines.

use serde_json::{Document, Member, Number, Value};

/// How a request names its model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelRef {
    /// The network JSON inlined in the request: the exact text of the
    /// `model` object as the client sent it.
    Inline(String),
    /// A file name resolved against the server's model directory.
    Named(String),
}

/// A parsed `verify` request.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyRequest {
    /// Echoed request id (`null` when absent).
    pub id: Value,
    /// The model to verify.
    pub model: ModelRef,
    /// VNN-LIB property text.
    pub property: String,
    /// Optional ε override joining the query to a monotone family.
    pub epsilon: Option<f64>,
    /// Optional explicit perturbation center (requires `epsilon`).
    pub center: Option<Vec<f64>>,
    /// Optional per-query call budget.
    pub calls: Option<usize>,
    /// Re-audit stored certificates before serving them.
    pub audit: bool,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run (or serve from the store) one verification query.
    Verify(Box<VerifyRequest>),
    /// Report server counters.
    Stats {
        /// Echoed request id.
        id: Value,
    },
}

/// Builds an insertion-ordered JSON object. The compat `json!` macro
/// only accepts single-token-tree values, so responses with computed
/// fields go through this instead.
#[must_use]
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A float as a JSON number value.
#[must_use]
pub fn num(v: f64) -> Value {
    Value::Number(Number::Float(v))
}

/// A usize as a JSON integer value.
#[must_use]
pub fn uint(v: usize) -> Value {
    Value::Number(Number::PosInt(v as u64))
}

/// A float slice as a JSON array.
#[must_use]
pub fn float_array(xs: &[f64]) -> Value {
    Value::Array(xs.iter().map(|&x| num(x)).collect())
}

/// Renders the uniform error response line (without trailing newline).
#[must_use]
#[expect(
    clippy::expect_used,
    reason = "in-memory Value trees serialise infallibly: no I/O and no foreign Serialize impls"
)]
pub fn error_line(id: &Value, message: &str) -> String {
    serde_json::to_string(&obj(vec![
        ("id", id.clone()),
        ("status", Value::String("error".into())),
        ("error", Value::String(message.into())),
    ]))
    .expect("value tree serialises")
}

/// Extracts the request id from a line that may not parse fully, so
/// error responses can still echo it. Falls back to `null`.
#[must_use]
pub fn best_effort_id(line: &str) -> Value {
    match serde_json::from_str::<Value>(line) {
        Ok(v) => v.get("id").cloned().map_or(Value::Null, validate_id_lossy),
        Err(_) => Value::Null,
    }
}

fn validate_id_lossy(v: Value) -> Value {
    match v {
        Value::Null | Value::Number(_) | Value::String(_) => v,
        _ => Value::Null,
    }
}

fn finite_number(v: &Value, field: &str) -> Result<f64, String> {
    match v {
        Value::Number(n) => {
            let f = n.as_f64();
            if f.is_finite() {
                Ok(f)
            } else {
                Err(format!("field '{field}' must be finite"))
            }
        }
        other => Err(format!(
            "field '{field}' must be a number, got {}",
            other.type_name()
        )),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// A client-facing message describing the first problem found: invalid
/// JSON, non-object top level, unknown/duplicate/missing fields, wrong
/// types, or out-of-domain values.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let document = serde_json::from_str_keeping_raw(line, "model")
        .map_err(|e| format!("invalid JSON: {e}"))?;
    request_from_document(document)
}

/// Validates a read request line field by field. An object under
/// `model` arrives as its raw text and becomes [`ModelRef::Inline`].
pub(crate) fn request_from_document(document: Document<'_>) -> Result<Request, String> {
    let members = match document {
        Document::Object(members) => members,
        Document::Other(value) => {
            return Err(format!(
                "request must be a JSON object, got {}",
                value.type_name()
            ))
        }
    };

    let mut id = Value::Null;
    let mut cmd: Option<String> = None;
    let mut model: Option<ModelRef> = None;
    let mut property: Option<String> = None;
    let mut epsilon: Option<f64> = None;
    let mut center: Option<Vec<f64>> = None;
    let mut calls: Option<usize> = None;
    let mut audit = false;
    let mut seen: Vec<String> = Vec::new();

    for (key, member) in members {
        if seen.contains(&key) {
            return Err(format!("duplicate field '{key}'"));
        }
        let val = match member {
            Member::Value(val) => val,
            Member::Raw(text) => {
                // Only an object under `model` is kept raw.
                model = Some(ModelRef::Inline(text.to_owned()));
                seen.push(key);
                continue;
            }
        };
        match key.as_str() {
            "id" => match val {
                Value::Null | Value::Number(_) | Value::String(_) => id = val,
                other => {
                    return Err(format!(
                        "field 'id' must be a number, string, or null, got {}",
                        other.type_name()
                    ))
                }
            },
            "cmd" => match val {
                Value::String(s) => cmd = Some(s),
                other => {
                    return Err(format!(
                        "field 'cmd' must be a string, got {}",
                        other.type_name()
                    ))
                }
            },
            "model" => match val {
                Value::String(name) => {
                    if name.is_empty() {
                        return Err("field 'model' must not be empty".into());
                    }
                    model = Some(ModelRef::Named(name));
                }
                other => {
                    return Err(format!(
                        "field 'model' must be an object (inline network) or string \
                         (model name), got {}",
                        other.type_name()
                    ))
                }
            },
            "property" => match val {
                Value::String(s) => property = Some(s),
                other => {
                    return Err(format!(
                        "field 'property' must be a string, got {}",
                        other.type_name()
                    ))
                }
            },
            "epsilon" => {
                let f = finite_number(&val, "epsilon")?;
                if f <= 0.0 {
                    return Err(format!("field 'epsilon' must be positive, got {f}"));
                }
                epsilon = Some(f);
            }
            "center" => match val {
                Value::Array(items) => {
                    let mut xs = Vec::with_capacity(items.len());
                    for item in &items {
                        xs.push(finite_number(item, "center")?);
                    }
                    center = Some(xs);
                }
                other => {
                    return Err(format!(
                        "field 'center' must be an array of numbers, got {}",
                        other.type_name()
                    ))
                }
            },
            "calls" => match val {
                Value::Number(n) => match n.as_u64() {
                    Some(c) => calls = Some(c as usize),
                    None => return Err("field 'calls' must be a non-negative integer".to_string()),
                },
                other => {
                    return Err(format!(
                        "field 'calls' must be a non-negative integer, got {}",
                        other.type_name()
                    ))
                }
            },
            "audit" => match val {
                Value::Bool(b) => audit = b,
                other => {
                    return Err(format!(
                        "field 'audit' must be a boolean, got {}",
                        other.type_name()
                    ))
                }
            },
            unknown => return Err(format!("unknown field '{unknown}'")),
        }
        seen.push(key);
    }

    match cmd.as_deref() {
        Some("verify") => {
            let model = model.ok_or("missing field 'model'")?;
            let property = property.ok_or("missing field 'property'")?;
            if center.is_some() && epsilon.is_none() {
                return Err("field 'center' requires field 'epsilon'".into());
            }
            Ok(Request::Verify(Box::new(VerifyRequest {
                id,
                model,
                property,
                epsilon,
                center,
                calls,
                audit,
            })))
        }
        Some("stats") => {
            if model.is_some()
                || property.is_some()
                || epsilon.is_some()
                || center.is_some()
                || calls.is_some()
            {
                return Err("'stats' takes no query fields".into());
            }
            Ok(Request::Stats { id })
        }
        Some(other) => Err(format!("unknown cmd '{other}' (expected verify or stats)")),
        None => Err("missing field 'cmd'".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_verify_parses() {
        let req = parse_request(r#"{"cmd":"verify","model":"m.json","property":"(p)"}"#).unwrap();
        let Request::Verify(v) = req else {
            panic!("expected verify")
        };
        assert_eq!(v.id, Value::Null);
        assert_eq!(v.model, ModelRef::Named("m.json".into()));
        assert_eq!(v.property, "(p)");
        assert!(v.epsilon.is_none() && v.center.is_none() && v.calls.is_none());
        assert!(!v.audit);
    }

    #[test]
    fn full_verify_parses() {
        let line = r#"{"id":7,"cmd":"verify","model":{"a":1},"property":"(p)",
                       "epsilon":0.1,"center":[0.5,0.5],"calls":100,"audit":true}"#
            .replace('\n', " ");
        let Request::Verify(v) = parse_request(&line).unwrap() else {
            panic!("expected verify")
        };
        assert!(matches!(v.model, ModelRef::Inline(_)));
        assert_eq!(v.epsilon, Some(0.1));
        assert_eq!(v.center.as_deref(), Some(&[0.5, 0.5][..]));
        assert_eq!(v.calls, Some(100));
        assert!(v.audit);
    }

    #[test]
    fn malformed_requests_are_structured_errors() {
        let cases: &[&str] = &[
            "{not json",
            "[1,2]",
            r#"{"cmd":"verify"}"#,
            r#"{"cmd":"verify","model":"m","property":"(p)","bogus":1}"#,
            r#"{"cmd":"verify","model":"m","property":"(p)","epsilon":-0.5}"#,
            r#"{"cmd":"verify","model":"m","property":"(p)","epsilon":"big"}"#,
            r#"{"cmd":"verify","model":"m","property":"(p)","center":[0.5]}"#,
            r#"{"cmd":"verify","model":"m","property":"(p)","calls":-1}"#,
            r#"{"cmd":"verify","model":"m","property":"(p)","calls":1.5}"#,
            r#"{"cmd":"verify","model":"m","property":"(p)","id":[1]}"#,
            r#"{"cmd":"verify","model":true,"property":"(p)"}"#,
            r#"{"cmd":"verify","model":"","property":"(p)"}"#,
            r#"{"cmd":"launch","model":"m","property":"(p)"}"#,
            r#"{"cmd":"stats","model":"m"}"#,
            r#"{"cmd":"verify","cmd":"verify","model":"m","property":"(p)"}"#,
            r#"{"model":"m","property":"(p)"}"#,
        ];
        for line in cases {
            assert!(parse_request(line).is_err(), "should reject: {line}");
        }
    }

    #[test]
    fn error_line_echoes_the_id() {
        let id = best_effort_id(r#"{"id":"q-1","cmd":"nope","x":}"#);
        // Invalid JSON overall → null id.
        assert_eq!(id, Value::Null);
        let id = best_effort_id(r#"{"id":"q-1","cmd":"nope"}"#);
        assert_eq!(id, Value::String("q-1".into()));
        assert_eq!(
            error_line(&id, "boom"),
            r#"{"id":"q-1","status":"error","error":"boom"}"#
        );
    }

    #[test]
    fn stats_request_parses() {
        assert_eq!(
            parse_request(r#"{"id":1,"cmd":"stats"}"#).unwrap(),
            Request::Stats {
                id: Value::Number(Number::PosInt(1))
            }
        );
    }
}
