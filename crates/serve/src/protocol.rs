//! The JSONL request/response protocol of the daemon.
//!
//! Every request is one JSON object per line; every response is one JSON
//! object per line. Responses always echo the request's `id` (or `null`
//! when the request was too malformed to carry one) and carry either an
//! `ok: true` + `result` pair or an `ok: false` + `error` pair — a request
//! can *never* take the daemon down.
//!
//! Requests:
//!
//! ```json
//! {"id": 1, "cmd": "plan", "scenario": {…}, "algo": "ccsa", "sharing": "equal"}
//! {"id": 2, "cmd": "replay", "scenario_path": "s.json", "seed": 1, "noshow": 0.5}
//! {"id": 3, "cmd": "lifetime", "scenario_path": "s.json", "rounds": 5, "policy": "ccsga"}
//! {"id": 4, "cmd": "online_step", "scenario_path": "s.json", "pending": [0, 3, 7]}
//! {"id": 5, "cmd": "ping"}
//! {"cmd": "shutdown"}
//! ```
//!
//! `online_step` is the daemon-side ingest path of the online mode: one
//! stateless re-plan over the listed pending device ids (see
//! `ccs_core::online`), answering the residual schedule with members
//! mapped back to original ids.
//!
//! `scenario` carries the scenario inline (the `ccs gen` JSON); the
//! `scenario_path` alternative reads it from a file on the daemon's
//! filesystem.
//!
//! # `deadline_ms` semantics
//!
//! Any queued request may set `deadline_ms`, a positive integer (`>= 1`)
//! budget in milliseconds measured from admission. Omitting the field (or
//! sending JSON `null`) means "no deadline"; an *explicit* `0` is a
//! `bad_request` — zero could only mean "already expired", and silently
//! reading it as "no deadline" would invert the client's intent. The
//! deadline is enforced twice: work still queued when it expires is
//! cancelled with an `expired` error instead of occupying a worker, and a
//! solve that finishes *after* the deadline is answered `expired` as well
//! (counted in the `expired` stat) rather than as a stale success.
//!
//! Responses are rendered from a `BTreeMap`-backed JSON tree, so field
//! order is canonical and a given request's success response is
//! byte-stable across runs — the protocol golden tests rely on this.

use crate::obs::render_value;
use serde::value::Value;

/// Structured failure of one request. The daemon maps *every* failure —
/// parse errors, invalid fields, planner failures, worker panics,
/// backpressure — onto one of these, writes it as the response, and keeps
/// serving.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    /// Stable machine-readable category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

/// Machine-readable error categories of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line is not valid JSON, not an object, or a field has
    /// the wrong type/value.
    BadRequest,
    /// The admission queue is at capacity (backpressure) or the daemon is
    /// draining; retry later or slow down.
    Rejected,
    /// The request's `deadline_ms` passed before a worker picked it up.
    Expired,
    /// The planner/testbed reported a domain failure (e.g. the exact
    /// solver's budget was exceeded, or a schedule failed validation).
    Failed,
    /// A worker panicked while handling the request; the panic was caught
    /// at the service boundary and the daemon kept serving.
    Internal,
}

impl ErrorKind {
    /// The wire name of the category.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Rejected => "rejected",
            ErrorKind::Expired => "expired",
            ErrorKind::Failed => "failed",
            ErrorKind::Internal => "internal",
        }
    }
}

impl ServeError {
    /// A `bad_request` error.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ServeError {
            kind: ErrorKind::BadRequest,
            message: message.into(),
        }
    }

    /// A `failed` (domain) error.
    pub fn failed(message: impl Into<String>) -> Self {
        ServeError {
            kind: ErrorKind::Failed,
            message: message.into(),
        }
    }

    /// A `rejected` (backpressure) error.
    pub fn rejected(message: impl Into<String>) -> Self {
        ServeError {
            kind: ErrorKind::Rejected,
            message: message.into(),
        }
    }

    /// An `expired` (deadline) error.
    pub fn expired(message: impl Into<String>) -> Self {
        ServeError {
            kind: ErrorKind::Expired,
            message: message.into(),
        }
    }

    /// An `internal` (caught panic) error.
    pub fn internal(message: impl Into<String>) -> Self {
        ServeError {
            kind: ErrorKind::Internal,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind.name(), self.message)
    }
}

impl std::error::Error for ServeError {}

/// The response object of one request: its echoed `id` plus `ok: true`
/// and `result`, or `ok: false` and `error` (`kind`, `message`). Batch
/// items and single responses share this one shape.
pub fn response_value(id: &Value, outcome: Result<Value, ServeError>) -> Value {
    let (ok, key, payload) = match outcome {
        Ok(result) => (true, "result", result),
        Err(error) => (
            false,
            "error",
            object([
                ("kind", Value::String(error.kind.name().to_string())),
                ("message", Value::String(error.message)),
            ]),
        ),
    };
    object([("id", id.clone()), ("ok", Value::Bool(ok)), (key, payload)])
}

/// Renders a success response line (no trailing newline).
pub fn ok_response(id: &Value, result: Value) -> String {
    render_value(&response_value(id, Ok(result)))
}

/// Renders an error response line (no trailing newline).
pub fn err_response(id: &Value, error: &ServeError) -> String {
    render_value(&response_value(id, Err(error.clone())))
}

/// A JSON object from `(key, value)` pairs (keys end up sorted, so the
/// rendering is canonical).
pub fn object<'a>(pairs: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Field-access helpers over the parsed request object. Missing fields
/// yield the documented default; present fields of the wrong type are a
/// `bad_request`, never a panic.
pub mod fields {
    use super::ServeError;
    use serde::value::{Number, Value};

    /// A string field, or `default` when absent.
    pub fn str_or<'a>(body: &'a Value, key: &str, default: &'a str) -> Result<&'a str, ServeError> {
        match body.field(key) {
            Value::Null => Ok(default),
            Value::String(s) => Ok(s),
            other => Err(ServeError::bad_request(format!(
                "field '{key}' must be a string, got {}",
                other.kind()
            ))),
        }
    }

    /// A non-negative integer field, or `default` when absent.
    pub fn u64_or(body: &Value, key: &str, default: u64) -> Result<u64, ServeError> {
        match body.field(key) {
            Value::Null => Ok(default),
            Value::Number(Number::PosInt(u)) => Ok(*u),
            other => Err(ServeError::bad_request(format!(
                "field '{key}' must be a non-negative integer, got {}",
                other.kind()
            ))),
        }
    }

    /// A finite number field, or `default` when absent.
    pub fn f64_or(body: &Value, key: &str, default: f64) -> Result<f64, ServeError> {
        match body.field(key) {
            Value::Null => Ok(default),
            Value::Number(n) => {
                let v = n.as_f64();
                if v.is_finite() {
                    Ok(v)
                } else {
                    Err(ServeError::bad_request(format!(
                        "field '{key}' must be finite"
                    )))
                }
            }
            other => Err(ServeError::bad_request(format!(
                "field '{key}' must be a number, got {}",
                other.kind()
            ))),
        }
    }

    /// A boolean field, or `default` when absent.
    pub fn bool_or(body: &Value, key: &str, default: bool) -> Result<bool, ServeError> {
        match body.field(key) {
            Value::Null => Ok(default),
            Value::Bool(b) => Ok(*b),
            other => Err(ServeError::bad_request(format!(
                "field '{key}' must be a boolean, got {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responses_are_canonical_single_lines() {
        let ok = ok_response(
            &Value::Number(serde_json::Number::PosInt(1)),
            Value::Bool(true),
        );
        assert_eq!(ok, r#"{"id":1,"ok":true,"result":true}"#);
        let err = err_response(&Value::Null, &ServeError::bad_request("nope"));
        assert_eq!(
            err,
            r#"{"error":{"kind":"bad_request","message":"nope"},"id":null,"ok":false}"#
        );
        assert!(!ok.contains('\n') && !err.contains('\n'));
    }

    #[test]
    fn field_helpers_default_and_reject() {
        let body: Value = serde_json::from_str(r#"{"seed": 7, "algo": "opt", "x": []}"#).unwrap();
        assert_eq!(fields::u64_or(&body, "seed", 0).unwrap(), 7);
        assert_eq!(fields::u64_or(&body, "rounds", 20).unwrap(), 20);
        assert_eq!(fields::str_or(&body, "algo", "ccsa").unwrap(), "opt");
        assert_eq!(fields::str_or(&body, "sharing", "equal").unwrap(), "equal");
        assert!(fields::u64_or(&body, "algo", 0).is_err());
        assert!(fields::f64_or(&body, "x", 0.0).is_err());
        assert!(fields::bool_or(&body, "x", true).is_err());
        assert_eq!(fields::f64_or(&body, "seed", 0.0).unwrap(), 7.0);
        assert!(fields::bool_or(&body, "degrade", true).unwrap());
    }

    #[test]
    fn negative_u64_is_rejected() {
        let body: Value = serde_json::from_str(r#"{"seed": -3}"#).unwrap();
        assert!(fields::u64_or(&body, "seed", 0).is_err());
    }
}
