//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in order:
//!
//! ```text
//! → {"id":1,"method":"run_spillbound","query":"4D_Q91","qa":[0.01,0.1,0.001,0.5]}
//! ← {"id":1,"ok":true,"result":{"algorithm":"spillbound","total_cost":...,...}}
//! → {"id":2,"method":"stats"}
//! ← {"id":2,"ok":true,"result":{"uptime_secs":...,"methods":{...}}}
//! ```
//!
//! Errors come back as `{"id":...,"ok":false,"error":{"kind":...,
//! "message":...}}`; the `kind` values are stable strings
//! (`bad_request`, `unknown_method`, `unknown_query`, `unknown_object`,
//! `overloaded`, `deadline_exceeded`, `execution_fault`, `timeout`,
//! `shutting_down`,
//! `internal`). Successful `run_*` responses carry a `degraded` boolean:
//! `true` marks a circuit-breaker fallback answered by the native
//! baseline instead of the requested algorithm.

use serde::Value;

/// A parsed request line.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Value,
    /// `explain`, `list_queries`, `stats`, `health`, `shutdown`, or the
    /// `run_<name>` method of a strategy in the table
    /// ([`rqp_core::Strategy::method`]).
    pub method: String,
    /// Target query template name (required by `explain` / `run_*`).
    pub query: Option<String>,
    /// Injected "actual" selectivities, one per error-prone predicate.
    pub qa: Vec<f64>,
    /// Per-request deadline in milliseconds, measured from the instant
    /// the server read the *first byte* of this request off the socket; a
    /// request whose deadline expires before execution starts is rejected
    /// instead of executed.
    pub deadline_ms: Option<u64>,
    /// Optional tenant label for per-tenant admission quotas; requests
    /// without one share the anonymous tenant.
    pub tenant: Option<String>,
    /// Debug-only artificial handler delay (honored only when the server
    /// was configured with `allow_debug_sleep`; used by load tests).
    pub sleep_ms: u64,
}

/// Parses one request line. Returns `(error_kind, message)` on failure.
pub fn parse_request(line: &str) -> Result<Request, (String, String)> {
    let bad = |m: String| ("bad_request".to_string(), m);
    let v: Value = serde_json::from_str(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    if v.as_object().is_none() {
        return Err(bad("request must be a JSON object".into()));
    }
    let method = match v.get("method") {
        Some(Value::String(s)) => s.clone(),
        Some(_) => return Err(bad("`method` must be a string".into())),
        None => return Err(bad("missing `method`".into())),
    };
    let query = match v.get("query") {
        Some(Value::String(s)) => Some(s.clone()),
        Some(Value::Null) | None => None,
        Some(_) => return Err(bad("`query` must be a string".into())),
    };
    let qa = match v.get("qa") {
        Some(Value::Array(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item.as_f64() {
                    Some(s) if s > 0.0 && s <= 1.0 => out.push(s),
                    Some(s) => return Err(bad(format!("selectivity {s} outside (0, 1]"))),
                    None => return Err(bad("`qa` must be an array of numbers".into())),
                }
            }
            out
        }
        Some(Value::Null) | None => Vec::new(),
        Some(_) => return Err(bad("`qa` must be an array of numbers".into())),
    };
    let deadline_ms = match v.get("deadline_ms") {
        Some(Value::Num(n)) if *n >= 0.0 => Some(*n as u64),
        Some(Value::Null) | None => None,
        Some(_) => return Err(bad("`deadline_ms` must be a non-negative number".into())),
    };
    let tenant = match v.get("tenant") {
        Some(Value::String(s)) => Some(s.clone()),
        Some(Value::Null) | None => None,
        Some(_) => return Err(bad("`tenant` must be a string".into())),
    };
    let sleep_ms = match v.get("sleep_ms") {
        Some(Value::Num(n)) if *n >= 0.0 => *n as u64,
        _ => 0,
    };
    let id = v.get("id").cloned().unwrap_or(Value::Null);
    Ok(Request {
        id,
        method,
        query,
        qa,
        deadline_ms,
        tenant,
        sleep_ms,
    })
}

/// Builds a success response line (no trailing newline).
pub fn ok_response(id: &Value, result: Value) -> String {
    let v = Value::Object(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Value::Bool(true)),
        ("result".into(), result),
    ]);
    serde_json::to_string(&v).expect("response serializes")
}

/// Builds a success response line from an already-serialized `result`
/// body (no trailing newline). Byte-identical to
/// [`ok_response`]`(id, result)` when `raw_result` is the
/// `serde_json::to_string` rendering of the same `result` value — the
/// invariant the explain fast path relies on to keep cached responses
/// byte-deterministic. Asserted by the `raw_matches_value_path` test.
pub fn ok_response_raw(id: &Value, raw_result: &str) -> String {
    let id_json = serde_json::to_string(id).expect("id serializes");
    let mut out = String::with_capacity(id_json.len() + raw_result.len() + 32);
    out.push_str("{\"id\":");
    out.push_str(&id_json);
    out.push_str(",\"ok\":true,\"result\":");
    out.push_str(raw_result);
    out.push('}');
    out
}

/// Builds an error response line (no trailing newline).
pub fn err_response(id: &Value, kind: &str, message: &str) -> String {
    let v = Value::Object(vec![
        ("id".into(), id.clone()),
        ("ok".into(), Value::Bool(false)),
        (
            "error".into(),
            Value::Object(vec![
                ("kind".into(), Value::String(kind.into())),
                ("message".into(), Value::String(message.into())),
            ]),
        ),
    ]);
    serde_json::to_string(&v).expect("response serializes")
}

// ---- Value construction helpers ----------------------------------------

/// Shorthand for a JSON object from key/value pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Shorthand for a JSON number.
pub fn num(n: f64) -> Value {
    Value::Num(n)
}

/// Shorthand for a JSON string.
pub fn string(s: impl Into<String>) -> Value {
    Value::String(s.into())
}

/// Shorthand for a JSON array of numbers.
pub fn num_arr(ns: impl IntoIterator<Item = f64>) -> Value {
    Value::Array(ns.into_iter().map(Value::Num).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_request() {
        let r = parse_request(
            r#"{"id":7,"method":"run_spillbound","query":"q","qa":[0.1,0.2],"deadline_ms":500}"#,
        )
        .unwrap();
        assert_eq!(r.method, "run_spillbound");
        assert_eq!(r.query.as_deref(), Some("q"));
        assert_eq!(r.qa, vec![0.1, 0.2]);
        assert_eq!(r.deadline_ms, Some(500));
        assert_eq!(r.id, Value::Num(7.0));
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
        assert!(parse_request(r#"{"id":1}"#).is_err());
        assert!(parse_request(r#"{"method":"run","qa":[2.0]}"#).is_err());
        assert!(parse_request(r#"{"method":"run","qa":"x"}"#).is_err());
    }

    #[test]
    fn parses_tenant() {
        let r = parse_request(r#"{"id":1,"method":"stats","tenant":"acme"}"#).unwrap();
        assert_eq!(r.tenant.as_deref(), Some("acme"));
        assert!(parse_request(r#"{"method":"stats","tenant":7}"#).is_err());
    }

    #[test]
    fn raw_matches_value_path() {
        let result = obj(vec![
            ("algorithm", string("spillbound")),
            ("total_cost", num(12.5)),
            ("steps", num_arr([1.0, 2.0, 3.0])),
        ]);
        let rendered = serde_json::to_string(&result).unwrap();
        for id in [Value::Num(3.0), Value::String("abc".into()), Value::Null] {
            assert_eq!(
                ok_response(&id, result.clone()),
                ok_response_raw(&id, &rendered)
            );
        }
    }

    #[test]
    fn responses_echo_id() {
        let ok = ok_response(&Value::Num(3.0), obj(vec![("x", num(1.0))]));
        assert!(ok.contains(r#""id":3"#) && ok.contains(r#""ok":true"#));
        let err = err_response(&Value::String("abc".into()), "overloaded", "queue full");
        assert!(err.contains(r#""id":"abc""#) && err.contains(r#""kind":"overloaded""#));
    }
}
