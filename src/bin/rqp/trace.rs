//! `rqp trace --check FILE`: validates a JSONL trace, as `rqp run
//! --jsonl FILE` or `RQP_TRACE=jsonl:FILE` writes it, against the event
//! schema.

use crate::{fail, flag_value, usage};
use rqp::obs::TraceEvent;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Every line must parse as a JSON object with a monotonically increasing
/// integer `step` and a known `kind`; exits 1 naming the first line that
/// does not.
pub fn check(args: &[String]) -> ExitCode {
    let Some(path) = flag_value(args, "--check") else {
        return usage();
    };
    let data = (std::fs::read_to_string(&path))
        .unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    let mut last_step: Option<f64> = None;
    let mut kinds: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (i, line) in data.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let bad = |what: String| -> ! { fail(&format!("{path}:{}: {what}", i + 1)) };
        let value: serde::Value =
            serde_json::from_str(line).unwrap_or_else(|e| bad(format!("invalid JSON: {e}")));
        let Some(step) = value.get("step").and_then(|s| s.as_f64()) else {
            bad("missing numeric `step`".into());
        };
        if step.fract() != 0.0 || step < 0.0 {
            bad(format!(
                "`step` must be a non-negative integer (got {step})"
            ));
        }
        if let Some(prev) = last_step.filter(|prev| step <= *prev) {
            bad(format!(
                "`step` {step} is not greater than the previous {prev}"
            ));
        }
        last_step = Some(step);
        let Some(kind) = value
            .get("kind")
            .and_then(|k| k.as_str().map(str::to_string))
        else {
            bad("missing string `kind`".into());
        };
        let Some(known) = TraceEvent::KINDS.iter().find(|k| **k == kind) else {
            bad(format!("unknown event kind {kind:?}"));
        };
        *kinds.entry(known).or_default() += 1;
    }
    let n: usize = kinds.values().sum();
    if n == 0 {
        fail(&format!("{path}: no events"));
    }
    let breakdown: Vec<String> = kinds.iter().map(|(k, c)| format!("{k}={c}")).collect();
    println!("trace OK: {n} events ({})", breakdown.join(", "));
    ExitCode::SUCCESS
}
