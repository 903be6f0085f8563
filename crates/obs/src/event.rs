//! Typed trace events.
//!
//! Events carry only *logical* execution state — contour indices, plan
//! fingerprints, budgets, learnt selectivities. No wall-clock timestamps,
//! thread ids, or pointers ever enter an event, so two runs of the same
//! discovery at any thread count serialize to bit-identical JSONL streams.

use std::fmt::Write as _;

/// One structured observation from the discovery/execution pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A discovery algorithm started at a query location.
    RunStarted {
        algo: &'static str,
        dims: usize,
        contours: usize,
    },
    /// The climb moved onto iso-cost contour `contour` with per-execution
    /// budget `budget`.
    ContourEntered { contour: usize, budget: f64 },
    /// One oracle execution (spill probe or full run) finished.
    PlanExecuted {
        contour: usize,
        plan_fingerprint: u64,
        plan_id: Option<usize>,
        /// `"spill"` or `"full"`.
        mode: &'static str,
        /// Probed dimension for spill-mode executions.
        dim: Option<usize>,
        budget: f64,
        spent: f64,
        /// `"completed"` or `"timed_out"`.
        outcome: &'static str,
    },
    /// Cumulative cost account after an execution was charged.
    BudgetCharged {
        contour: usize,
        spent: f64,
        total: f64,
    },
    /// A spill probe resolved the selectivity of dimension `dim`.
    SelectivityLearnt { dim: usize, sel: f64 },
    /// A discovery algorithm finished.
    RunFinished {
        total_cost: f64,
        executions: usize,
        completed: bool,
    },
    /// One step of crash recovery completed (journal replay, artifact
    /// quarantine scan, cache pre-warm, …). `count` is the number of
    /// items the step touched.
    RecoveryStep { stage: &'static str, count: u64 },
    /// One candidate plan's risk was integrated over the selectivity
    /// prior during a penalty-aware selection.
    RiskEvaluated {
        plan_fingerprint: u64,
        plan_id: Option<usize>,
        /// Expected sub-optimality under the prior.
        expected: f64,
        /// CVaR of the sub-optimality at the configured alpha.
        cvar: f64,
    },
}

impl TraceEvent {
    /// Stable schema name for this event, used by the `rqp trace --check`
    /// validator and by downstream consumers.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStarted { .. } => "run_started",
            TraceEvent::ContourEntered { .. } => "contour_entered",
            TraceEvent::PlanExecuted { .. } => "plan_executed",
            TraceEvent::BudgetCharged { .. } => "budget_charged",
            TraceEvent::SelectivityLearnt { .. } => "selectivity_learnt",
            TraceEvent::RunFinished { .. } => "run_finished",
            TraceEvent::RecoveryStep { .. } => "recovery_step",
            TraceEvent::RiskEvaluated { .. } => "risk_evaluated",
        }
    }

    /// Every schema name `kind()` can produce, for trace validation.
    pub const KINDS: &'static [&'static str] = &[
        "run_started",
        "contour_entered",
        "plan_executed",
        "budget_charged",
        "selectivity_learnt",
        "run_finished",
        "recovery_step",
        "risk_evaluated",
    ];
}

/// A trace event stamped with its monotonic per-tracer step counter.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    pub step: u64,
    pub event: TraceEvent,
}

/// Render an `f64` the same way the workspace JSON serializer does:
/// integral values below 2^53 print as integers, everything else uses
/// Rust's shortest round-trip formatting. This keeps JSONL sinks
/// bit-comparable with in-memory ring sinks after a serialize cycle.
fn push_f64(out: &mut String, n: f64) {
    if !n.is_finite() {
        out.push_str("null");
    } else if n == n.trunc() && n.abs() < 9.007_199_254_740_992e15 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn push_opt_usize(out: &mut String, v: Option<usize>) {
    match v {
        Some(v) => {
            let _ = write!(out, "{v}");
        }
        None => out.push_str("null"),
    }
}

impl TraceRecord {
    /// Serialize as one JSON object (no trailing newline). Field order is
    /// fixed so equal records always produce equal strings.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        let _ = write!(
            s,
            "{{\"step\":{},\"kind\":\"{}\"",
            self.step,
            self.event.kind()
        );
        match &self.event {
            TraceEvent::RunStarted {
                algo,
                dims,
                contours,
            } => {
                let _ = write!(
                    s,
                    ",\"algo\":\"{algo}\",\"dims\":{dims},\"contours\":{contours}"
                );
            }
            TraceEvent::ContourEntered { contour, budget } => {
                let _ = write!(s, ",\"contour\":{contour},\"budget\":");
                push_f64(&mut s, *budget);
            }
            TraceEvent::PlanExecuted {
                contour,
                plan_fingerprint,
                plan_id,
                mode,
                dim,
                budget,
                spent,
                outcome,
            } => {
                let _ = write!(
                    s,
                    ",\"contour\":{contour},\"plan_fingerprint\":{plan_fingerprint},\"plan_id\":"
                );
                push_opt_usize(&mut s, *plan_id);
                let _ = write!(s, ",\"mode\":\"{mode}\",\"dim\":");
                push_opt_usize(&mut s, *dim);
                s.push_str(",\"budget\":");
                push_f64(&mut s, *budget);
                s.push_str(",\"spent\":");
                push_f64(&mut s, *spent);
                let _ = write!(s, ",\"outcome\":\"{outcome}\"");
            }
            TraceEvent::BudgetCharged {
                contour,
                spent,
                total,
            } => {
                let _ = write!(s, ",\"contour\":{contour},\"spent\":");
                push_f64(&mut s, *spent);
                s.push_str(",\"total\":");
                push_f64(&mut s, *total);
            }
            TraceEvent::SelectivityLearnt { dim, sel } => {
                let _ = write!(s, ",\"dim\":{dim},\"sel\":");
                push_f64(&mut s, *sel);
            }
            TraceEvent::RunFinished {
                total_cost,
                executions,
                completed,
            } => {
                s.push_str(",\"total_cost\":");
                push_f64(&mut s, *total_cost);
                let _ = write!(s, ",\"executions\":{executions},\"completed\":{completed}");
            }
            TraceEvent::RecoveryStep { stage, count } => {
                let _ = write!(s, ",\"stage\":\"{stage}\",\"count\":{count}");
            }
            TraceEvent::RiskEvaluated {
                plan_fingerprint,
                plan_id,
                expected,
                cvar,
            } => {
                let _ = write!(s, ",\"plan_fingerprint\":{plan_fingerprint},\"plan_id\":");
                push_opt_usize(&mut s, *plan_id);
                s.push_str(",\"expected\":");
                push_f64(&mut s, *expected);
                s.push_str(",\"cvar\":");
                push_f64(&mut s, *cvar);
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_are_stable_and_typed() {
        let rec = TraceRecord {
            step: 3,
            event: TraceEvent::PlanExecuted {
                contour: 1,
                plan_fingerprint: 42,
                plan_id: Some(7),
                mode: "spill",
                dim: Some(0),
                budget: 128.5,
                spent: 64.25,
                outcome: "timed_out",
            },
        };
        assert_eq!(
            rec.to_json_line(),
            "{\"step\":3,\"kind\":\"plan_executed\",\"contour\":1,\"plan_fingerprint\":42,\
             \"plan_id\":7,\"mode\":\"spill\",\"dim\":0,\"budget\":128.5,\"spent\":64.25,\
             \"outcome\":\"timed_out\"}"
        );
        assert!(TraceEvent::KINDS.contains(&rec.event.kind()));
    }

    #[test]
    fn integral_floats_render_as_integers() {
        let rec = TraceRecord {
            step: 0,
            event: TraceEvent::ContourEntered {
                contour: 0,
                budget: 1024.0,
            },
        };
        assert_eq!(
            rec.to_json_line(),
            "{\"step\":0,\"kind\":\"contour_entered\",\"contour\":0,\"budget\":1024}"
        );
    }
}
