//! `benchmark compare A.json B.json`: holds result file B (the change)
//! against A (the parent), one row per workload and end-to-end metric,
//! with the bounds `spec::END_TO_END` fixes. Layer metrics are printed
//! beside them as context and never gated.

use crate::spec::{EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::median;
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Within the bound, and the runs of both sides repeat within it.
    Unchanged,
    /// Better by more than the bound.
    Improved,
    /// The medians are within the bound but the run-to-run spread is not,
    /// so the runs cannot tell.
    Unresolved,
    /// Worse by more than the bound.
    Regressed,
}

/// Run-to-run spread of one side, as a share of its median: the whole
/// range, because a result file holds a handful of runs.
fn spread(runs: &[f64]) -> f64 {
    let (lo, hi) = runs
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
    let mid = median(&mut runs.to_vec());
    if runs.len() < 2 || mid == 0.0 {
        0.0
    } else {
        (hi - lo) / mid.abs()
    }
}

/// Judges the change's runs `b` of metric `m` against the parent's `a`.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (median(&mut a.to_vec()), median(&mut b.to_vec()));
    // Positive when the change is worse, as a share of the parent.
    let sign = if m.lower_is_better { 1.0 } else { -1.0 };
    let worse = if ma == 0.0 {
        sign * (mb - ma)
    } else {
        sign * (mb - ma) / ma.abs()
    };
    let b_beats_a = a.iter().all(|x| b.iter().all(|y| sign * (y - x) < 0.0));
    if worse > m.bound {
        Verdict::Regressed
    } else if spread(a).max(spread(b)) > m.bound && !b_beats_a {
        Verdict::Unresolved
    } else if worse < -m.bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn runs_of(file: &Value, workload: &str, metric: &str) -> Vec<f64> {
    let entry = file
        .get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("end_to_end"))
        .and_then(|e| e.get(metric));
    match entry.and_then(|e| e.get("runs")) {
        Some(Value::Array(runs)) => runs.iter().filter_map(Value::as_f64).collect(),
        _ => Vec::new(),
    }
}

fn field(file: &Value, workload: &str, path: &[&str]) -> Option<f64> {
    let mut v = file.get("workloads")?.get(workload)?;
    for key in path {
        v = v.get(key)?;
    }
    v.as_f64()
}

/// Prints the comparison and returns whether B holds against A: no
/// regressed metric, no metric missing from B, no rise in the share of
/// failed ops.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut holds = true;
    for side in [a, b] {
        if matches!(side.get("comparable"), Some(Value::Bool(false))) {
            println!("note: one side is a --quick run; its timings are not comparable");
        }
    }
    for workload in WORKLOADS {
        println!("== {workload}");
        for m in &END_TO_END {
            let (ra, rb) = (runs_of(a, workload, m.name), runs_of(b, workload, m.name));
            if ra.is_empty() || rb.is_empty() {
                println!(
                    "{:<14} missing from {}",
                    m.name,
                    if ra.is_empty() { "A" } else { "B" }
                );
                holds = false;
                continue;
            }
            let verdict = judge(m, &ra, &rb);
            holds &= verdict != Verdict::Regressed;
            let (ma, mb) = (median(&mut ra.clone()), median(&mut rb.clone()));
            println!(
                "{:<14} {ma:>14.4} -> {mb:>14.4} {:<6} {:>+7.2}%  bound {:>4.0}%  spread A {:.1}% B {:.1}%  {verdict:?}",
                m.name,
                m.unit,
                if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() * 100.0 },
                m.bound * 100.0,
                spread(&ra) * 100.0,
                spread(&rb) * 100.0,
            );
        }
        let failed_frac = |f: &Value| {
            let attempted = field(f, workload, &["attempted"]).unwrap_or(0.0);
            let failed = field(f, workload, &["failed"]).unwrap_or(attempted);
            if attempted > 0.0 {
                failed / attempted
            } else {
                1.0
            }
        };
        let (fa, fb) = (failed_frac(a), failed_frac(b));
        let rose = fb > fa;
        holds &= !rose;
        println!(
            "{:<14} {fa:>14.6} -> {fb:>14.6} ratio   {}",
            "failed_frac",
            if rose { "Regressed" } else { "Unchanged" }
        );
        for (layer, unit) in PER_LAYER {
            let path = ["per_layer", layer, "value"];
            if let (Some(va), Some(vb)) = (field(a, workload, &path), field(b, workload, &path)) {
                if va != 0.0 || vb != 0.0 {
                    println!("  {layer:<30} {va:>14.4} -> {vb:>14.4} {unit}");
                }
            }
        }
    }
    println!(
        "{}",
        if holds {
            "compare: OK"
        } else {
            "compare: REGRESSION"
        }
    );
    holds
}
