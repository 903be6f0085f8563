//! Executable bound accounting.
//!
//! The MSO theorems are proved by accounting arguments over the discovery
//! sequence: budgets grow geometrically across contours (so the total is a
//! constant factor of the last budget), each contour runs at most `D`
//! fresh spill executions (Lemma 4.4), repeat executions are bounded by
//! `D(D−1)/2` in total, and the terminal 1D phase runs one plan per
//! contour. This module re-checks those structural facts on *actual* run
//! reports — a bridge between the proofs and the implementation that the
//! integration suite applies to every run it produces.

use crate::report::{ExecMode, Outcome, RunReport};
use rqp_common::{Result, RqpError};

/// Structural facts extracted from a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Accounting {
    /// Spill executions per contour index.
    pub spills_per_contour: Vec<usize>,
    /// Full (bouquet/terminal) executions per contour index.
    pub fulls_per_contour: Vec<usize>,
    /// Total number of executions that completed (must be exactly the
    /// learning events plus the final query completion).
    pub completions: usize,
    /// Sum of assigned budgets (the quantity the proofs bound).
    pub budget_sum: f64,
}

/// Extracts accounting facts from a report.
pub fn account(report: &RunReport) -> Accounting {
    let ncontours = report
        .records
        .iter()
        .map(|r| r.contour + 1)
        .max()
        .unwrap_or(0);
    let mut spills = vec![0usize; ncontours];
    let mut fulls = vec![0usize; ncontours];
    let mut completions = 0;
    let mut budget_sum = 0.0;
    for r in &report.records {
        match r.mode {
            ExecMode::Spill { .. } => spills[r.contour] += 1,
            ExecMode::Full => fulls[r.contour] += 1,
        }
        if matches!(r.outcome, Outcome::Completed { .. }) {
            completions += 1;
        }
        budget_sum += r.budget;
    }
    Accounting {
        spills_per_contour: spills,
        fulls_per_contour: fulls,
        completions,
        budget_sum,
    }
}

/// Verifies a SpillBound run against the structure of Theorem 4.5's proof.
///
/// Checks:
/// * **monotone budgets** along the discovery sequence;
/// * **per-contour spill cap**: at most `D + (D−1)` spill executions on a
///   contour (D fresh, plus a repeat per learning event — learning events
///   are globally ≤ D−1 before the 1D phase);
/// * **global spill cap**: at most `D·m + D(D−1)/2` spill executions in
///   total (fresh per contour + bounded repeats);
/// * **completions**: exactly (learnt dimensions + 1 final completion);
/// * at most one completed full execution, and it is the last record.
pub fn verify_spillbound_run(report: &RunReport, d: usize) -> Result<()> {
    if !report.completed {
        return Err(RqpError::Discovery("run did not complete".into()));
    }
    let acc = account(report);
    // budgets monotone
    for w in report.records.windows(2) {
        if w[1].budget < w[0].budget * (1.0 - 1e-9) {
            return Err(RqpError::Discovery(format!(
                "budgets not monotone: {} then {}",
                w[0].budget, w[1].budget
            )));
        }
    }
    // per-contour spill cap
    for (i, &s) in acc.spills_per_contour.iter().enumerate() {
        if s > d + d.saturating_sub(1) {
            return Err(RqpError::Discovery(format!(
                "contour {i}: {s} spill executions exceeds D + (D-1) = {}",
                d + d - 1
            )));
        }
    }
    // global spill cap
    let m = acc.spills_per_contour.len();
    let total_spills: usize = acc.spills_per_contour.iter().sum();
    let cap = d * m + d * d.saturating_sub(1) / 2;
    if total_spills > cap {
        return Err(RqpError::Discovery(format!(
            "{total_spills} spill executions exceeds Dm + D(D-1)/2 = {cap}"
        )));
    }
    // completions = learnt + final
    let learnt = report.learnt.iter().flatten().count();
    if acc.completions != learnt + 1 {
        return Err(RqpError::Discovery(format!(
            "{} completions vs {} learnt dims + 1 final",
            acc.completions, learnt
        )));
    }
    // the last record is the completing full execution
    match report.records.last() {
        Some(last)
            if last.mode == ExecMode::Full && matches!(last.outcome, Outcome::Completed { .. }) => {
        }
        _ => {
            return Err(RqpError::Discovery(
                "run must end with a completed full execution".into(),
            ))
        }
    }
    // exactly one completed full execution
    let full_completions = report
        .records
        .iter()
        .filter(|r| r.mode == ExecMode::Full && matches!(r.outcome, Outcome::Completed { .. }))
        .count();
    if full_completions != 1 {
        return Err(RqpError::Discovery(format!(
            "{full_completions} completed full executions (expected 1)"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CostOracle;
    use crate::spillbound::SpillBound;
    use crate::test_fixtures::{star2_surface, star_surface};

    #[test]
    fn every_spillbound_run_satisfies_the_accounting() {
        let fx = star2_surface(12);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        for qa in fx.surface.grid().iter() {
            let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
            let report = sb.run(&mut oracle).unwrap();
            verify_spillbound_run(&report, 2)
                .unwrap_or_else(|e| panic!("qa {:?}: {e}", fx.surface.grid().coords(qa)));
        }
    }

    #[test]
    fn accounting_3d() {
        let fx = star_surface(3, 6);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        for qa in fx.surface.grid().iter() {
            let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
            let report = sb.run(&mut oracle).unwrap();
            verify_spillbound_run(&report, 3).unwrap();
        }
    }

    #[test]
    fn rejects_malformed_reports() {
        use crate::report::{ExecutionRecord, RunReport};
        // empty / incomplete report
        let empty = RunReport::default();
        assert!(verify_spillbound_run(&empty, 2).is_err());
        // decreasing budgets
        let rec = |contour: usize, budget: f64, mode, outcome| ExecutionRecord {
            contour,
            plan_fingerprint: 0,
            plan_id: None,
            mode,
            budget,
            spent: budget,
            outcome,
        };
        let bad = RunReport {
            records: vec![
                rec(
                    0,
                    10.0,
                    ExecMode::Spill { dim: 0 },
                    Outcome::TimedOut { lower_bound: 0.0 },
                ),
                rec(1, 5.0, ExecMode::Full, Outcome::Completed { sel: None }),
            ],
            total_cost: 15.0,
            completed: true,
            learnt: vec![None, None],
        };
        assert!(verify_spillbound_run(&bad, 2).is_err());
    }
}
