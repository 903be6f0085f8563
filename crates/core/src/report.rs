//! Discovery run reports.

use rqp_common::{Cost, Selectivity};
use serde::{Deserialize, Serialize};

/// How a plan was executed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Spill-mode on the given ESS dimension (§3.1.2) — output discarded,
    /// budget devoted to learning that epp's selectivity.
    Spill {
        /// Spilled dimension.
        dim: usize,
    },
    /// Regular execution producing query results if it completes.
    Full,
}

/// Outcome of one budgeted execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The (sub)plan finished within budget. For spill-mode this means the
    /// epp's exact selectivity was learnt; for full mode, the query is done.
    Completed {
        /// Learnt selectivity (spill-mode only; `None` for full mode).
        sel: Option<Selectivity>,
    },
    /// Budget exhausted; for spill-mode we learnt `qa.dim > lower_bound`.
    TimedOut {
        /// Half-space pruning frontier for the spilled dimension (0 when no
        /// information was gained).
        lower_bound: Selectivity,
    },
}

/// One budgeted execution in a discovery sequence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionRecord {
    /// Contour index (0-based) this execution belongs to.
    pub contour: usize,
    /// Stable plan fingerprint (for matching across runs).
    pub plan_fingerprint: u64,
    /// Pool plan id, when the executed plan is a POSP plan.
    pub plan_id: Option<usize>,
    /// Execution mode.
    pub mode: ExecMode,
    /// Assigned cost budget.
    pub budget: Cost,
    /// Cost actually spent (= budget on timeout; ≤ budget on completion).
    pub spent: Cost,
    /// What happened.
    pub outcome: Outcome,
}

/// The full trace of one discovery run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Executions in order.
    pub records: Vec<ExecutionRecord>,
    /// Total cost spent (the numerator of Eq. 3).
    pub total_cost: Cost,
    /// Whether the query produced its result (always true on success).
    pub completed: bool,
    /// Final learnt selectivities per dimension (`None` = learnt only as a
    /// lower bound when the run completed through the 1D phase).
    pub learnt: Vec<Option<Selectivity>>,
}

impl RunReport {
    /// Number of plan executions (partial + final).
    pub fn executions(&self) -> usize {
        self.records.len()
    }

    /// The sub-optimality of this run w.r.t. an oracle that knows `qa`
    /// (Eq. 3): `total_cost / opt_cost`.
    pub fn sub_optimality(&self, opt_cost: Cost) -> f64 {
        assert!(opt_cost > 0.0);
        self.total_cost / opt_cost
    }

    /// Contour index of the last execution (how deep discovery went).
    pub fn last_contour(&self) -> Option<usize> {
        self.records.last().map(|r| r.contour)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_accessors() {
        let rep = RunReport {
            records: vec![
                ExecutionRecord {
                    contour: 0,
                    plan_fingerprint: 1,
                    plan_id: Some(0),
                    mode: ExecMode::Spill { dim: 0 },
                    budget: 10.0,
                    spent: 10.0,
                    outcome: Outcome::TimedOut { lower_bound: 0.1 },
                },
                ExecutionRecord {
                    contour: 1,
                    plan_fingerprint: 2,
                    plan_id: None,
                    mode: ExecMode::Full,
                    budget: 20.0,
                    spent: 15.0,
                    outcome: Outcome::Completed { sel: None },
                },
            ],
            total_cost: 25.0,
            completed: true,
            learnt: vec![None],
        };
        assert_eq!(rep.executions(), 2);
        assert_eq!(rep.last_contour(), Some(1));
        assert!((rep.sub_optimality(5.0) - 5.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn subopt_rejects_zero_opt_cost() {
        RunReport::default().sub_optimality(0.0);
    }
}
