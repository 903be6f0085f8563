//! Executor-backed execution oracle for wall-clock experiments (§6.3).
//!
//! Where [`rqp_core::CostOracle`] decides budgeted executions analytically,
//! [`ExecOracle`] actually runs them on the batch [`Engine`] over
//! materialized synthetic data, with real cost metering, real spilled
//! subtrees, and selectivities observed from tuple counts. Wall-clock
//! durations are recorded per execution, which is how the paper's Table 3
//! drill-down is regenerated.

use rqp_common::{cost_le, Cost, MultiGrid, Result, RqpError, Selectivity, EPS};
use rqp_core::oracle::spill_lower_bound;
use rqp_core::{ExecutionOracle, FullOutcome, SpillOutcome};
use rqp_executor::{Engine, NodeObservation, PlanEngine};
use rqp_faults::RetryPolicy;
use rqp_optimizer::{Optimizer, PlanId, PlanNode, PredicateKind, Sels};
use std::time::{Duration, Instant};

/// An [`ExecutionOracle`] backed by real plan executions.
///
/// Generic over the [`PlanEngine`] driving the runs, so tests can
/// substitute the row-at-a-time `rqp_executor::reference::Executor`; the
/// engines are metering-bit-compatible, so the choice affects wall-clock
/// time but never a discovery report.
pub struct ExecOracle<'a, E = Engine<'a>> {
    executor: E,
    opt: &'a Optimizer<'a>,
    grid: &'a MultiGrid,
    /// Best current knowledge of every predicate's selectivity: base
    /// estimates, overwritten by exactly-learnt values. Used to divide
    /// residual predicates out of combined node observations and to invert
    /// subtree costs on timeouts.
    known: Sels,
    /// Transient faults absorbed by retries.
    pub retries: u64,
    /// Wall-clock duration of each oracle call, in call order (aligned
    /// with the discovery report's execution records).
    pub timings: Vec<Duration>,
}

impl<'a, E: PlanEngine> ExecOracle<'a, E> {
    /// Creates the oracle.
    pub fn new(executor: E, opt: &'a Optimizer<'a>, grid: &'a MultiGrid) -> Self {
        Self {
            executor,
            opt,
            grid,
            known: opt.base_sels().clone(),
            retries: 0,
            timings: Vec::new(),
        }
    }

    /// Total wall-clock time across all oracle calls.
    pub fn total_time(&self) -> Duration {
        self.timings.iter().sum()
    }

    /// Runs `call` retrying injected-fault errors with the default capped
    /// exponential backoff; other errors and final exhaustion propagate.
    fn retry_faults<T>(&mut self, mut call: impl FnMut(&mut E) -> Result<T>) -> Result<T> {
        let retry = RetryPolicy::default();
        let attempts = retry.max_attempts.max(1);
        let mut last = None;
        for attempt in 0..attempts {
            match call(&mut self.executor) {
                Ok(v) => return Ok(v),
                Err(e @ RqpError::Fault(_)) => {
                    last = Some(e);
                    if attempt + 1 < attempts {
                        self.retries += 1;
                        retry.pause(attempt);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.expect("loop runs at least once"))
    }

    /// Product of the *other* predicates applied at the node carrying
    /// `pred` (their selectivities are known — either non-epp or already
    /// learnt — by the spill ordering invariant).
    fn residual_product(&self, plan: &PlanNode, pred: usize) -> f64 {
        let node = plan
            .subtree_applying(pred)
            .expect("spilled plan applies the predicate");
        let preds: Vec<usize> = match node {
            PlanNode::Scan { filters, .. } => filters.clone(),
            PlanNode::Join { preds, .. } => preds.clone(),
        };
        preds
            .into_iter()
            .filter(|&p| p != pred)
            .map(|p| self.known.get(p))
            .product()
    }
}

impl<E: PlanEngine> ExecutionOracle for ExecOracle<'_, E> {
    fn try_spill_execute_id(
        &mut self,
        _pid: Option<PlanId>,
        plan: &PlanNode,
        dim: usize,
        budget: Cost,
    ) -> Result<SpillOutcome> {
        let start = Instant::now();
        let pred = self.opt.query().epps[dim];
        let run = self.retry_faults(|ex| ex.run_spill(plan, pred, budget))?;
        let outcome = if run.completed {
            let obs = run.observation.expect("completed spill has counts");
            let combined = obs.combined_selectivity();
            let residual = self.residual_product(plan, pred);
            let sel: Selectivity = match obs {
                NodeObservation::Join { .. } | NodeObservation::Scan { .. } => {
                    (combined / residual.max(EPS)).clamp(EPS, 1.0)
                }
            };
            self.known.set(pred, sel);
            SpillOutcome::Completed {
                sel,
                spent: run.spent,
            }
        } else {
            // Invert the modeled subtree cost at current knowledge: the
            // largest grid selectivity whose modeled cost fits the budget.
            // (The paper's engine infers the same bound from its calibrated
            // cost model.)
            let (model, g) = (self.opt.cost_model(), self.grid.dim(dim));
            let mut probe = self.known.clone();
            let lower_bound = spill_lower_bound(g, |k| {
                probe.set(pred, g.sel(k));
                (model.spill_subtree_estimate(plan, pred, &probe))
                    .is_some_and(|e| cost_le(e.cost, budget))
            });
            SpillOutcome::TimedOut {
                lower_bound,
                spent: run.spent,
            }
        };
        self.timings.push(start.elapsed());
        Ok(outcome)
    }

    fn try_full_execute_id(
        &mut self,
        _pid: Option<PlanId>,
        plan: &PlanNode,
        budget: Cost,
    ) -> Result<FullOutcome> {
        let start = Instant::now();
        let out = self.retry_faults(|ex| ex.run_full(plan, budget))?;
        self.timings.push(start.elapsed());
        Ok(if out.completed {
            FullOutcome::Completed { spent: out.spent }
        } else {
            FullOutcome::TimedOut { spent: out.spent }
        })
    }
}

/// Measures the true epp selectivities of `query` in a materialized
/// dataset — the ground-truth `qa` of a wall-clock experiment.
///
/// Works over any [`rqp_executor::TableStore`] backend; both the
/// in-memory and the paged store compute these bit-identically, so a
/// wall-clock experiment's ground truth is backend-independent.
pub fn measure_qa(
    store: &dyn rqp_executor::TableStore,
    query: &rqp_optimizer::QuerySpec,
) -> Vec<Selectivity> {
    query
        .epps
        .iter()
        .map(|&p| match query.predicates[p].kind {
            PredicateKind::Join {
                left,
                left_col,
                right,
                right_col,
            } => store
                .true_join_selectivity(
                    (query.relations[left], left_col),
                    (query.relations[right], right_col),
                )
                .unwrap_or(EPS)
                .max(EPS),
            PredicateKind::FilterLe { rel, col, value } => store
                .true_le_selectivity(query.relations[rel], col, value)
                .unwrap_or(EPS)
                .max(EPS),
            PredicateKind::FilterEq { .. } => {
                unimplemented!("equality-filter epps not used by the workloads")
            }
        })
        .collect()
}
