//! The execution driver: budgeted full runs and spill-mode runs.
//!
//! Both engines run through [`Context::run_full`] and
//! [`Context::run_spill`], so the protocol around an operator tree is
//! stated once: the injected-fault threshold, the budget trip that times
//! a run out with `spent = budget` and its output discarded, the final
//! [`Meter::check`] that decides completion from the metered total alone,
//! and the spill sink that takes a spill-mode run's discarded output.

use crate::meter::{ExecError, Meter};
use crate::plan::Node;
use rqp_catalog::Catalog;
use rqp_common::{Cost, Result, RqpError};
use rqp_faults::{FaultPlan, FaultSite};
use rqp_optimizer::{CostParams, PlanNode, QuerySpec};
use rqp_storage::{SpillSink, TableStore};
use std::sync::Arc;

/// The execution interface plan drivers program against: implemented by
/// [`crate::Engine`] and by the test-only [`crate::reference::Executor`],
/// whose metering is bit-identical.
pub trait PlanEngine {
    /// Executes `plan` under `budget`, draining and counting the result.
    fn run_full(&self, plan: &PlanNode, budget: Cost) -> Result<ExecOutcome>;

    /// Executes the subtree of `plan` rooted at predicate `pred`'s node in
    /// spill mode: its output is counted and discarded (§3.1.2).
    fn run_spill(&self, plan: &PlanNode, pred: usize, budget: Cost) -> Result<SpillRun>;
}

/// Result of a regular budgeted execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecOutcome {
    /// True if the plan ran to completion within budget.
    pub completed: bool,
    /// Result rows produced (0 on timeout — partial results discarded).
    pub rows_out: u64,
    /// Metered cost (≤ budget).
    pub spent: Cost,
}

/// Tuple counts observed at the spilled node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeObservation {
    /// The spilled node is a join.
    Join {
        /// Outer-side input cardinality.
        left_rows: u64,
        /// Inner-side input cardinality.
        right_rows: u64,
        /// Output cardinality.
        out_rows: u64,
    },
    /// The spilled node is a filtering scan.
    Scan {
        /// Raw input rows.
        in_rows: u64,
        /// Post-filter rows.
        out_rows: u64,
    },
}

impl NodeObservation {
    /// The observed *combined* selectivity of the node's predicates.
    pub fn combined_selectivity(&self) -> f64 {
        match *self {
            NodeObservation::Join {
                left_rows,
                right_rows,
                out_rows,
            } => {
                if left_rows == 0 || right_rows == 0 {
                    0.0
                } else {
                    out_rows as f64 / (left_rows as f64 * right_rows as f64)
                }
            }
            NodeObservation::Scan { in_rows, out_rows } => {
                if in_rows == 0 {
                    0.0
                } else {
                    out_rows as f64 / in_rows as f64
                }
            }
        }
    }
}

/// Result of a spill-mode budgeted execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpillRun {
    /// True if the spilled subtree drained completely within budget.
    pub completed: bool,
    /// Metered cost (≤ budget).
    pub spent: Cost,
    /// Counts at the spilled node (populated on completion).
    pub observation: Option<NodeObservation>,
}

/// The root of an operator tree, as the driver pulls it.
pub(crate) trait Pull {
    /// Pulls the next chunk of output, appending its rows to `sink` if one
    /// is given. Returns the chunk's row count, or `None` at end of stream.
    fn pull(
        &mut self,
        sink: Option<&mut (dyn SpillSink + '_)>,
    ) -> std::result::Result<Option<u64>, ExecError>;

    /// Tuple counts at the root so far (selectivity monitoring).
    fn observation(&self) -> NodeObservation;
}

/// What a run executes against: the catalog and query a plan refers to,
/// a storage backend, the cost model's parameters, and an optional
/// fault-injection plan.
#[derive(Debug)]
pub(crate) struct Context<'a> {
    pub(crate) catalog: &'a Catalog,
    pub(crate) query: &'a QuerySpec,
    pub(crate) store: &'a dyn TableStore,
    pub(crate) params: CostParams,
    pub(crate) faults: Option<Arc<FaultPlan>>,
}

impl<'a> Context<'a> {
    pub(crate) fn new(
        catalog: &'a Catalog,
        query: &'a QuerySpec,
        store: &'a dyn TableStore,
        params: CostParams,
    ) -> Self {
        Self {
            catalog,
            query,
            store,
            params,
            faults: None,
        }
    }

    /// Metered-cost threshold at which this call aborts, if the fault
    /// plan scheduled an injection for it. Unbudgeted runs abort
    /// immediately (threshold 0): a fault does not wait for spending.
    fn fault_abort_at(&self, site: FaultSite, budget: Cost) -> Option<Cost> {
        let shot = self.faults.as_ref()?.shot(site)?;
        Some(if budget.is_finite() {
            budget * shot.frac
        } else {
            0.0
        })
    }

    /// Lowers `plan`, builds its operator tree with `build`, and drains it
    /// under `budget`.
    pub(crate) fn run_full<P: Pull>(
        &self,
        plan: &PlanNode,
        budget: Cost,
        build: impl FnOnce(Node<'a>) -> P,
    ) -> Result<ExecOutcome> {
        let abort_at = self.fault_abort_at(FaultSite::ExecFull, budget);
        let meter = Meter::new(budget);
        let mut root = build(self.lower(plan, &meter)?);
        Ok(
            match drain(&mut root, &meter, FaultSite::ExecFull, abort_at, None)? {
                Some(rows_out) => ExecOutcome {
                    completed: true,
                    rows_out,
                    spent: meter.spent().min(budget),
                },
                None => ExecOutcome {
                    completed: false,
                    rows_out: 0,
                    spent: budget,
                },
            },
        )
    }

    /// Lowers the subtree of `plan` applying `pred`, builds it with
    /// `build`, and drains it under `budget` in spill mode.
    pub(crate) fn run_spill<P: Pull>(
        &self,
        plan: &PlanNode,
        pred: usize,
        budget: Cost,
        build: impl FnOnce(Node<'a>) -> P,
    ) -> Result<SpillRun> {
        let subtree = plan
            .subtree_applying(pred)
            .ok_or_else(|| RqpError::Execution(format!("plan does not apply predicate {pred}")))?;
        let abort_at = self.fault_abort_at(FaultSite::ExecSpill, budget);
        let meter = Meter::new(budget);
        let mut root = build(self.lower(subtree, &meter)?);
        // Paged backends write the discarded output through real spill
        // files (via the shared buffer pool), so budgeted execution
        // competes with its own scans for frames. Metering is
        // unaffected: spill I/O costs frames, not abstract cost units.
        let mut sink = self.store.spill_sink();
        Ok(
            match drain(
                &mut root,
                &meter,
                FaultSite::ExecSpill,
                abort_at,
                sink.as_deref_mut(),
            )? {
                Some(_) => SpillRun {
                    completed: true,
                    spent: meter.spent().min(budget),
                    observation: Some(root.observation()),
                },
                None => SpillRun {
                    completed: false,
                    spent: budget,
                    observation: None,
                },
            },
        )
    }
}

/// Drains `root` to the end of its stream: `Some(rows)` if the run
/// completed within budget, `None` if the budget tripped.
fn drain(
    root: &mut impl Pull,
    meter: &Meter,
    site: FaultSite,
    abort_at: Option<Cost>,
    mut sink: Option<&mut (dyn SpillSink + '_)>,
) -> Result<Option<u64>> {
    let mut rows = 0;
    loop {
        if abort_at.is_some_and(|at| meter.spent() >= at) {
            return Err(ExecError::Injected(site.name().into()).into());
        }
        match root.pull(sink.as_deref_mut()) {
            Ok(Some(n)) => rows += n,
            Ok(None) => {
                if let Some(s) = sink {
                    s.finish().map_err(ExecError::from)?;
                }
                // Intermediate ledger checks are quantized; the final
                // check decides completion from the total alone.
                return Ok(meter.check().is_ok().then_some(rows));
            }
            Err(ExecError::BudgetExceeded) => return Ok(None),
            Err(e) => return Err(e.into()),
        }
    }
}
