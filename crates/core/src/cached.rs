//! Matrix-backed evaluation: shared recost cache plus a caching oracle.
//!
//! An exhaustive MSOe sweep runs a discovery algorithm once per grid
//! location, and every full-mode execution inside those runs recosts a
//! POSP plan at the hidden location — the same `(plan, location)` pair
//! over and over across the sweep. [`EvalContext`] hoists all of that
//! into one [`CostMatrix`] computed up front (optionally with the same
//! scoped-thread fan-out as `EssSurface::build_parallel`), and
//! [`CachedOracle`] answers the oracle protocol from it:
//!
//! * full-mode executions of pool plans are a single matrix lookup;
//! * spill-mode executions replay [`crate::CostOracle`]'s budget logic but
//!   memoize the monotone subtree costs in a [`SpillMemo`] keyed by
//!   `(plan fingerprint, dimension, probe location)` — every probe the
//!   binary search makes lands on an exact grid location, so the memo is
//!   shared across `qa` sweeps (and across algorithms) without any loss
//!   of precision.
//!
//! Both caches store values computed by exactly the code paths
//! [`crate::CostOracle`] uses, so a cached sweep is **bit-equal** to the
//! uncached one; `crate::eval` asserts this.

use crate::oracle::{spill_lower_bound, ExecutionOracle, FullOutcome, SpillOutcome};
use rqp_common::{cost_le, Cost, GridIdx, MultiGrid, Result};
use rqp_ess::EssSurface;
use rqp_optimizer::{CostMatrix, Optimizer, PlanId, PlanNode, Sels};
use std::borrow::Cow;
use std::collections::HashMap;

/// Everything an exhaustive evaluation sweep shares across `qa`
/// locations: the surface, the optimizer, and the plan×location recost
/// matrix (`|POSP| × |grid|` cells), owned or borrowed from its holder.
#[derive(Debug)]
pub struct EvalContext<'a> {
    surface: &'a EssSurface,
    opt: &'a Optimizer<'a>,
    matrix: Cow<'a, CostMatrix>,
}

impl<'a> EvalContext<'a> {
    /// Builds the context, computing the cost matrix sequentially.
    pub fn new(surface: &'a EssSurface, opt: &'a Optimizer<'a>) -> Self {
        Self::with_threads(surface, opt, 1)
    }

    /// Builds the context with the cost matrix computed across `threads`
    /// worker threads (bit-equal to the sequential build).
    pub fn with_threads(surface: &'a EssSurface, opt: &'a Optimizer<'a>, threads: usize) -> Self {
        let matrix = CostMatrix::build_parallel(opt, surface.pool(), surface.grid(), threads);
        Self {
            surface,
            opt,
            matrix: Cow::Owned(matrix),
        }
    }

    /// Builds the context from an already-computed matrix — handed over,
    /// or read in place where a compiled artifact holds it — skipping the
    /// `|POSP| × |grid|` recost sweep entirely. Fails if the matrix shape
    /// does not match the surface's pool and grid.
    pub fn from_parts(
        surface: &'a EssSurface,
        opt: &'a Optimizer<'a>,
        matrix: Cow<'a, CostMatrix>,
    ) -> Result<Self> {
        if !matrix.shape_matches(surface.posp_size(), surface.grid().len()) {
            return Err(rqp_common::RqpError::Config(format!(
                "cost matrix shape {}x{} does not match surface ({} plans, {} locations)",
                matrix.nplans(),
                matrix.grid_len(),
                surface.posp_size(),
                surface.grid().len(),
            )));
        }
        Ok(Self {
            surface,
            opt,
            matrix,
        })
    }

    /// The POSP surface.
    pub fn surface(&self) -> &'a EssSurface {
        self.surface
    }

    /// The optimizer.
    pub fn opt(&self) -> &'a Optimizer<'a> {
        self.opt
    }

    /// The ESS grid.
    pub fn grid(&self) -> &'a MultiGrid {
        self.surface.grid()
    }

    /// The shared plan×location recost matrix.
    pub fn matrix(&self) -> &CostMatrix {
        &self.matrix
    }
}

/// Memo of spill-mode subtree recosts, keyed by
/// `(plan fingerprint, spill dimension, probe grid location)`.
///
/// Fingerprint keys (not pool ids) so AlignedBound's synthesized
/// constrained plans are cached too. One memo serves a whole sweep — or
/// one worker's share of it — because subtree costs are pure functions
/// of the key.
#[derive(Debug, Default)]
pub struct SpillMemo {
    subtree: HashMap<(u64, usize, GridIdx), Cost>,
}

impl SpillMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A cost oracle at a grid location that answers from the shared caches.
///
/// Produces bit-identical outcomes to [`crate::CostOracle`] at the same
/// location: full-mode costs come from the matrix (computed by the same
/// `cost_plan` call), spill-mode decisions replay the same binary search
/// over memoized subtree costs.
#[derive(Debug)]
pub struct CachedOracle<'c, 'a, 'm> {
    ctx: &'c EvalContext<'a>,
    qa_idx: GridIdx,
    qa_coords: Vec<usize>,
    qa: Sels,
    memo: &'m mut SpillMemo,
}

impl<'c, 'a, 'm> CachedOracle<'c, 'a, 'm> {
    /// Creates the oracle for grid location `qa`, borrowing a spill memo
    /// that persists across locations.
    pub fn at_grid(ctx: &'c EvalContext<'a>, qa: GridIdx, memo: &'m mut SpillMemo) -> Self {
        let grid = ctx.grid();
        Self {
            ctx,
            qa_idx: qa,
            qa_coords: grid.coords(qa),
            qa: ctx.opt().sels_at(&grid.sels(qa)),
            memo,
        }
    }

    /// Memoized spill-subtree cost of `plan` on `dim` with the spilled
    /// epp's selectivity moved to grid coordinate `coord` (all other
    /// dimensions stay at `qa`). Probes are exact grid locations, so the
    /// key is the probe's flat index.
    fn subtree_cost(&mut self, fp: u64, plan: &PlanNode, dim: usize, coord: usize) -> Cost {
        let grid = self.ctx.grid();
        let mut coords = self.qa_coords.clone();
        coords[dim] = coord;
        let key = (fp, dim, grid.flat(&coords));
        if let Some(&c) = self.memo.subtree.get(&key) {
            return c;
        }
        let opt = self.ctx.opt();
        let pred = opt.query().epps[dim];
        let mut probe = self.qa.clone();
        probe.set(pred, grid.dim(dim).sel(coord));
        let c = opt
            .cost_model()
            .spill_subtree_estimate(plan, pred, &probe)
            .expect("spilled plan must apply the epp")
            .cost;
        self.memo.subtree.insert(key, c);
        c
    }
}

impl ExecutionOracle for CachedOracle<'_, '_, '_> {
    /// The spill memo keys on fingerprints, which cover custom plans too,
    /// so the pool id adds nothing here.
    fn try_spill_execute_id(
        &mut self,
        _pid: Option<PlanId>,
        plan: &PlanNode,
        dim: usize,
        budget: Cost,
    ) -> Result<SpillOutcome> {
        let fp = plan.fingerprint();
        let pred = self.ctx.opt().query().epps[dim];
        // `qa` is on-grid, so the estimate at qa *is* the subtree cost at
        // qa's own coordinate (Sels::inject copies grid sels verbatim).
        let est = self.subtree_cost(fp, plan, dim, self.qa_coords[dim]);
        if cost_le(est, budget) {
            return Ok(SpillOutcome::Completed {
                sel: self.qa.get(pred),
                spent: est,
            });
        }
        // The same frontier as CostOracle's, over memoized subtree costs.
        let lower_bound = spill_lower_bound(self.ctx.grid().dim(dim), |k| {
            cost_le(self.subtree_cost(fp, plan, dim, k), budget)
        });
        let spent = budget;
        Ok(SpillOutcome::TimedOut { lower_bound, spent })
    }

    /// A pool plan's cost is one matrix lookup; any other plan is
    /// recosted, with the same call [`crate::CostOracle`] makes.
    fn try_full_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        budget: Cost,
    ) -> Result<FullOutcome> {
        let cost = match pid {
            Some(pid) => self.ctx.matrix().cost(pid, self.qa_idx),
            None => self.ctx.opt().cost_plan(plan, &self.qa),
        };
        Ok(if cost_le(cost, budget) {
            FullOutcome::Completed { spent: cost }
        } else {
            FullOutcome::TimedOut { spent: budget }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CostOracle;
    use crate::test_fixtures::star2_surface;

    #[test]
    fn matrix_cells_match_direct_recosts() {
        let fx = star2_surface(8);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        let grid = fx.surface.grid();
        for qa in grid.iter() {
            let sels = fx.opt.sels_at(&grid.sels(qa));
            for (pid, plan) in fx.surface.pool().iter() {
                let direct = fx.opt.cost_plan(plan, &sels);
                assert_eq!(
                    ctx.matrix().cost(pid, qa).to_bits(),
                    direct.to_bits(),
                    "plan {pid} qa {qa}"
                );
            }
        }
    }

    #[test]
    fn parallel_matrix_bit_equal_to_sequential() {
        let fx = star2_surface(9);
        let seq = EvalContext::new(&fx.surface, &fx.opt);
        for threads in [2usize, 3, 7] {
            let par = EvalContext::with_threads(&fx.surface, &fx.opt, threads);
            assert_eq!(seq.matrix().len(), par.matrix().len());
            for pid in 0..seq.matrix().nplans() {
                for qa in 0..seq.matrix().grid_len() {
                    assert_eq!(
                        seq.matrix().cost(pid, qa).to_bits(),
                        par.matrix().cost(pid, qa).to_bits(),
                        "threads {threads} plan {pid} qa {qa}"
                    );
                }
            }
        }
    }

    #[test]
    fn cached_oracle_outcomes_match_cost_oracle() {
        let fx = star2_surface(8);
        let ctx = EvalContext::new(&fx.surface, &fx.opt);
        let grid = fx.surface.grid();
        let mut memo = SpillMemo::new();
        for qa in grid.iter() {
            let mut cached = CachedOracle::at_grid(&ctx, qa, &mut memo);
            let mut plain = CostOracle::at_grid(&fx.opt, grid, qa);
            for (pid, plan) in fx.surface.pool().iter() {
                let full_cost = plain.true_cost(plan);
                for budget in [full_cost * 0.5, full_cost, full_cost * 2.0] {
                    assert_eq!(
                        cached.try_full_execute_id(Some(pid), plan, budget).unwrap(),
                        plain.full_execute(plan, budget),
                        "full pid {pid} qa {qa}"
                    );
                    for dim in 0..grid.ndims() {
                        assert_eq!(
                            cached
                                .try_spill_execute_id(Some(pid), plan, dim, budget)
                                .unwrap(),
                            plain.spill_execute(plan, dim, budget),
                            "spill pid {pid} dim {dim} qa {qa}"
                        );
                    }
                }
            }
        }
        assert!(
            !memo.subtree.is_empty(),
            "sweep must populate the spill memo"
        );
    }
}
