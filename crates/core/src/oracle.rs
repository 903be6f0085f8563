//! The budgeted-execution oracle.
//!
//! Discovery algorithms never see `qa` — they interact with the world only
//! through budget-limited (spill-mode) executions, exactly like the
//! engine-side protocol of §6.1. [`ExecutionOracle`] captures that
//! protocol; [`CostOracle`] implements it analytically from the cost
//! model, which is how all the paper's MSO experiments are computed
//! ("all the experiments thus far were based on optimizer cost values",
//! §6.3). The executor-backed implementation for wall-clock runs lives in
//! the workspace root crate.

use rqp_common::{cost_le, Cost, MultiGrid, Result, SelGrid, Selectivity};
use rqp_faults::FaultPlan;
use rqp_optimizer::{Optimizer, PlanId, PlanNode, Sels};

/// Result of a spill-mode budgeted execution (Lemma 3.1): either the exact
/// selectivity of the spilled epp is learnt, or a half-space is pruned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpillOutcome {
    /// Subtree finished within budget: exact selectivity learnt.
    Completed {
        /// The spilled epp's true selectivity.
        sel: Selectivity,
        /// Cost actually spent (≤ budget).
        spent: Cost,
    },
    /// Budget exhausted: `qa.dim > lower_bound`.
    TimedOut {
        /// Largest selectivity ruled *in*: the true value strictly exceeds
        /// this (0 when nothing was learnt).
        lower_bound: Selectivity,
        /// Cost spent (= budget).
        spent: Cost,
    },
}

/// Result of a regular budgeted execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FullOutcome {
    /// Query completed within budget.
    Completed {
        /// Cost actually spent (≤ budget).
        spent: Cost,
    },
    /// Budget exhausted; partial results discarded.
    TimedOut {
        /// Cost spent (= budget).
        spent: Cost,
    },
}

/// What a spill that did not complete learns: the largest grid
/// selectivity of the spilled dimension whose subtree cost still fits the
/// budget (0 when none does), found by a partition point over the
/// monotone `fits(coordinate)`. The true value lies strictly above it.
pub fn spill_lower_bound(g: &SelGrid, mut fits: impl FnMut(usize) -> bool) -> Selectivity {
    let (mut lo, mut hi) = (0usize, g.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if fits(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == 0 {
        0.0
    } else {
        g.sel(lo - 1)
    }
}

impl SpillOutcome {
    /// The outcome under real costs `eps` times the model's, given the
    /// model's outcome within `budget / eps`: spends scale back by `eps`,
    /// capped at `budget` on a timeout.
    pub(crate) fn scaled(self, eps: f64, budget: Cost) -> Self {
        match self {
            SpillOutcome::Completed { sel, spent } => SpillOutcome::Completed {
                sel,
                spent: spent * eps,
            },
            SpillOutcome::TimedOut { lower_bound, spent } => SpillOutcome::TimedOut {
                lower_bound,
                spent: (spent * eps).min(budget),
            },
        }
    }
}

impl FullOutcome {
    /// [`SpillOutcome::scaled`] for a regular execution.
    pub(crate) fn scaled(self, eps: f64, budget: Cost) -> Self {
        match self {
            FullOutcome::Completed { spent } => FullOutcome::Completed { spent: spent * eps },
            FullOutcome::TimedOut { spent } => FullOutcome::TimedOut {
                spent: (spent * eps).min(budget),
            },
        }
    }
}

/// The engine-side execution interface available to discovery algorithms.
///
/// Both required methods carry the plan's interned POSP pool id when the
/// caller knows it (`None` for plans synthesized outside the pool), which
/// cache-backed oracles key on, and are fallible, so that oracles with an
/// operational failure mode (executor-backed, fault-injected) can surface
/// `RqpError::Fault` instead of panicking.
pub trait ExecutionOracle {
    /// Executes `plan` in spill-mode on ESS dimension `dim` with the given
    /// cost budget.
    fn try_spill_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        dim: usize,
        budget: Cost,
    ) -> Result<SpillOutcome>;

    /// Executes `plan` normally with the given cost budget.
    fn try_full_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        budget: Cost,
    ) -> Result<FullOutcome>;

    /// [`try_spill_execute_id`](Self::try_spill_execute_id) without a pool
    /// id, panicking on an operational failure.
    fn spill_execute(&mut self, plan: &PlanNode, dim: usize, budget: Cost) -> SpillOutcome {
        (self.try_spill_execute_id(None, plan, dim, budget))
            .unwrap_or_else(|e| panic!("spill execution failed: {e}"))
    }

    /// [`try_full_execute_id`](Self::try_full_execute_id) without a pool
    /// id, panicking on an operational failure.
    fn full_execute(&mut self, plan: &PlanNode, budget: Cost) -> FullOutcome {
        (self.try_full_execute_id(None, plan, budget))
            .unwrap_or_else(|e| panic!("full execution failed: {e}"))
    }
}

/// Cost-model-based oracle: decides completion analytically at a hidden
/// true location `qa`.
#[derive(Debug)]
pub struct CostOracle<'a> {
    opt: &'a Optimizer<'a>,
    grid: &'a MultiGrid,
    qa: Sels,
}

impl<'a> CostOracle<'a> {
    /// Creates an oracle whose hidden truth is the ESS location with the
    /// given epp selectivities.
    pub fn new(opt: &'a Optimizer<'a>, grid: &'a MultiGrid, epp_sels: &[Selectivity]) -> Self {
        assert_eq!(epp_sels.len(), grid.ndims());
        Self {
            opt,
            grid,
            qa: opt.sels_at(epp_sels),
        }
    }

    /// Creates an oracle for grid location `idx`.
    pub fn at_grid(opt: &'a Optimizer<'a>, grid: &'a MultiGrid, idx: usize) -> Self {
        let sels = grid.sels(idx);
        Self::new(opt, grid, &sels)
    }

    /// The true cost of executing `plan` at `qa`.
    pub fn true_cost(&self, plan: &PlanNode) -> Cost {
        self.opt.cost_plan(plan, &self.qa)
    }
}

impl ExecutionOracle for CostOracle<'_> {
    fn try_spill_execute_id(
        &mut self,
        _pid: Option<PlanId>,
        plan: &PlanNode,
        dim: usize,
        budget: Cost,
    ) -> Result<SpillOutcome> {
        let pred = self.opt.query().epps[dim];
        let model = self.opt.cost_model();
        let est = model
            .spill_subtree_estimate(plan, pred, &self.qa)
            .expect("spilled plan must apply the epp");
        if cost_le(est.cost, budget) {
            return Ok(SpillOutcome::Completed {
                sel: self.qa.get(pred),
                spent: est.cost,
            });
        }
        let (g, mut probe) = (self.grid.dim(dim), self.qa.clone());
        let lower_bound = spill_lower_bound(g, |k| {
            probe.set(pred, g.sel(k));
            let est = model.spill_subtree_estimate(plan, pred, &probe);
            cost_le(est.expect("subtree exists").cost, budget)
        });
        let spent = budget;
        Ok(SpillOutcome::TimedOut { lower_bound, spent })
    }

    fn try_full_execute_id(
        &mut self,
        _pid: Option<PlanId>,
        plan: &PlanNode,
        budget: Cost,
    ) -> Result<FullOutcome> {
        let cost = self.opt.cost_plan(plan, &self.qa);
        Ok(if cost_le(cost, budget) {
            FullOutcome::Completed { spent: cost }
        } else {
            FullOutcome::TimedOut { spent: budget }
        })
    }
}

/// A cost oracle with **bounded cost-model error** (§7 deployment
/// discussion): the "real" cost of any (sub)plan execution deviates from
/// the model by a deterministic plan-and-location-dependent factor
/// `ε ∈ [1/(1+δ), 1+δ]`. The paper argues the MSO guarantees then carry
/// through inflated by `(1+δ)²`; [`crate::eval`]'s robustness tests verify
/// this empirically.
///
/// Note that *learning* stays exact — selectivities are observed from
/// tuple counts, not from costs — so only completion decisions and spent
/// accounting wobble.
#[derive(Debug)]
pub struct NoisyCostOracle<'a> {
    inner: CostOracle<'a>,
    /// The deterministic plan-keyed factor: log-uniform over
    /// `[1/(1+δ), 1+δ]`, as a fault plan's perturbation draws it.
    noise: FaultPlan,
}

impl<'a> NoisyCostOracle<'a> {
    /// Wraps a [`CostOracle`] with error bound `delta ≥ 0` and a noise
    /// `seed`.
    pub fn new(inner: CostOracle<'a>, delta: f64, seed: u64) -> Self {
        let noise = FaultPlan::new(seed).with_perturb(delta);
        Self { inner, noise }
    }
}

impl ExecutionOracle for NoisyCostOracle<'_> {
    fn try_spill_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        dim: usize,
        budget: Cost,
    ) -> Result<SpillOutcome> {
        // A real cost of model·eps against `budget` is equivalent to the
        // model against budget/eps — with spends scaled back by eps.
        let eps = self.noise.perturb_eps(plan.fingerprint() ^ dim as u64);
        let out = self
            .inner
            .try_spill_execute_id(pid, plan, dim, budget / eps)?;
        Ok(out.scaled(eps, budget))
    }

    fn try_full_execute_id(
        &mut self,
        pid: Option<PlanId>,
        plan: &PlanNode,
        budget: Cost,
    ) -> Result<FullOutcome> {
        let eps = self.noise.perturb_eps(plan.fingerprint());
        let out = self.inner.try_full_execute_id(pid, plan, budget / eps)?;
        Ok(out.scaled(eps, budget))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqp_catalog::{Catalog, Column, ColumnStats, DataType, Table};
    use rqp_common::MultiGrid;
    use rqp_optimizer::{CostParams, EnumerationMode, Predicate, PredicateKind, QuerySpec};

    fn fixture() -> (Catalog, QuerySpec) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "fact",
            1_000_000,
            vec![
                Column::new("f1", DataType::Int, ColumnStats::uniform(10_000)).with_index(),
                Column::new("f2", DataType::Int, ColumnStats::uniform(1_000)).with_index(),
            ],
        ))
        .unwrap();
        for (name, rows) in [("d1", 10_000u64), ("d2", 1_000)] {
            cat.add_table(Table::new(
                name,
                rows,
                vec![Column::new("k", DataType::Int, ColumnStats::uniform(rows)).with_index()],
            ))
            .unwrap();
        }
        let q = QuerySpec {
            name: "q".into(),
            relations: vec![0, 1, 2],
            predicates: vec![
                Predicate {
                    label: "j1".into(),
                    kind: PredicateKind::Join {
                        left: 0,
                        left_col: 0,
                        right: 1,
                        right_col: 0,
                    },
                },
                Predicate {
                    label: "j2".into(),
                    kind: PredicateKind::Join {
                        left: 0,
                        left_col: 1,
                        right: 2,
                        right_col: 0,
                    },
                },
            ],
            epps: vec![0, 1],
        };
        (cat, q)
    }

    #[test]
    fn full_execute_thresholds() {
        let (cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let grid = MultiGrid::uniform(2, 1e-5, 8);
        let qa = [1e-3, 1e-2];
        let mut oracle = CostOracle::new(&opt, &grid, &qa);
        let (plan, _) = opt.optimize_at(&qa);
        let true_cost = oracle.true_cost(&plan);
        match oracle.full_execute(&plan, true_cost * 1.01) {
            FullOutcome::Completed { spent } => assert!((spent - true_cost).abs() < 1e-9),
            FullOutcome::TimedOut { .. } => panic!("must complete within its own cost"),
        }
        match oracle.full_execute(&plan, true_cost * 0.5) {
            FullOutcome::TimedOut { spent } => assert!((spent - true_cost * 0.5).abs() < 1e-9),
            FullOutcome::Completed { .. } => panic!("must not complete at half budget"),
        }
    }

    #[test]
    fn spill_completes_with_exact_selectivity() {
        let (cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let grid = MultiGrid::uniform(2, 1e-5, 8);
        let qa = [1e-3, 1e-2];
        let mut oracle = CostOracle::new(&opt, &grid, &qa);
        let (plan, cost) = opt.optimize_at(&[1.0, 1.0]);
        // At the terminus plan's full cost, the subtree surely fits.
        match oracle.spill_execute(&plan, 0, cost * 10.0) {
            SpillOutcome::Completed { sel, spent } => {
                assert!((sel - 1e-3).abs() < 1e-12);
                assert!(spent <= cost * 10.0);
            }
            SpillOutcome::TimedOut { .. } => panic!("huge budget must complete"),
        }
    }

    #[test]
    fn spill_timeout_gives_sound_lower_bound() {
        let (cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let grid = MultiGrid::uniform(2, 1e-5, 12);
        let qa = [0.5, 1e-2]; // dim 0 is large
        let mut oracle = CostOracle::new(&opt, &grid, &qa);
        // Optimal plan at a small hypothesized location, tiny budget.
        let (plan, cost) = opt.optimize_at(&[1e-5, 1e-2]);
        match oracle.spill_execute(&plan, 0, cost) {
            SpillOutcome::TimedOut { lower_bound, spent } => {
                assert!(lower_bound < 0.5, "lb must stay below the true sel");
                assert!((spent - cost).abs() < 1e-9);
            }
            SpillOutcome::Completed { .. } => {
                panic!("budget for sel 1e-5 cannot complete at sel 0.5")
            }
        }
    }

    #[test]
    fn spill_lower_bound_is_max_fitting_grid_point() {
        let (cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let grid = MultiGrid::uniform(2, 1e-5, 12);
        let qa = [1.0, 1e-2];
        let mut oracle = CostOracle::new(&opt, &grid, &qa);
        let (plan, _) = opt.optimize_at(&[1e-3, 1e-2]);
        let model = opt.cost_model();
        let pred = q.epps[0];
        let budget = 0.5 * oracle.true_cost(&plan);
        if let SpillOutcome::TimedOut { lower_bound, .. } = oracle.spill_execute(&plan, 0, budget) {
            // verify maximality: lb fits, next grid point does not
            let mut probe = oracle.qa.clone();
            if lower_bound > 0.0 {
                probe.set(pred, lower_bound);
                let c = model
                    .spill_subtree_estimate(&plan, pred, &probe)
                    .unwrap()
                    .cost;
                assert!(cost_le(c, budget));
            }
            let g = grid.dim(0);
            let next_idx = g.points().iter().position(|&s| s > lower_bound).unwrap();
            probe.set(pred, g.sel(next_idx));
            let c = model
                .spill_subtree_estimate(&plan, pred, &probe)
                .unwrap()
                .cost;
            assert!(!cost_le(c, budget), "next grid point must not fit");
        } else {
            panic!("half budget must time out");
        }
    }
}

#[cfg(test)]
mod noisy_tests {
    use super::*;
    use crate::spillbound::SpillBound;
    use crate::test_fixtures::star2_surface;

    #[test]
    fn eps_is_bounded_and_deterministic() {
        let fx = star2_surface(8);
        let qa = [1e-3, 1e-2];
        let mk = || NoisyCostOracle::new(CostOracle::new(&fx.opt, fx.surface.grid(), &qa), 0.3, 42);
        let o1 = mk();
        let o2 = mk();
        for fp in [1u64, 99, 12345, u64::MAX] {
            let e = o1.noise.perturb_eps(fp);
            assert!((1.0 / 1.3..=1.3).contains(&e), "eps {e} out of range");
            assert_eq!(e, o2.noise.perturb_eps(fp), "eps must be deterministic");
        }
    }

    #[test]
    fn spillbound_respects_inflated_guarantee_under_cost_error() {
        // §7: with cost-model error bounded by δ, MSO ≤ (D²+3D)(1+δ)².
        let fx = star2_surface(10);
        let delta = 0.3;
        let inflated = crate::spillbound_guarantee(2) * (1.0 + delta) * (1.0 + delta);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        for seed in [1u64, 7, 99] {
            for qa in fx.surface.grid().iter() {
                let sels = fx.surface.grid().sels(qa);
                let inner = CostOracle::new(&fx.opt, fx.surface.grid(), &sels);
                let mut oracle = NoisyCostOracle::new(inner, delta, seed);
                let report = sb.run(&mut oracle).expect("completes despite noise");
                assert!(report.completed);
                let sub = report.sub_optimality(fx.surface.opt_cost(qa));
                assert!(
                    sub <= inflated * (1.0 + 1e-6),
                    "seed {seed} qa {:?}: {sub} > inflated bound {inflated}",
                    fx.surface.grid().coords(qa)
                );
            }
        }
    }

    #[test]
    fn learning_stays_exact_under_cost_error() {
        let fx = star2_surface(10);
        let qa_idx = fx.surface.grid().flat(&[6, 4]);
        let sels = fx.surface.grid().sels(qa_idx);
        let inner = CostOracle::new(&fx.opt, fx.surface.grid(), &sels);
        let mut oracle = NoisyCostOracle::new(inner, 0.5, 11);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        let report = sb.run(&mut oracle).unwrap();
        for (j, learnt) in report.learnt.iter().enumerate() {
            if let Some(s) = learnt {
                assert!(
                    (s - sels[j]).abs() <= 1e-12,
                    "noisy learning must stay exact"
                );
            }
        }
    }
}

#[cfg(test)]
mod noisy_ab_pb_tests {
    use super::*;
    use crate::alignedbound::AlignedBound;
    use crate::planbouquet::PlanBouquet;
    use crate::test_fixtures::star2_surface;

    #[test]
    fn alignedbound_survives_cost_error_within_inflated_bound() {
        let fx = star2_surface(10);
        let delta = 0.3;
        let inflated = crate::spillbound_guarantee(2) * (1.0 + delta) * (1.0 + delta);
        let ab = AlignedBound::new(&fx.surface, &fx.opt, 2.0);
        for qa in fx.surface.grid().iter() {
            let sels = fx.surface.grid().sels(qa);
            let inner = CostOracle::new(&fx.opt, fx.surface.grid(), &sels);
            let mut oracle = NoisyCostOracle::new(inner, delta, 5);
            let report = ab.run(&mut oracle).expect("AB completes despite noise");
            let sub = report.sub_optimality(fx.surface.opt_cost(qa));
            assert!(
                sub <= inflated * (1.0 + 1e-6),
                "qa {:?}: {sub} > {inflated}",
                fx.surface.grid().coords(qa)
            );
        }
    }

    #[test]
    fn planbouquet_survives_cost_error_within_inflated_bound() {
        let fx = star2_surface(10);
        let delta = 0.25;
        let pb = PlanBouquet::new(&fx.surface, &fx.opt, 2.0, 0.2);
        let inflated = pb.mso_guarantee() * (1.0 + delta) * (1.0 + delta);
        for qa in fx.surface.grid().iter() {
            let sels = fx.surface.grid().sels(qa);
            let inner = CostOracle::new(&fx.opt, fx.surface.grid(), &sels);
            let mut oracle = NoisyCostOracle::new(inner, delta, 17);
            let report = pb.run(&mut oracle).expect("PB completes despite noise");
            let sub = report.sub_optimality(fx.surface.opt_cost(qa));
            assert!(
                sub <= inflated * (1.0 + 1e-6),
                "qa {:?}: {sub} > {inflated}",
                fx.surface.grid().coords(qa)
            );
        }
    }

    #[test]
    fn zero_delta_noise_is_exactly_the_plain_oracle() {
        let fx = star2_surface(10);
        let qa = fx.surface.grid().flat(&[6, 3]);
        let sels = fx.surface.grid().sels(qa);
        let sb1 = crate::spillbound::SpillBound::new(&fx.surface, &fx.opt, 2.0);
        let mut plain = CostOracle::new(&fx.opt, fx.surface.grid(), &sels);
        let a = sb1.run(&mut plain).unwrap();
        let inner = CostOracle::new(&fx.opt, fx.surface.grid(), &sels);
        let mut noiseless = NoisyCostOracle::new(inner, 0.0, 123);
        let b = sb1.run(&mut noiseless).unwrap();
        assert_eq!(a.total_cost, b.total_cost);
        assert_eq!(a.executions(), b.executions());
    }
}
