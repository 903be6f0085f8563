//! A POP-style mid-query re-optimization baseline (§8 related work).
//!
//! The paper positions PlanBouquet/SpillBound against the influential
//! *progressive optimization* (POP, Markl et al. SIGMOD'04) and Rio
//! heuristics: start from the optimizer's estimate, guard it with a
//! *validity range*, and re-optimize mid-flight when an observed
//! cardinality escapes the range. Those techniques have no MSO guarantee —
//! "POP may get stuck with a poor plan" — and this module exists to
//! measure exactly that on our ESS machinery.
//!
//! Simulation model (cost-based, mirroring [`crate::oracle::CostOracle`]):
//!
//! 1. optimize at the current estimates and start executing;
//! 2. the first not-yet-validated epp in the plan's pipeline order is
//!    *observed* when its node's subtree completes — costing the subtree
//!    at the true location (work that is sunk whether or not the plan
//!    survives);
//! 3. if the observed selectivity lies within the validity range
//!    `[est/α, est·α]`, the epp is validated and execution proceeds to
//!    the next epp (no extra charge: the next subtree subsumes this one);
//!    otherwise the plan is cancelled, the selectivity is learnt exactly,
//!    and the query is re-optimized — partial work is lost, exactly as in
//!    restart-based re-optimizers;
//! 4. when every epp is validated or learnt, the final plan runs to
//!    completion (charged its full cost at the truth, minus nothing — the
//!    conservative reading that favors POP).
//!
//! Because validation happens *after* the offending subtree has already
//! run, a plan chosen under a bad estimate can sink unbounded work before
//! detection — the unboundedness the paper's guarantees eliminate.

use rqp_common::{Cost, GridIdx, Selectivity};
use rqp_ess::EssSurface;
use rqp_optimizer::pipeline::epp_order;
use rqp_optimizer::{Optimizer, Sels};

/// Outcome of one POP run.
#[derive(Debug, Clone)]
pub struct PopRun {
    /// Total cost charged (sunk restarts + final plan).
    pub total_cost: Cost,
    /// Number of plan switches (re-optimizations).
    pub restarts: usize,
    /// Final learnt/validated selectivities per dimension.
    pub final_sels: Vec<Selectivity>,
}

/// The POP-style baseline, parameterized by the validity-range width `α`
/// (a factor; POP literature uses small constants — 2 is generous).
#[derive(Debug)]
pub struct PopReoptimizer<'a> {
    opt: &'a Optimizer<'a>,
    alpha: f64,
}

impl<'a> PopReoptimizer<'a> {
    /// Creates the baseline with validity-range factor `alpha > 1`.
    pub fn new(opt: &'a Optimizer<'a>, alpha: f64) -> Self {
        assert!(alpha > 1.0, "validity range factor must exceed 1");
        Self { opt, alpha }
    }

    /// Runs the re-optimization loop against a hidden truth `qa`
    /// (selectivities per ESS dimension).
    pub fn run(&self, qa: &[Selectivity]) -> PopRun {
        let query = self.opt.query();
        let d = query.ndims();
        assert_eq!(qa.len(), d);
        let truth: Sels = self.opt.sels_at(qa);
        // Current estimates: statistics until observed/learnt.
        let mut est: Vec<Selectivity> = query
            .epps
            .iter()
            .map(|&p| self.opt.base_sels().get(p))
            .collect();
        // settled[j]: validated-in-range or learnt-by-restart.
        let mut settled = vec![false; d];
        let mut total = 0.0;
        let mut restarts = 0usize;

        loop {
            let (plan, _) = self.opt.optimize_at(&est);
            let model = self.opt.cost_model();
            let mut violated: Option<usize> = None;
            for (dim, pred) in epp_order(&plan, query) {
                if settled[dim] {
                    continue;
                }
                let true_sel = truth.get(pred);
                let within = true_sel <= est[dim] * self.alpha && true_sel >= est[dim] / self.alpha;
                if within {
                    // validated in-flight; execution continues
                    settled[dim] = true;
                    est[dim] = true_sel;
                    continue;
                }
                // Violation detected once the node's subtree has run: the
                // subtree cost at the truth is sunk.
                let sunk = model
                    .spill_subtree_estimate(&plan, pred, &truth)
                    .expect("plan applies its epps")
                    .cost;
                total += sunk;
                est[dim] = true_sel;
                settled[dim] = true;
                violated = Some(dim);
                break;
            }
            match violated {
                Some(_) => restarts += 1,
                None => {
                    // All epps validated: the plan runs to completion.
                    total += self.opt.cost_plan(&plan, &truth);
                    return PopRun {
                        total_cost: total,
                        restarts,
                        final_sels: est,
                    };
                }
            }
        }
    }

    /// Exhaustive MSOe/ASO sweep over a surface's grid.
    pub fn evaluate(&self, surface: &EssSurface) -> crate::eval::SubOptStats {
        let grid = surface.grid();
        let subopts: Vec<f64> = grid
            .iter()
            .map(|qa: GridIdx| {
                let sels = grid.sels(qa);
                let run = self.run(&sels);
                run.total_cost / surface.opt_cost(qa)
            })
            .collect();
        crate::eval::SubOptStats::from_subopts(subopts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::star2_surface;
    use crate::{evaluate_strategy, CostSource, Params, Strategy};

    #[test]
    fn pop_terminates_and_learns_truth() {
        let fx = star2_surface(10);
        let pop = PopReoptimizer::new(&fx.opt, 2.0);
        for coords in [[0usize, 0], [5, 5], [9, 9], [2, 8]] {
            let qa = fx.surface.grid().flat(&coords);
            let sels = fx.surface.grid().sels(qa);
            let run = pop.run(&sels);
            assert!(run.total_cost > 0.0);
            assert!(run.restarts <= 2, "at most one restart per epp");
            for (j, s) in run.final_sels.iter().enumerate() {
                assert!((s - sels[j]).abs() <= 1e-12);
            }
        }
    }

    #[test]
    fn pop_near_optimal_when_estimates_are_right() {
        let fx = star2_surface(10);
        let pop = PopReoptimizer::new(&fx.opt, 2.0);
        // qa at the estimate itself: validation succeeds, no restarts.
        let est: Vec<f64> = fx
            .opt
            .query()
            .epps
            .iter()
            .map(|&p| fx.opt.base_sels().get(p))
            .collect();
        let run = pop.run(&est);
        assert_eq!(run.restarts, 0);
        let (_, opt_cost) = fx.opt.optimize_at(&est);
        assert!(run.total_cost <= opt_cost * (1.0 + 1e-9));
    }

    #[test]
    fn pop_has_no_useful_bound_while_spillbound_does() {
        let fx = star2_surface(12);
        let pop = PopReoptimizer::new(&fx.opt, 2.0);
        let pop_stats = pop.evaluate(&fx.surface);
        let sb = Strategy::SpillBound
            .compile(CostSource::Recost(&fx.surface, &fx.opt), &Params::default());
        let sb_stats = evaluate_strategy(&sb.unwrap(), 1).unwrap();
        // SB honors its guarantee...
        assert!(sb_stats.mso <= crate::spillbound_guarantee(2) * (1.0 + 1e-6));
        // ...POP's worst case is worse than SB's on this fixture (the
        // restart sunk costs + late detection bite somewhere).
        assert!(
            pop_stats.mso > sb_stats.mso,
            "POP MSOe {} should exceed SB MSOe {}",
            pop_stats.mso,
            sb_stats.mso
        );
    }
}
