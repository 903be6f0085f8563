//! The conventional-optimizer baseline (§2.3).
//!
//! A native optimizer estimates the epp selectivities (`qe`) from
//! statistics, picks `P_qe`, and runs it to completion regardless of the
//! true location `qa`. Its sub-optimality `Cost(P_qe, qa) / Cost(P_qa,
//! qa)` is unbounded — the paper measures values beyond 10⁶ (TPC-DS Q19)
//! and beyond 6000 on JOB Q1a.

use rqp_common::{Cost, GridIdx};
use rqp_ess::{EssSurface, SurfaceAccess};
use rqp_optimizer::{Optimizer, PlanId, PlanNode};

/// The native optimizer's choice for a query: the estimate location and
/// the plan it commits to.
#[derive(Debug)]
pub struct NativeChoice {
    /// Estimated epp selectivities (statistics-derived).
    pub qe_sels: Vec<f64>,
    /// Grid location nearest to the estimate.
    pub qe_idx: GridIdx,
    /// The plan chosen at the estimate.
    pub plan: PlanNode,
    /// The plan's id in the surface's pool, when it is interned there.
    pub plan_id: Option<PlanId>,
    /// Cost of the plan at the estimate.
    pub est_cost: Cost,
}

impl NativeChoice {
    /// Computes the native optimizer's choice: epp selectivities default to
    /// their statistics-derived base values (NDV formulas / uniformity), as
    /// a real engine would estimate them.
    pub fn compute(surface: &dyn SurfaceAccess, opt: &Optimizer<'_>) -> Self {
        let query = opt.query();
        let qe_sels: Vec<f64> = query.epps.iter().map(|&p| opt.base_sels().get(p)).collect();
        let grid = surface.grid();
        let coords: Vec<usize> = qe_sels
            .iter()
            .enumerate()
            .map(|(j, &s)| grid.dim(j).nearest_idx(s))
            .collect();
        let qe_idx = grid.flat(&coords);
        let (plan, est_cost) = opt.optimize_at(&qe_sels);
        let fp = plan.fingerprint();
        let plan_id =
            (0..surface.pool_len()).find(|&pid| surface.plan_clone(pid).fingerprint() == fp);
        Self {
            qe_sels,
            qe_idx,
            plan,
            plan_id,
            est_cost,
        }
    }
}

/// The native optimizer's worst-case MSO over *all* `(qe, qa)` pairs
/// (Eq. 2): errors may place the estimate anywhere in the ESS, so every
/// POSP plan is some `P_qe`.
pub fn native_mso_worst_case(surface: &EssSurface, opt: &Optimizer<'_>) -> f64 {
    let grid = surface.grid();
    let mut mso: f64 = 1.0;
    for (_, plan) in surface.pool().iter() {
        for qa in grid.iter() {
            let sels = opt.sels_at(&grid.sels(qa));
            let sub = opt.cost_plan(plan, &sels) / surface.opt_cost(qa);
            mso = mso.max(sub);
        }
    }
    mso
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_fixtures::{star2_surface, Fixture};

    /// Sub-optimality of the native plan when the truth is `qa` (Eq. 1).
    fn sub_optimality(fx: &Fixture, choice: &NativeChoice, qa: GridIdx) -> f64 {
        let sels = fx.opt.sels_at(&fx.surface.grid().sels(qa));
        fx.opt.cost_plan(&choice.plan, &sels) / fx.surface.opt_cost(qa)
    }

    #[test]
    fn native_choice_is_optimal_at_its_estimate() {
        let fx = star2_surface(12);
        let choice = NativeChoice::compute(&fx.surface, &fx.opt);
        // At the estimate itself, sub-optimality vs the grid-snapped point
        // is near 1.
        let sub = sub_optimality(&fx, &choice, choice.qe_idx);
        assert!(sub >= 1.0 - 1e-9);
        assert!(sub < 1.6, "estimate location should be near-optimal: {sub}");
    }

    #[test]
    fn native_suboptimality_grows_away_from_estimate() {
        let fx = star2_surface(12);
        let choice = NativeChoice::compute(&fx.surface, &fx.opt);
        let worst = fx
            .surface
            .grid()
            .iter()
            .map(|qa| sub_optimality(&fx, &choice, qa))
            .fold(1.0f64, f64::max);
        assert!(
            worst > 1.5,
            "a fixed estimate must be noticeably sub-optimal somewhere: {worst}"
        );
        // With the estimate free to be anywhere (Eq. 2), the blow-up is
        // much larger: a plan tuned for the origin pays dearly at scale.
        let all_pairs = native_mso_worst_case(&fx.surface, &fx.opt);
        assert!(
            all_pairs > 5.0,
            "worst-case native MSO should be large: {all_pairs}"
        );
    }

    #[test]
    fn worst_case_dominates_fixed_estimate() {
        let fx = star2_surface(10);
        let choice = NativeChoice::compute(&fx.surface, &fx.opt);
        let fixed_mso = fx
            .surface
            .grid()
            .iter()
            .map(|qa| sub_optimality(&fx, &choice, qa))
            .fold(1.0, f64::max);
        let worst = native_mso_worst_case(&fx.surface, &fx.opt);
        assert!(worst >= fixed_mso * (1.0 - 1e-9));
    }
}
