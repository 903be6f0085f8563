//! The PlanBouquet baseline (§1.1; Dutt & Haritsa, TODS'16).
//!
//! Selectivity discovery without spilling: the anorexic-reduced plan sets
//! of each iso-cost contour are executed in sequence with budgets
//! `(1+λ)·CC_i`; the first execution to finish returns the query result.
//! The guarantee is **behavioral** — `MSO ≤ 4(1+λ)·ρ_red`, where `ρ_red`
//! is the maximum post-reduction contour density, a quantity that depends
//! on the optimizer and platform and requires the full ESS preprocessing
//! to even compute.

use crate::cached::EvalContext;
use crate::discovery::{self, Exec, Protocol, Step};
use crate::oracle::ExecutionOracle;
use crate::report::RunReport;
use rqp_common::{Cost, Result, RqpError};
use rqp_ess::alignment::PlanChoice;
use rqp_ess::anorexic::{reduce_all, reduce_all_with, ReducedContour};
use rqp_ess::{ContourSet, SurfaceAccess};
use rqp_obs::Tracer;
use rqp_optimizer::Optimizer;
use std::sync::Arc;

/// A compiled PlanBouquet: contour schedule plus reduced plan sets.
#[derive(Debug)]
pub struct PlanBouquet<'a> {
    surface: &'a dyn SurfaceAccess,
    contours: ContourSet,
    reduced: Vec<ReducedContour>,
    /// Each contour's decision, made once: its budget `(1+λ)·CC_i` and
    /// its reduced plans as regular executions within it.
    steps: Vec<(Cost, Arc<[Step]>)>,
    rho_red: usize,
    lambda: f64,
    ratio: f64,
}

impl<'a> PlanBouquet<'a> {
    /// Compiles the bouquet with inter-contour cost `ratio` and anorexic
    /// swallowing threshold `lambda` (the paper uses 2.0 and 0.2).
    pub fn new(
        surface: &'a dyn SurfaceAccess,
        opt: &'a Optimizer<'a>,
        ratio: f64,
        lambda: f64,
    ) -> Self {
        let contours = ContourSet::build(surface, ratio);
        let (reduced, _) = reduce_all(surface, opt, &contours, lambda);
        Self::assemble(surface, contours, reduced, lambda, ratio)
    }

    /// [`new`](Self::new) over an [`EvalContext`]: the anorexic cover reads
    /// the context's cost matrix instead of recosting; same bouquet.
    pub fn from_ctx(ctx: &EvalContext<'a>, ratio: f64, lambda: f64) -> Self {
        let contours = ContourSet::build(ctx.surface(), ratio);
        let cost = |pid, q| ctx.matrix().cost(pid, q);
        let (reduced, _) = reduce_all_with(ctx.surface(), &contours, lambda, cost);
        Self::assemble(ctx.surface(), contours, reduced, lambda, ratio)
    }

    /// Rebuilds a bouquet from an already-reduced contour schedule (e.g.
    /// loaded from a persisted artifact), skipping the anorexic set-cover
    /// — the expensive part of [`new`](Self::new). The cheap contour
    /// schedule is rebuilt from the surface; `reduced` must be the output
    /// of [`reduce_all`] for the same surface, ratio and lambda: one
    /// non-empty cover of pool plans per contour, at the contour's cost
    /// bit for bit. `ρ_red` is derived from it, never taken on trust.
    pub fn from_parts(
        surface: &'a dyn SurfaceAccess,
        ratio: f64,
        lambda: f64,
        reduced: Vec<ReducedContour>,
    ) -> Result<Self> {
        let contours = ContourSet::build(surface, ratio);
        let costs = contours.costs();
        if reduced.len() != costs.len() {
            return Err(RqpError::Config(format!(
                "reduced bouquet has {} contours but the surface yields {}",
                reduced.len(),
                costs.len(),
            )));
        }
        let nplans = surface.pool_len();
        for (i, (rc, cost)) in reduced.iter().zip(costs).enumerate() {
            let in_pool = !rc.plans.is_empty() && rc.plans.iter().all(|&pid| pid < nplans);
            if !in_pool || rc.cost.to_bits() != cost.to_bits() {
                return Err(RqpError::Config(format!(
                    "reduced contour {i} (cost {}, plans {:?}) is not a cover of pool plans \
                     at the surface's contour cost {cost}",
                    rc.cost, rc.plans
                )));
            }
        }
        Ok(Self::assemble(surface, contours, reduced, lambda, ratio))
    }

    /// Decides every contour once, and `ρ_red = max |plans|` as the
    /// reduction computes it.
    fn assemble(
        surface: &'a dyn SurfaceAccess,
        contours: ContourSet,
        reduced: Vec<ReducedContour>,
        lambda: f64,
        ratio: f64,
    ) -> Self {
        let steps = (reduced.iter())
            .map(|rc| {
                let budget = (1.0 + lambda) * rc.cost;
                let plan = |&pid| Step::Full(Exec::new(surface, PlanChoice::Pool(pid), budget));
                (budget, rc.plans.iter().map(plan).collect())
            })
            .collect();
        Self {
            rho_red: reduced.iter().map(|r| r.plans.len()).max().unwrap_or(0),
            surface,
            contours,
            reduced,
            steps,
            lambda,
            ratio,
        }
    }

    /// Post-reduction maximum contour density `ρ_red`.
    pub fn rho_red(&self) -> usize {
        self.rho_red
    }

    /// The reduced contour schedule, in execution order.
    pub fn reduced(&self) -> &[ReducedContour] {
        &self.reduced
    }

    /// The behavioral MSO guarantee `(1+λ)·ρ_red·r²/(r−1)` — `4(1+λ)ρ_red`
    /// at the paper's cost-doubling ratio.
    pub fn mso_guarantee(&self) -> f64 {
        crate::planbouquet_guarantee_ratio(self.lambda, self.rho_red, self.ratio)
    }

    /// The contour schedule.
    pub fn contours(&self) -> &ContourSet {
        &self.contours
    }

    /// Runs the bouquet discovery sequence against `oracle`.
    pub fn run(&self, oracle: &mut dyn ExecutionOracle) -> Result<RunReport> {
        discovery::run("planbouquet", self, &Tracer::disabled(), oracle)
    }
}

impl Protocol for PlanBouquet<'_> {
    fn schedule(&self) -> (&dyn SurfaceAccess, Option<&ContourSet>) {
        (self.surface, Some(&self.contours))
    }

    fn decide(&self, i: usize, _pins: &[Option<usize>]) -> (Cost, Arc<[Step]>) {
        let (budget, steps) = &self.steps[i];
        (*budget, steps.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CostOracle;
    use crate::test_fixtures::star2_surface;

    #[test]
    fn completes_everywhere_within_guarantee() {
        let fx = star2_surface(12);
        let pb = PlanBouquet::new(&fx.surface, &fx.opt, 2.0, 0.2);
        let guarantee = pb.mso_guarantee();
        for qa in fx.surface.grid().iter() {
            let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
            let report = pb.run(&mut oracle).expect("bouquet must complete");
            assert!(report.completed);
            let subopt = report.sub_optimality(fx.surface.opt_cost(qa));
            assert!(
                subopt <= guarantee * (1.0 + 1e-6),
                "qa {:?}: subopt {subopt} exceeds guarantee {guarantee}",
                fx.surface.grid().coords(qa)
            );
        }
    }

    #[test]
    fn cheap_locations_finish_in_early_contours() {
        let fx = star2_surface(12);
        let pb = PlanBouquet::new(&fx.surface, &fx.opt, 2.0, 0.2);
        let origin = fx.surface.grid().origin();
        let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), origin);
        let report = pb.run(&mut oracle).unwrap();
        assert_eq!(report.last_contour(), Some(0), "origin completes on IC1");
    }

    #[test]
    fn rho_and_guarantee_consistent() {
        let fx = star2_surface(12);
        let pb = PlanBouquet::new(&fx.surface, &fx.opt, 2.0, 0.2);
        assert!(pb.rho_red() >= 1);
        assert!((pb.mso_guarantee() - 4.0 * 1.2 * pb.rho_red() as f64).abs() < 1e-12);
    }
}
