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
use crate::discovery::{trace_run_finished, Shared};
use crate::oracle::ExecutionOracle;
use crate::report::RunReport;
use rqp_common::{GridIdx, Result};
use rqp_ess::anorexic::{reduce_all, reduce_all_with, ReducedContour};
use rqp_ess::{ContourSet, SurfaceAccess};
use rqp_obs::{TraceEvent, Tracer};
use rqp_optimizer::Optimizer;

/// A compiled PlanBouquet: contour schedule plus reduced plan sets.
#[derive(Debug)]
pub struct PlanBouquet<'a> {
    shared: Shared<'a>,
    reduced: Vec<ReducedContour>,
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
        let shared = Shared::new(surface, opt, ratio);
        let (reduced, rho_red) = reduce_all(surface, opt, &shared.contours, lambda);
        Self {
            shared,
            reduced,
            rho_red,
            lambda,
            ratio,
        }
    }

    /// [`new`](Self::new) over an [`EvalContext`]: the anorexic cover reads
    /// the context's cost matrix instead of recosting; same bouquet.
    pub fn from_ctx(ctx: &EvalContext<'a>, ratio: f64, lambda: f64) -> Self {
        let shared = Shared::new(ctx.surface(), ctx.opt(), ratio);
        let (reduced, rho_red) =
            reduce_all_with(ctx.surface(), &shared.contours, lambda, |pid, q| {
                ctx.matrix().cost(pid, q)
            });
        Self {
            shared,
            reduced,
            rho_red,
            lambda,
            ratio,
        }
    }

    /// Rebuilds a bouquet from an already-reduced contour schedule (e.g.
    /// loaded from a persisted artifact), skipping the anorexic set-cover
    /// — the expensive part of [`new`](Self::new). The cheap contour
    /// schedule is rebuilt from the surface; `reduced` / `rho_red` must be
    /// the output of [`reduce_all`] for the same surface, ratio and
    /// lambda.
    pub fn from_parts(
        surface: &'a dyn SurfaceAccess,
        opt: &'a Optimizer<'a>,
        ratio: f64,
        lambda: f64,
        reduced: Vec<ReducedContour>,
        rho_red: usize,
    ) -> Result<Self> {
        let shared = Shared::new(surface, opt, ratio);
        if reduced.len() != shared.contours.len() {
            return Err(rqp_common::RqpError::Config(format!(
                "reduced bouquet has {} contours but the surface yields {}",
                reduced.len(),
                shared.contours.len(),
            )));
        }
        let nplans = surface.pool_len();
        for (i, rc) in reduced.iter().enumerate() {
            if rc.plans.is_empty() || rc.plans.iter().any(|&pid| pid >= nplans) {
                return Err(rqp_common::RqpError::Config(format!(
                    "reduced contour {i} is empty or references a plan outside the pool"
                )));
            }
        }
        Ok(Self {
            shared,
            reduced,
            rho_red,
            lambda,
            ratio,
        })
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
        &self.shared.contours
    }

    /// Attach a structured tracer; subsequent [`run`](Self::run) calls
    /// emit typed events for every contour entry and execution.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.shared.tracer = tracer;
    }

    /// The sub-optimality [`run`](Self::run) reaches at `qa` through a
    /// [`crate::CachedOracle`] over `ctx`, bit for bit, as plain budget
    /// arithmetic over the matrix: the budget for every plan that times
    /// out, the true cost of the first that completes.
    pub(crate) fn replay_subopt(&self, ctx: &EvalContext<'_>, qa: GridIdx) -> Result<f64> {
        let mut total = 0.0;
        for rc in &self.reduced {
            let budget = (1.0 + self.lambda) * rc.cost;
            for &pid in &rc.plans {
                let c = ctx.matrix().cost(pid, qa);
                if rqp_common::cost_le(c, budget) {
                    total += c;
                    return Ok(total / ctx.surface().opt_cost(qa));
                }
                total += budget;
            }
        }
        Err(rqp_common::RqpError::Discovery(
            "bouquet replay exhausted contours".into(),
        ))
    }

    /// Runs the bouquet discovery sequence against `oracle`.
    pub fn run(&self, oracle: &mut dyn ExecutionOracle) -> Result<RunReport> {
        let mut report = RunReport {
            learnt: vec![None; self.shared.ndims()],
            ..RunReport::default()
        };
        self.shared.trace_run_started("planbouquet");
        for (i, rc) in self.reduced.iter().enumerate() {
            let budget = (1.0 + self.lambda) * rc.cost;
            self.shared
                .tracer
                .emit(|| TraceEvent::ContourEntered { contour: i, budget });
            for &pid in &rc.plans {
                if self.shared.full_step(oracle, &mut report, i, pid, budget)? {
                    trace_run_finished(&self.shared.tracer, &report);
                    return Ok(report);
                }
            }
        }
        // Unreachable with an exact cost model (the last contour's reduced
        // plan set covers every location); under bounded cost-model error
        // (§7) keep doubling budgets on the terminus plan.
        self.shared
            .run_overflow_phase(&vec![None; self.shared.ndims()], oracle, &mut report)?;
        trace_run_finished(&self.shared.tracer, &report);
        Ok(report)
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
