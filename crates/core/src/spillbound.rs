//! The SpillBound algorithm (§4, Algorithm 1).
//!
//! SpillBound walks the iso-cost contours exactly like PlanBouquet, but
//! replaces the "try every contour plan" strategy with **half-space
//! pruning** (spill-mode executions that provably learn either an epp's
//! exact selectivity or a lower bound at the contour's extreme, Lemma 3.1)
//! and **contour-density-independent execution** (at most one carefully
//! chosen plan per unlearnt epp per contour, Lemma 4.3):
//!
//! * per contour `IC_i` and unlearnt dimension `j`, the plan `P^j_max` is
//!   the optimal plan of the contour location that spills on `e_j` and has
//!   the maximal `j`-coordinate (§3.2, Fig. 5);
//! * each `P^j_max` is executed in spill-mode with budget `CC_i`; a
//!   completed execution pins the dimension and contour processing
//!   restarts with the reduced epp set; if every execution times out, the
//!   true location provably lies beyond the contour and discovery jumps to
//!   `IC_{i+1}`;
//! * once a single epp remains, the 1D PlanBouquet terminal phase finishes
//!   the query (spilling weakens the bound in 1D, §4.1).
//!
//! The resulting guarantee is **structural**: `MSO ≤ D² + 3D` (Theorem
//! 4.5), a function of nothing but the number of error-prone predicates.

use crate::discovery::{Discovery, Exec, Rule, Step};
use rqp_common::GridIdx;
use rqp_ess::alignment::PlanChoice;
use rqp_ess::{EssView, SurfaceAccess};
use rqp_optimizer::Optimizer;

/// SpillBound's discovery rule: per unlearnt dimension `j`, the paper's exact
/// `P^j_max` over the contour skyline (§3.2). Skylines, and so the
/// selections, are identical on dense and lazy surfaces.
#[derive(Debug)]
pub struct Skyline;

/// A compiled SpillBound instance: immutable, plus a memo of per-contour
/// selections, which are pure functions of (contour, pins). Runs take
/// `&self` and keep their state on the stack, so one instance serves
/// every `qa` of a sweep and every request of a daemon, from any number
/// of threads, and the contour analysis is done once per state.
pub type SpillBound<'a> = Discovery<'a, Skyline>;

impl<'a> SpillBound<'a> {
    /// Compiles SpillBound with the given inter-contour cost ratio (the
    /// paper's default is 2).
    pub fn new(surface: &'a dyn SurfaceAccess, opt: &'a Optimizer<'a>, ratio: f64) -> Self {
        Discovery::compile(surface, opt, ratio, Skyline)
    }
}

impl Rule for Skyline {
    const ALGO: &'static str = "spillbound";
    const STEP_HEAP: usize = 0;

    /// Groups the contour skyline by each location's spill dimension and
    /// keeps the `j`-maximal location.
    fn spill_steps(d: &SpillBound<'_>, i: usize, pins: &[Option<usize>]) -> Vec<Step> {
        let surface = d.surface;
        let grid = surface.grid();
        let view = EssView::from_pins(pins.to_vec());
        let unlearnt = view.free_mask();
        let mut out: Vec<Option<(GridIdx, usize)>> = vec![None; grid.ndims()];
        for q in d.contours.locations(surface, &view, i) {
            let Some(j) = d.spill_cache.of_location(surface, d.opt, q, unlearnt) else {
                continue;
            };
            let better = |&(cur, _): &(GridIdx, usize)| {
                let (qc, cc) = (grid.coord(q, j), grid.coord(cur, j));
                qc > cc || (qc == cc && q > cur)
            };
            if out[j].as_ref().is_none_or(better) {
                out[j] = Some((q, surface.plan_id(q)));
            }
        }
        // In dimension order, `P^j_max` spilling on `e_j` with budget
        // `CC_i`. A dimension no contour plan spills on is skipped (§4.2).
        let budget = d.contours.cost(i);
        (out.into_iter().enumerate())
            .filter_map(|(dim, sel)| {
                let (_, pid) = sel?;
                let exec = Exec::new(surface, PlanChoice::Pool(pid), budget);
                Some(Step::Spill { dim, exec })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CostOracle;
    use crate::report::{ExecMode, Outcome};
    use crate::test_fixtures::{star2_surface, star_surface};

    #[test]
    fn completes_everywhere_within_guarantee_2d() {
        let fx = star2_surface(12);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        let guarantee = sb.mso_guarantee();
        assert_eq!(guarantee, 10.0);
        for qa in fx.surface.grid().iter() {
            let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
            let report = sb.run(&mut oracle).expect("SpillBound must complete");
            assert!(report.completed);
            let subopt = report.sub_optimality(fx.surface.opt_cost(qa));
            assert!(
                subopt <= guarantee * (1.0 + 1e-6),
                "qa {:?}: subopt {subopt} > guarantee {guarantee}",
                fx.surface.grid().coords(qa)
            );
        }
    }

    #[test]
    fn completes_everywhere_within_guarantee_3d() {
        let fx = star_surface(3, 7);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        let guarantee = sb.mso_guarantee(); // 18
        for qa in fx.surface.grid().iter() {
            let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
            let report = sb.run(&mut oracle).expect("SpillBound must complete");
            let subopt = report.sub_optimality(fx.surface.opt_cost(qa));
            assert!(
                subopt <= guarantee * (1.0 + 1e-6),
                "qa {:?}: subopt {subopt} > guarantee {guarantee}",
                fx.surface.grid().coords(qa)
            );
        }
    }

    #[test]
    fn learnt_selectivities_match_truth() {
        let fx = star2_surface(12);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        // An interior location forces real discovery.
        let qa = fx.surface.grid().flat(&[7, 5]);
        let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
        let report = sb.run(&mut oracle).unwrap();
        for j in 0..2 {
            if let Some(s) = report.learnt[j] {
                let truth = fx.surface.grid().sel_at(qa, j);
                assert!(
                    (s - truth).abs() <= 1e-12,
                    "dim {j}: learnt {s} != truth {truth}"
                );
            }
        }
        // With two epps, exactly one dimension is learnt by spilling; the
        // other finishes through the 1D bouquet phase.
        assert_eq!(report.learnt.iter().flatten().count(), 1);
    }

    #[test]
    fn spill_records_precede_terminal_full_execution() {
        let fx = star2_surface(12);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        let qa = fx.surface.grid().flat(&[9, 9]);
        let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
        let report = sb.run(&mut oracle).unwrap();
        let last = report.records.last().unwrap();
        assert_eq!(last.mode, ExecMode::Full, "query completes in full mode");
        assert!(matches!(last.outcome, Outcome::Completed { .. }));
        // Budgets never shrink along the discovery sequence.
        for w in report.records.windows(2) {
            assert!(w[1].budget >= w[0].budget * (1.0 - 1e-9));
        }
    }

    #[test]
    fn origin_location_is_cheap() {
        let fx = star2_surface(12);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        let origin = fx.surface.grid().origin();
        let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), origin);
        let report = sb.run(&mut oracle).unwrap();
        let subopt = report.sub_optimality(fx.surface.opt_cost(origin));
        assert!(
            subopt <= 6.0,
            "origin should finish in the first contours, subopt {subopt}"
        );
    }

    #[test]
    fn timed_out_lower_bounds_never_exceed_truth() {
        let fx = star2_surface(12);
        let sb = SpillBound::new(&fx.surface, &fx.opt, 2.0);
        for qa in [
            fx.surface.grid().flat(&[3, 8]),
            fx.surface.grid().flat(&[10, 2]),
            fx.surface.grid().flat(&[11, 11]),
        ] {
            let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
            let report = sb.run(&mut oracle).unwrap();
            for r in &report.records {
                if let (ExecMode::Spill { dim }, Outcome::TimedOut { lower_bound }) =
                    (r.mode, r.outcome)
                {
                    let truth = fx.surface.grid().sel_at(qa, dim);
                    assert!(
                        lower_bound < truth + 1e-15,
                        "lb {lower_bound} overshoots truth {truth}"
                    );
                }
            }
        }
    }
}
