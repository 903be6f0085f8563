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

use crate::discovery::{ContourMemo, MemoStats, Shared, SpillExec, MEMO_CAP};
use crate::oracle::ExecutionOracle;
use crate::report::RunReport;
use rqp_common::{GridIdx, Result};
use rqp_ess::alignment::{PlanChoice, SpillDimCache};
use rqp_ess::{ContourSet, EssView, SurfaceAccess};
use rqp_obs::Tracer;
use rqp_optimizer::{Optimizer, PlanId};
use std::sync::Arc;

/// Per-contour plan selections: for each dimension, the chosen
/// `(q^j_max, P^j_max)` pair, or `None` if no contour plan spills on it.
type Selections = Vec<Option<(GridIdx, PlanId)>>;

/// How per-contour `(q^j_max, P^j_max)` selections are computed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionMode {
    /// Enumerate the full contour skyline and pick the paper's exact
    /// `P^j_max` per dimension (§3.2). Produces identical selections on
    /// dense and lazy surfaces (the skylines are identical); the default.
    #[default]
    Exact,
    /// Probe only the axis fiber through the view origin: binary-search
    /// the level set's `j`-extreme, then walk the fiber downward until a
    /// location whose optimal plan spills on `e_j`. Materializes
    /// `O(D · n)` cells per pin state instead of whole skylines — the
    /// *warm-up/compile* mode for lazy high-resolution surfaces (it
    /// decides which cells a sparse artifact persists). Completion and
    /// truthful learning are unchanged (contour advance, terminal and
    /// overflow phases are identical), but off-fiber spill groups may be
    /// missed, so pruning is weaker and the D²+3D bound does **not**
    /// carry over — serving runs must use [`SelectionMode::Exact`].
    AxisProbe,
}

/// A compiled SpillBound instance: immutable, plus a memo of per-contour
/// selections, which are pure functions of (contour, pins). Runs take
/// `&self` and keep their state on the stack, so one instance serves
/// every `qa` of a sweep and every request of a daemon, from any number
/// of threads, and the contour analysis is done once per state.
#[derive(Debug)]
pub struct SpillBound<'a> {
    shared: Shared<'a>,
    spill_cache: SpillDimCache,
    execs: ContourMemo<Vec<SpillExec>>,
    mode: SelectionMode,
}

impl<'a> SpillBound<'a> {
    /// Compiles SpillBound with the given inter-contour cost ratio (the
    /// paper's default is 2) and [`SelectionMode::Exact`] selections.
    pub fn new(surface: &'a dyn SurfaceAccess, opt: &'a Optimizer<'a>, ratio: f64) -> Self {
        Self::with_mode(surface, opt, ratio, SelectionMode::Exact)
    }

    /// Compiles SpillBound with an explicit selection mode.
    pub fn with_mode(
        surface: &'a dyn SurfaceAccess,
        opt: &'a Optimizer<'a>,
        ratio: f64,
        mode: SelectionMode,
    ) -> Self {
        Self {
            shared: Shared::new(surface, opt, ratio),
            spill_cache: SpillDimCache::new(),
            execs: ContourMemo::with_cap(MEMO_CAP),
            mode,
        }
    }

    /// Forces the memo's entry cap.
    #[cfg(test)]
    pub(crate) fn with_memo_cap(mut self, cap: usize) -> Self {
        self.execs = ContourMemo::with_cap(cap);
        self
    }

    /// Hits, misses and resident entries of the selection memo.
    pub fn memo_stats(&self) -> MemoStats {
        self.execs.stats()
    }

    /// Most bytes the selection memo and the spill-dimension cache can
    /// come to hold.
    pub fn memo_bytes_bound(&self) -> usize {
        let per_exec = std::mem::size_of::<SpillExec>();
        self.execs.bytes_bound(&self.shared, per_exec)
    }

    /// The active selection mode.
    pub fn selection_mode(&self) -> SelectionMode {
        self.mode
    }

    /// The structural MSO guarantee `D² + 3D`.
    pub fn mso_guarantee(&self) -> f64 {
        crate::spillbound_guarantee(self.shared.ndims())
    }

    /// The contour schedule.
    pub fn contours(&self) -> &ContourSet {
        &self.shared.contours
    }

    /// Attach a structured tracer; subsequent [`run`](Self::run) calls
    /// emit typed events for every contour entry, execution, and learnt
    /// selectivity.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.shared.tracer = tracer;
    }

    /// Computes (memoized) the executions of contour `i` under the given
    /// pins: per unlearnt dimension with a `(q^j_max, P^j_max)` choice, in
    /// dimension order, `P^j_max` spilling on `e_j` with budget `CC_i`. A
    /// dimension no contour plan spills on is skipped (§4.2).
    fn contour_execs(&self, i: usize, pins: &[Option<usize>]) -> Arc<Vec<SpillExec>> {
        self.execs.get_or_compute(i, pins, || {
            let selections = match self.mode {
                SelectionMode::Exact => self.exact_selections(i, pins),
                SelectionMode::AxisProbe => self.axis_probe_selections(i, pins),
            };
            let budget = self.shared.contours.cost(i);
            (selections.into_iter().enumerate())
                .filter_map(|(j, s)| {
                    let plan = PlanChoice::Pool(s?.1);
                    Some(SpillExec::new(self.shared.surface, j, plan, budget))
                })
                .collect()
        })
    }

    /// The paper's selections: group the contour skyline by each
    /// location's spill dimension and keep the `j`-maximal location.
    fn exact_selections(&self, i: usize, pins: &[Option<usize>]) -> Selections {
        let surface = self.shared.surface;
        let opt = self.shared.opt;
        let grid = surface.grid();
        let d = grid.ndims();
        let view = EssView::from_pins(pins.to_vec());
        let unlearnt = view.free_mask();
        let locs = self.shared.contours.locations(surface, &view, i);
        let mut out: Selections = vec![None; d];
        for q in locs {
            let Some(j) = self.spill_cache.of_location(surface, opt, q, unlearnt) else {
                continue;
            };
            let better = match out[j] {
                None => true,
                Some((cur, _)) => {
                    let (qc, cc) = (grid.coord(q, j), grid.coord(cur, j));
                    qc > cc || (qc == cc && q > cur)
                }
            };
            if better {
                out[j] = Some((q, surface.plan_id(q)));
            }
        }
        out
    }

    /// Fiber-probe selections: for each free dimension the level set's
    /// `j`-extreme lies on the axis fiber through the view origin (PCM);
    /// walk that fiber downward to the first location whose plan spills
    /// on `e_j`. All probed locations satisfy `OptCost(q) ≤ CC_i`, so a
    /// budget-`CC_i` spill execution of the chosen plan is within budget
    /// at its own location, exactly as in `Exact` mode.
    fn axis_probe_selections(&self, i: usize, pins: &[Option<usize>]) -> Selections {
        let surface = self.shared.surface;
        let opt = self.shared.opt;
        let grid = surface.grid();
        let d = grid.ndims();
        let cc = self.shared.contours.cost(i);
        let view = EssView::from_pins(pins.to_vec());
        let unlearnt = view.free_mask();
        let mut out: Selections = vec![None; d];
        for j in view.free_dims() {
            let Some(ext) = surface.axis_extreme(&view, cc, j) else {
                continue;
            };
            let mut c = grid.coord(ext, j);
            loop {
                let q = grid.with_coord(ext, j, c);
                if self.spill_cache.of_location(surface, opt, q, unlearnt) == Some(j) {
                    out[j] = Some((q, surface.plan_id(q)));
                    break;
                }
                if c == 0 {
                    break;
                }
                c -= 1;
            }
        }
        out
    }

    /// Runs selectivity discovery against `oracle`.
    pub fn run(&self, oracle: &mut dyn ExecutionOracle) -> Result<RunReport> {
        self.shared
            .run_spilling("spillbound", oracle, |i, pins| self.contour_execs(i, pins))
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
