//! Iso-cost contours (§2.5).
//!
//! Contour costs follow the paper's geometric schedule: `CC_1 = C_min`,
//! `CC_i = ratio · CC_{i-1}` (ratio 2 in the paper's main development), and
//! the final contour is capped at `C_max`.
//!
//! On the discretized grid a contour is the **maximal skyline** of its
//! cost level set: location `q` belongs to `IC_i` iff `OptCost(q) ≤ CC_i`
//! and *every* single-coordinate successor either leaves the grid or
//! exceeds `CC_i`. Two properties follow:
//!
//! * **covering** — every location `qa` with `OptCost(qa) ≤ CC_i` is
//!   dominated by some contour location (greedily bump any coordinate
//!   while the cost stays within `CC_i`), so a budget-`CC_i` execution of
//!   that location's plan at `qa` completes, by PCM — this is what the
//!   discovery guarantees (Lemmas 3.2/4.3) rest on;
//! * **antichain** — no contour location dominates another (stepping from
//!   the dominated one toward the dominating one stays inside the level
//!   set, contradicting maximality), so contours are thin: each grid
//!   location lies on at most a couple of contours.

use crate::lazy::SurfaceAccess;
use crate::view::EssView;
use rqp_common::{cost_le, Cost, GridIdx};
use serde::{Deserialize, Serialize};

/// The geometric schedule of contour costs for one surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContourSet {
    costs: Vec<Cost>,
    ratio: f64,
}

impl ContourSet {
    /// Builds the schedule from a surface's cost range with the given
    /// inter-contour cost `ratio` (> 1; the paper uses 2). Only the two
    /// corner cells are consulted (by PCM they bound the cost range), so
    /// this is cheap even on a [`crate::LazySurface`].
    pub fn build(surface: &dyn SurfaceAccess, ratio: f64) -> Self {
        assert!(ratio > 1.0, "contour ratio must exceed 1, got {ratio}");
        let cmin = surface.cmin();
        let cmax = surface.cmax();
        let mut costs = vec![cmin];
        let mut c = cmin;
        while c * ratio < cmax {
            c *= ratio;
            costs.push(c);
        }
        if *costs.last().expect("non-empty") < cmax {
            costs.push(cmax);
        }
        Self { costs, ratio }
    }

    /// Number of contours (`m` in the paper).
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// True when only one contour exists (flat surface): `build` always
    /// pushes `cmin`, so "no contours" really means "no geometric steps".
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Cost `CC_i` of contour `i` (0-based).
    pub fn cost(&self, i: usize) -> Cost {
        self.costs[i]
    }

    /// All contour costs, ascending.
    pub fn costs(&self) -> &[Cost] {
        &self.costs
    }

    /// The configured inter-contour ratio.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// The smallest contour index whose cost is `>= c` (the contour a
    /// discovered cost belongs to), clamped to the last contour.
    pub fn contour_of(&self, c: Cost) -> usize {
        match self
            .costs
            .binary_search_by(|x| x.partial_cmp(&c).expect("no NaN costs"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.costs.len() - 1),
        }
    }

    /// The skyline locations of contour `i` within `view`, ascending by
    /// flat index: inside the cost level set, with every free-dimension
    /// successor outside it. Delegates to [`SurfaceAccess::skyline`]: the
    /// dense implementation scans the view, the lazy one runs per-fiber
    /// binary searches — both produce the identical location set.
    pub fn locations(&self, surface: &dyn SurfaceAccess, view: &EssView, i: usize) -> Vec<GridIdx> {
        surface.skyline(view, self.costs[i])
    }

    /// The full-view [`locations`](Self::locations) of every contour from
    /// one pass over the grid (which materializes a lazy surface).
    /// [`cost_le`] against an ascending schedule is monotone, so cell `q`
    /// is inside level set `i` exactly for `i ≥ first(q)`, and on skyline
    /// `i` for `first(q) ≤ i <` the least `first` of its in-grid successors.
    pub fn all_locations(&self, surface: &dyn SurfaceAccess) -> Vec<Vec<GridIdx>> {
        let grid = surface.grid();
        let first: Vec<usize> = grid
            .iter()
            .map(|q| {
                let c = surface.opt_cost(q);
                self.costs.partition_point(|&cc| !cost_le(c, cc))
            })
            .collect();
        let mut out = vec![Vec::new(); self.len()];
        for q in grid.iter() {
            let end = (0..grid.ndims())
                .filter_map(|j| grid.succ_along(q, j))
                .map(|s| first[s])
                .min()
                .unwrap_or(self.len());
            for locs in out.iter_mut().take(end).skip(first[q]) {
                locs.push(q);
            }
        }
        out
    }

    /// Distinct optimal plans on contour `i` within `view` (`PL_i`),
    /// ascending by plan id.
    pub fn plans(&self, surface: &dyn SurfaceAccess, view: &EssView, i: usize) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .locations(surface, view, i)
            .iter()
            .map(|&q| surface.plan_id(q))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Maximum contour density: the largest `|PL_i|` over all contours (the
    /// `ρ` of the PlanBouquet bound), over the full view.
    pub fn max_density(&self, surface: &dyn SurfaceAccess) -> usize {
        let view = EssView::full(surface.grid().ndims());
        (0..self.len())
            .map(|i| self.plans(surface, &view, i).len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::test_fixtures::star2;
    use crate::surface::EssSurface;
    use rqp_common::MultiGrid;
    use rqp_optimizer::{CostParams, EnumerationMode, Optimizer};

    fn surface() -> EssSurface {
        let (cat, q) = star2();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        EssSurface::build(&opt, MultiGrid::uniform(2, 1e-5, 16))
    }

    #[test]
    fn schedule_is_geometric_and_capped() {
        let s = surface();
        let cs = ContourSet::build(&s, 2.0);
        assert!(cs.len() >= 2);
        assert_eq!(cs.cost(0), s.cmin());
        assert_eq!(*cs.costs().last().unwrap(), s.cmax());
        for w in cs.costs().windows(2) {
            assert!(w[1] > w[0]);
            assert!(w[1] <= w[0] * 2.0 * (1.0 + 1e-12));
        }
    }

    #[test]
    fn contour_of_boundaries() {
        let s = surface();
        let cs = ContourSet::build(&s, 2.0);
        assert_eq!(cs.contour_of(s.cmin()), 0);
        assert_eq!(cs.contour_of(s.cmin() * 1.5), 1);
        assert_eq!(cs.contour_of(s.cmax() * 10.0), cs.len() - 1);
    }

    #[test]
    fn covering_property() {
        // Every location with cost <= CC_i is dominated by some contour-i
        // frontier location.
        let s = surface();
        let cs = ContourSet::build(&s, 2.0);
        let view = EssView::full(2);
        for i in 0..cs.len() {
            let cc = cs.cost(i);
            let frontier = cs.locations(&s, &view, i);
            assert!(!frontier.is_empty(), "contour {i} has no locations");
            for qa in s.grid().iter() {
                if s.opt_cost(qa) <= cc {
                    assert!(
                        frontier.iter().any(|&f| s.grid().dominates_eq(f, qa)),
                        "location {:?} (cost {}) not covered by contour {i} (cc {cc})",
                        s.grid().coords(qa),
                        s.opt_cost(qa),
                    );
                }
            }
        }
    }

    #[test]
    fn contour_is_an_antichain() {
        let s = surface();
        let cs = ContourSet::build(&s, 2.0);
        let view = EssView::full(2);
        for i in 0..cs.len() {
            let f = cs.locations(&s, &view, i);
            for &a in &f {
                for &b in &f {
                    if a != b {
                        assert!(
                            !s.grid().dominates_eq(a, b),
                            "contour {i}: {:?} dominates {:?}",
                            s.grid().coords(a),
                            s.grid().coords(b)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn pinned_view_contours_are_consistent() {
        let s = surface();
        let cs = ContourSet::build(&s, 2.0);
        let view = EssView::full(2).pin(0, 5);
        for i in 0..cs.len() {
            for &q in &cs.locations(&s, &view, i) {
                assert_eq!(s.grid().coord(q, 0), 5);
                assert!(cost_le(s.opt_cost(q), cs.cost(i)));
            }
        }
    }

    #[test]
    fn one_dimensional_view_contours_are_single_locations() {
        let s = surface();
        let cs = ContourSet::build(&s, 2.0);
        let view = EssView::full(2).pin(0, 3);
        for i in 0..cs.len() {
            let locs = cs.locations(&s, &view, i);
            assert!(
                locs.len() <= 1,
                "1D frontier must be a single point, got {}",
                locs.len()
            );
        }
    }

    #[test]
    fn max_density_positive() {
        let s = surface();
        let cs = ContourSet::build(&s, 2.0);
        assert!(cs.max_density(&s) >= 1);
    }

    /// A constant-cost surface: `cmin == cmax`, so the schedule collapses
    /// to the single contour `[cmin]`.
    #[derive(Debug)]
    struct FlatSurface {
        grid: MultiGrid,
    }

    impl SurfaceAccess for FlatSurface {
        fn grid(&self) -> &MultiGrid {
            &self.grid
        }
        fn opt_cost(&self, _idx: GridIdx) -> Cost {
            42.0
        }
        fn plan_id(&self, _idx: GridIdx) -> usize {
            0
        }
        fn plan_clone(&self, _pid: usize) -> rqp_optimizer::PlanNode {
            unreachable!("flat fixture has no plans")
        }
        fn pool_len(&self) -> usize {
            1
        }
        fn cmin(&self) -> Cost {
            42.0
        }
        fn cmax(&self) -> Cost {
            42.0
        }
        fn cells_materialized(&self) -> usize {
            self.grid.len()
        }
        fn optimizer_calls(&self) -> u64 {
            0
        }
    }

    /// Regression: `is_empty` used to test `costs.is_empty()`, which is
    /// unreachable (`build` always pushes `cmin`). Per its doc it reports
    /// the single-contour flat-surface case.
    #[test]
    fn flat_surface_yields_single_contour_and_is_empty() {
        let flat = FlatSurface {
            grid: MultiGrid::uniform(2, 1e-5, 8),
        };
        let cs = ContourSet::build(&flat, 2.0);
        assert_eq!(cs.len(), 1);
        assert!(cs.is_empty(), "one contour == flat surface");
        assert_eq!(cs.cost(0), 42.0);
        // Any surface with a real cost spread is non-"empty".
        let s = surface();
        let real = ContourSet::build(&s, 2.0);
        assert!(real.len() > 1);
        assert!(!real.is_empty());
    }
}
