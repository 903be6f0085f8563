//! Lazy sparse ESS discovery (§7: enumeration "limited to the contour
//! locations").
//!
//! [`EssSurface::build`] invokes the optimizer at every one of `res^D`
//! grid locations, which is why high-dimensional workloads are throttled
//! to coarse grids. The paper observes that bouquet-style discovery only
//! ever *executes* contour plans, so the expensive exhaustive sweep can
//! be replaced by on-demand optimization: [`LazySurface`] memoizes
//! `optimize_at` results per cell and discovers each iso-cost contour
//! directly as the maximal skyline of its level set via per-fiber binary
//! search — sound because the cost model is PCM (cost is monotone along
//! every grid axis, so `cmin`/`cmax` come from the two corner cells and
//! each axis fiber crosses a contour budget exactly once).
//!
//! Dense and lazy surfaces are unified behind the [`SurfaceAccess`]
//! trait, which every consumer ([`crate::ContourSet`], the anorexic
//! reducer, SB/AB/PB discovery in `rqp-core`) accepts as
//! `&dyn SurfaceAccess`. The dense implementation is the
//! identity over the precomputed arrays, so all dense results are
//! bit-identical to before the refactor.

use crate::surface::EssSurface;
use crate::view::EssView;
use rqp_common::{cost_le, Cost, GridIdx, MultiGrid};
use rqp_optimizer::{Optimizer, PlanId, PlanNode, PlanPool};
use std::collections::HashMap;
use std::sync::Mutex;

/// Uniform read access to an optimal-cost surface, dense or lazy.
///
/// Implementors guarantee that `opt_cost`/`plan_id` answer for *any* grid
/// location (materializing on demand if necessary) and that plan ids are
/// stable for the lifetime of the surface instance. Plan id *numbering*
/// is instance-specific — a lazy surface interns plans in materialization
/// order — so cross-surface comparisons must go through plan structure
/// (fingerprints), never raw ids.
pub trait SurfaceAccess: std::fmt::Debug + Sync {
    /// The underlying grid.
    fn grid(&self) -> &MultiGrid;

    /// Optimal cost at a location (materializes it if needed).
    fn opt_cost(&self, idx: GridIdx) -> Cost;

    /// Optimal plan id at a location (materializes it if needed).
    fn plan_id(&self, idx: GridIdx) -> PlanId;

    /// An owned copy of pool plan `pid`.
    fn plan_clone(&self, pid: PlanId) -> PlanNode;

    /// The structural fingerprint of pool plan `pid`.
    fn plan_fingerprint(&self, pid: PlanId) -> u64 {
        self.plan_clone(pid).fingerprint()
    }

    /// Number of plans interned so far.
    fn pool_len(&self) -> usize;

    /// Minimum cost — at the origin, by PCM.
    fn cmin(&self) -> Cost;

    /// Maximum cost — at the terminus, by PCM.
    fn cmax(&self) -> Cost;

    /// Number of cells whose optimal plan/cost is known.
    fn cells_materialized(&self) -> usize;

    /// Number of `optimize_at` invocations performed so far.
    fn optimizer_calls(&self) -> u64;

    /// The maximal skyline of the `cc` level set within `view`, ascending
    /// by flat index: locations inside the level set whose every
    /// free-dimension successor either leaves the grid or exceeds `cc`.
    ///
    /// The default scans every view location — correct for dense
    /// surfaces; [`LazySurface`] overrides it with per-fiber binary
    /// search so only a thin band of cells is ever optimized.
    fn skyline(&self, view: &EssView, cc: Cost) -> Vec<GridIdx> {
        let grid = self.grid();
        let free = view.free_dims();
        view.locations(grid)
            .into_iter()
            .filter(|&q| {
                cost_le(self.opt_cost(q), cc)
                    && free.iter().all(|&j| match grid.succ_along(q, j) {
                        None => true,
                        Some(s) => !cost_le(self.opt_cost(s), cc),
                    })
            })
            .collect()
    }
}

impl SurfaceAccess for EssSurface {
    fn grid(&self) -> &MultiGrid {
        EssSurface::grid(self)
    }

    fn opt_cost(&self, idx: GridIdx) -> Cost {
        EssSurface::opt_cost(self, idx)
    }

    fn plan_id(&self, idx: GridIdx) -> PlanId {
        EssSurface::plan_id(self, idx)
    }

    fn plan_clone(&self, pid: PlanId) -> PlanNode {
        self.pool().get(pid).clone()
    }

    fn plan_fingerprint(&self, pid: PlanId) -> u64 {
        self.pool().get(pid).fingerprint()
    }

    fn pool_len(&self) -> usize {
        self.pool().len()
    }

    fn cmin(&self) -> Cost {
        EssSurface::cmin(self)
    }

    fn cmax(&self) -> Cost {
        EssSurface::cmax(self)
    }

    fn cells_materialized(&self) -> usize {
        self.len()
    }

    fn optimizer_calls(&self) -> u64 {
        self.len() as u64
    }
}

/// Mutable interior of a [`LazySurface`]: the per-cell memo, the interned
/// pool, and the call counter, all behind one mutex so concurrent readers
/// see a consistent snapshot and each cell is optimized exactly once.
#[derive(Debug, Default)]
struct LazyState {
    cost: HashMap<GridIdx, Cost>,
    plan: HashMap<GridIdx, PlanId>,
    pool: PlanPool,
    calls: u64,
}

/// An ESS surface materialized on demand.
///
/// Calls `optimize_at` with exactly the selectivity vectors
/// [`EssSurface::build`] would use, so memoized costs and plan
/// *structures* are bit-identical to the dense surface's — only the plan
/// id numbering differs (interning happens in materialization order, not
/// flat-index order).
#[derive(Debug)]
pub struct LazySurface<'a> {
    opt: &'a Optimizer<'a>,
    grid: MultiGrid,
    state: Mutex<LazyState>,
}

impl<'a> LazySurface<'a> {
    /// Creates a lazy surface over `grid`, eagerly materializing only the
    /// two corner cells (they define `cmin`/`cmax` and the contour
    /// schedule, by PCM).
    pub fn new(opt: &'a Optimizer<'a>, grid: MultiGrid) -> Self {
        assert_eq!(
            grid.ndims(),
            opt.query().ndims(),
            "grid dimensionality must match the query's epp count"
        );
        let s = Self {
            opt,
            grid,
            state: Mutex::new(LazyState::default()),
        };
        s.opt_cost(s.grid.origin());
        s.opt_cost(s.grid.terminus());
        s
    }

    /// Cost and plan id at `idx`, optimizing the cell on first access.
    fn materialize(&self, idx: GridIdx) -> (Cost, PlanId) {
        let mut st = self.state.lock().expect("lazy surface lock");
        if let Some(&c) = st.cost.get(&idx) {
            return (c, st.plan[&idx]);
        }
        let (plan, cost) = self.opt.optimize_at(&self.grid.sels(idx));
        st.calls += 1;
        let pid = st.pool.intern(plan);
        st.cost.insert(idx, cost);
        st.plan.insert(idx, pid);
        (cost, pid)
    }

    /// The maximal fitting `d0`-coordinate on the axis fiber whose
    /// `d0 = 0` cell is `base` (`None` when even that cell exceeds `cc`),
    /// memoized per fiber.
    fn fiber_env(
        &self,
        base: GridIdx,
        d0: usize,
        cc: Cost,
        memo: &mut HashMap<GridIdx, Option<usize>>,
    ) -> Option<usize> {
        if let Some(&e) = memo.get(&base) {
            return e;
        }
        let n = self.grid.dim(d0).len();
        let fits = |c: usize| cost_le(self.opt_cost(self.grid.with_coord(base, d0, c)), cc);
        let e = if !fits(0) {
            None
        } else {
            let (mut lo, mut hi) = (0usize, n - 1);
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if fits(mid) {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            if fits(lo) && (lo + 1 == n || !fits(lo + 1)) {
                Some(lo)
            } else {
                // Epsilon broke prefix-ness of the fitting range; a linear
                // scan recovers the exact dense answer.
                (0..n).rfind(|&c| fits(c))
            }
        };
        memo.insert(base, e);
        e
    }

    /// Recursive fiber enumeration for the lazy skyline: `coords` holds
    /// the pins, zeros for `d0` and for every rest dimension not yet
    /// assigned; level `k` sweeps `rest[k]`. Prefix pruning: if the
    /// minimal cell of a subtree exceeds `cc`, every cell in it does (all
    /// dominate it, PCM), and so does every higher-coordinate sibling
    /// subtree — the sweep stops.
    #[allow(clippy::too_many_arguments)]
    fn sky_rec(
        &self,
        cc: Cost,
        d0: usize,
        rest: &[usize],
        k: usize,
        coords: &mut Vec<usize>,
        memo: &mut HashMap<GridIdx, Option<usize>>,
        out: &mut Vec<GridIdx>,
    ) {
        let grid = &self.grid;
        if k == rest.len() {
            let base = grid.flat(coords);
            let Some(e) = self.fiber_env(base, d0, cc, memo) else {
                return;
            };
            // A fiber contributes at most one skyline cell: its envelope.
            // The d0-successor condition holds by construction of `e`;
            // each rest-dimension successor (e, r + u_j) fits iff the
            // neighboring fiber's envelope reaches e.
            for &j in rest {
                if let Some(s) = grid.succ_along(base, j) {
                    if self.fiber_env(s, d0, cc, memo).is_some_and(|es| es >= e) {
                        return;
                    }
                }
            }
            out.push(grid.with_coord(base, d0, e));
            return;
        }
        let j = rest[k];
        for c in 0..grid.dim(j).len() {
            coords[j] = c;
            let probe = grid.flat(coords);
            if !cost_le(self.opt_cost(probe), cc) {
                break;
            }
            self.sky_rec(cc, d0, rest, k + 1, coords, memo, out);
        }
        coords[j] = 0;
    }
}

impl SurfaceAccess for LazySurface<'_> {
    fn grid(&self) -> &MultiGrid {
        &self.grid
    }

    fn opt_cost(&self, idx: GridIdx) -> Cost {
        self.materialize(idx).0
    }

    fn plan_id(&self, idx: GridIdx) -> PlanId {
        self.materialize(idx).1
    }

    fn plan_clone(&self, pid: PlanId) -> PlanNode {
        self.state
            .lock()
            .expect("lazy surface lock")
            .pool
            .get(pid)
            .clone()
    }

    fn pool_len(&self) -> usize {
        self.state.lock().expect("lazy surface lock").pool.len()
    }

    fn cmin(&self) -> Cost {
        self.opt_cost(self.grid.origin())
    }

    fn cmax(&self) -> Cost {
        self.opt_cost(self.grid.terminus())
    }

    fn cells_materialized(&self) -> usize {
        self.state.lock().expect("lazy surface lock").cost.len()
    }

    fn optimizer_calls(&self) -> u64 {
        self.state.lock().expect("lazy surface lock").calls
    }

    /// Exact lazy skyline: identical location set to the dense scan, but
    /// only fibers whose minimal cell fits (plus one pruning probe per
    /// abandoned subtree) are ever optimized, and each probed fiber costs
    /// `O(log n)` optimizer calls instead of `n`.
    fn skyline(&self, view: &EssView, cc: Cost) -> Vec<GridIdx> {
        let grid = &self.grid;
        let free = view.free_dims();
        let mut coords: Vec<usize> = view.pins().iter().map(|p| p.unwrap_or(0)).collect();
        if free.is_empty() {
            let q = grid.flat(&coords);
            return if cost_le(self.opt_cost(q), cc) {
                vec![q]
            } else {
                Vec::new()
            };
        }
        let d0 = free[0];
        let rest = &free[1..];
        let mut memo = HashMap::new();
        let mut out = Vec::new();
        self.sky_rec(cc, d0, rest, 0, &mut coords, &mut memo, &mut out);
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contours::ContourSet;
    use crate::surface::test_fixtures::star2;
    use rqp_optimizer::{CostParams, EnumerationMode, Optimizer};

    fn fixture() -> (rqp_catalog::Catalog, rqp_optimizer::QuerySpec) {
        star2()
    }

    fn grid(n: usize) -> MultiGrid {
        MultiGrid::uniform(2, 1e-5, n)
    }

    #[test]
    fn lazy_costs_and_corners_match_dense() {
        let (cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let dense = EssSurface::build(&opt, grid(10));
        let lazy = LazySurface::new(&opt, grid(10));
        assert_eq!(lazy.cmin().to_bits(), dense.cmin().to_bits());
        assert_eq!(lazy.cmax().to_bits(), dense.cmax().to_bits());
        assert_eq!(lazy.cells_materialized(), 2);
        for idx in dense.grid().iter() {
            assert_eq!(
                SurfaceAccess::opt_cost(&lazy, idx).to_bits(),
                dense.opt_cost(idx).to_bits(),
                "cost diverged at {idx}"
            );
            // Ids differ, structures must not.
            assert_eq!(
                lazy.plan_clone(SurfaceAccess::plan_id(&lazy, idx)),
                *dense.plan(idx),
                "plan diverged at {idx}"
            );
        }
        assert_eq!(lazy.cells_materialized(), dense.len());
        assert_eq!(lazy.optimizer_calls(), dense.len() as u64);
        // Same POSP, possibly renumbered.
        assert_eq!(lazy.pool_len(), dense.posp_size());
    }

    #[test]
    fn lazy_skyline_is_bit_equal_to_dense_on_all_contours_and_views() {
        let (cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let dense = EssSurface::build(&opt, grid(16));
        let lazy = LazySurface::new(&opt, grid(16));
        let contours = ContourSet::build(&lazy, 2.0);
        let views = [
            EssView::full(2),
            EssView::full(2).pin(0, 5),
            EssView::full(2).pin(1, 3),
            EssView::full(2).pin(0, 0).pin(1, 0),
        ];
        for view in &views {
            for i in 0..contours.len() {
                let cc = contours.cost(i);
                assert_eq!(
                    lazy.skyline(view, cc),
                    dense.skyline(view, cc),
                    "skyline diverged: contour {i}, view {view:?}"
                );
            }
        }
    }

    #[test]
    fn lazy_contour_discovery_materializes_strictly_less_than_the_grid() {
        let (cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let lazy = LazySurface::new(&opt, grid(16));
        let contours = ContourSet::build(&lazy, 2.0);
        let view = EssView::full(2);
        for i in 0..contours.len() {
            lazy.skyline(&view, contours.cost(i));
        }
        let n = lazy.grid().len();
        assert!(
            lazy.cells_materialized() < n,
            "contour discovery should not touch every cell: {} of {n}",
            lazy.cells_materialized()
        );
        assert!(lazy.optimizer_calls() > 0);
        assert!(lazy.optimizer_calls() <= lazy.cells_materialized() as u64);
    }
}
