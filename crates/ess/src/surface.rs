//! The optimal cost surface (OCS) over the ESS grid.

use rqp_common::{Cost, GridIdx, MultiGrid, Result, RqpError};
use rqp_optimizer::{DpSweep, Optimizer, PlanId, PlanKey, PlanNode, PlanPool};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The parametric-optimal-set-of-plans (POSP) surface: for every grid
/// location, the optimizer's optimal plan and its cost (paper Fig. 3).
///
/// Built by exhaustively invoking the optimizer with injected
/// selectivities — exactly the preprocessing the paper performs on its
/// modified PostgreSQL (§6.1 "selectivity injection"). Since this is the
/// expensive part of deployment, surfaces are serializable — "for canned
/// queries, it may be feasible to carry out an offline enumeration" (§7)
/// — and can be built in parallel across threads, "the contour
/// constructions can be carried out in parallel" (§7).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EssSurface {
    grid: MultiGrid,
    opt_cost: Vec<Cost>,
    opt_plan: Vec<PlanId>,
    pool: PlanPool,
}

impl EssSurface {
    /// Sweeps `optimizer` over `grid` and records the optimal plan and
    /// cost at every location: [`build_parallel`](Self::build_parallel)
    /// with one worker.
    pub fn build(optimizer: &Optimizer<'_>, grid: MultiGrid) -> Self {
        Self::build_parallel(optimizer, grid, 1)
    }

    /// The underlying grid.
    pub fn grid(&self) -> &MultiGrid {
        &self.grid
    }

    /// Optimal cost at a location.
    #[inline]
    pub fn opt_cost(&self, idx: GridIdx) -> Cost {
        self.opt_cost[idx]
    }

    /// Optimal plan id at a location.
    #[inline]
    pub fn plan_id(&self, idx: GridIdx) -> PlanId {
        self.opt_plan[idx]
    }

    /// Optimal plan at a location.
    pub fn plan(&self, idx: GridIdx) -> &PlanNode {
        self.pool.get(self.opt_plan[idx])
    }

    /// The interned POSP pool.
    pub fn pool(&self) -> &PlanPool {
        &self.pool
    }

    /// Minimum cost (at the origin, by PCM).
    pub fn cmin(&self) -> Cost {
        self.opt_cost[self.grid.origin()]
    }

    /// Maximum cost (at the terminus, by PCM).
    pub fn cmax(&self) -> Cost {
        self.opt_cost[self.grid.terminus()]
    }

    /// Number of distinct POSP plans.
    pub fn posp_size(&self) -> usize {
        self.pool.len()
    }

    /// Verifies that the optimal cost is monotone along every grid axis —
    /// the observable consequence of PCM plus optimality. Returns the
    /// offending pair on failure.
    pub fn check_monotone(&self) -> Result<()> {
        for idx in self.grid.iter() {
            for j in 0..self.grid.ndims() {
                if let Some(succ) = self.grid.succ_along(idx, j) {
                    if self.opt_cost[succ] < self.opt_cost[idx] {
                        return Err(RqpError::Discovery(format!(
                            "optimal cost not monotone along dim {j}: \
                             cost({:?})={} > cost({:?})={}",
                            self.grid.coords(idx),
                            self.opt_cost[idx],
                            self.grid.coords(succ),
                            self.opt_cost[succ],
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Total number of grid locations.
    pub fn len(&self) -> usize {
        self.opt_cost.len()
    }

    /// Never true: grids are non-empty.
    pub fn is_empty(&self) -> bool {
        self.opt_cost.is_empty()
    }

    /// Builds the surface with `threads` worker threads, each sweeping a
    /// chunk of the grid (§7: contour/POSP construction parallelizes
    /// trivially because locations are independent).
    ///
    /// Every cell equals `optimizer.optimize_at(grid.sels(idx))` bit for
    /// bit, and plan ids are in first-appearance flat order, whatever the
    /// thread count (the same [`rqp_common::chunk_bounds`] partitioning
    /// every parallel sweep in the workspace uses). Each worker walks its
    /// chunk in flat order with one [`DpSweep`], so a step recomputes only
    /// the DP entries the changed dimensions reach, and builds each
    /// distinct plan once; interning happens afterwards in flat order.
    pub fn build_parallel(optimizer: &Optimizer<'_>, grid: MultiGrid, threads: usize) -> Self {
        assert_eq!(
            grid.ndims(),
            optimizer.query().ndims(),
            "grid dimensionality must match the query's epp count"
        );
        let total = grid.len();
        let bounds = rqp_common::chunk_bounds(total, threads);
        let pieces: Vec<_> = std::thread::scope(|s| {
            let grid = &grid;
            let handles: Vec<_> = (bounds.iter())
                .map(|&(lo, hi)| s.spawn(move || sweep_chunk(optimizer, grid, lo, hi)))
                .collect();
            (handles.into_iter())
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        let mut pool = PlanPool::new();
        let mut opt_cost = Vec::with_capacity(total);
        let mut opt_plan = Vec::with_capacity(total);
        for (cells, plans) in pieces {
            let mut plans: Vec<_> = plans.into_iter().map(|plan| (Some(plan), 0)).collect();
            for (cost, local) in cells {
                let (plan, id) = &mut plans[local];
                if let Some(plan) = plan.take() {
                    *id = pool.intern(plan);
                }
                opt_cost.push(cost);
                opt_plan.push(*id);
            }
        }
        Self {
            grid,
            opt_cost,
            opt_plan,
            pool,
        }
    }

    /// Serializes the surface to JSON (offline preprocessing for canned
    /// queries, §7).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("surface serializes")
    }

    /// Restores a surface from [`to_json`](Self::to_json) output.
    pub fn from_json(text: &str) -> Result<Self> {
        let mut s: Self = serde_json::from_str(text)
            .map_err(|e| RqpError::Config(format!("surface deserialization: {e}")))?;
        s.rehydrate()?;
        Ok(s)
    }

    /// Assembles a surface from persisted parts, checked as
    /// [`rehydrate`](Self::rehydrate) checks a deserialized one.
    pub fn from_parts(
        grid: MultiGrid,
        opt_cost: Vec<Cost>,
        opt_plan: Vec<PlanId>,
        pool: PlanPool,
    ) -> Result<Self> {
        let mut s = Self {
            grid,
            opt_cost,
            opt_plan,
            pool,
        };
        s.rehydrate()?;
        Ok(s)
    }

    /// Every location's optimal cost, in flat-index order.
    pub fn opt_costs(&self) -> &[Cost] {
        &self.opt_cost
    }

    /// Every location's optimal plan id, in flat-index order.
    pub fn opt_plans(&self) -> &[PlanId] {
        &self.opt_plan
    }

    /// Rebuilds the (non-serialized) pool fingerprint index and validates
    /// every structural invariant of a freshly deserialized surface: array
    /// lengths match the grid, and every recorded plan id resolves inside
    /// the pool. The plan interning order is itself part of the serialized
    /// state (`pool.plans` in id order), so a rehydrated surface is
    /// bit-identical to the one that was saved.
    ///
    /// Must be called on any surface obtained through `Deserialize` before
    /// use; [`from_json`](Self::from_json) does so automatically.
    pub fn rehydrate(&mut self) -> Result<()> {
        self.pool.rebuild_index();
        if self.opt_cost.len() != self.grid.len() || self.opt_plan.len() != self.grid.len() {
            return Err(RqpError::Config(
                "surface arrays inconsistent with grid".into(),
            ));
        }
        let nplans = self.pool.len();
        if let Some(&bad) = self.opt_plan.iter().find(|&&pid| pid >= nplans) {
            return Err(RqpError::Config(format!(
                "surface references plan id {bad} but pool holds only {nplans} plans"
            )));
        }
        Ok(())
    }
}

/// Optimizes cells `lo..hi` in flat order. Returns each cell's cost and
/// the index of its plan among the chunk's distinct plans, which come in
/// first-appearance order.
fn sweep_chunk(
    opt: &Optimizer<'_>,
    grid: &MultiGrid,
    lo: usize,
    hi: usize,
) -> (Vec<(Cost, usize)>, Vec<PlanNode>) {
    let mut dp = DpSweep::new(opt);
    let mut seen: HashMap<PlanKey, usize> = HashMap::new();
    let mut plans = Vec::new();
    let (mut key, mut last, mut local) = (PlanKey::default(), PlanKey::default(), 0);
    let mut sels = vec![0.0; grid.ndims()];
    let mut cells = Vec::with_capacity(hi - lo);
    for idx in lo..hi {
        for (j, s) in sels.iter_mut().enumerate() {
            *s = grid.sel_at(idx, j);
        }
        let cost = dp.optimize_at(&sels);
        dp.plan_key(&mut key);
        // Neighbouring cells mostly share their plan.
        if plans.is_empty() || key != last {
            local = match seen.get(&key) {
                Some(&i) => i,
                None => {
                    plans.push(dp.plan());
                    seen.insert(key.clone(), plans.len() - 1);
                    plans.len() - 1
                }
            };
            std::mem::swap(&mut key, &mut last);
        }
        cells.push((cost, local));
    }
    (cells, plans)
}

#[cfg(test)]
pub(crate) mod test_fixtures {
    use rqp_catalog::{Catalog, Column, ColumnStats, DataType, Table};
    use rqp_optimizer::{PredicateKind, QuerySpec};

    /// A 2-epp star query over a small synthetic catalog.
    pub fn star2() -> (Catalog, QuerySpec) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "fact",
            1_000_000,
            vec![
                Column::new("f1", DataType::Int, ColumnStats::uniform(10_000)).with_index(),
                Column::new("f2", DataType::Int, ColumnStats::uniform(1_000)).with_index(),
                Column::new("v", DataType::Int, ColumnStats::uniform(1_000)),
            ],
        ))
        .unwrap();
        for (name, rows) in [("d1", 10_000u64), ("d2", 1_000)] {
            cat.add_table(Table::new(
                name,
                rows,
                vec![
                    Column::new("k", DataType::Int, ColumnStats::uniform(rows)).with_index(),
                    Column::new("a", DataType::Int, ColumnStats::uniform(50)),
                ],
            ))
            .unwrap();
        }
        let query = QuerySpec {
            name: "star2".into(),
            relations: vec![0, 1, 2],
            predicates: vec![
                rqp_optimizer::Predicate {
                    label: "f-d1".into(),
                    kind: PredicateKind::Join {
                        left: 0,
                        left_col: 0,
                        right: 1,
                        right_col: 0,
                    },
                },
                rqp_optimizer::Predicate {
                    label: "f-d2".into(),
                    kind: PredicateKind::Join {
                        left: 0,
                        left_col: 1,
                        right: 2,
                        right_col: 0,
                    },
                },
                rqp_optimizer::Predicate {
                    label: "fv".into(),
                    kind: PredicateKind::FilterLe {
                        rel: 0,
                        col: 2,
                        value: 99,
                    },
                },
            ],
            epps: vec![0, 1],
        };
        (cat, query)
    }
}

#[cfg(test)]
mod tests {
    use super::test_fixtures::star2;
    use super::*;
    use rqp_optimizer::{CostParams, EnumerationMode};

    fn surface(n: usize) -> EssSurface {
        let (cat, q) = star2();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let grid = MultiGrid::uniform(2, 1e-5, n);
        EssSurface::build(&opt, grid)
    }

    #[test]
    fn builds_and_is_monotone() {
        let s = surface(12);
        assert_eq!(s.len(), 144);
        s.check_monotone().unwrap();
        assert!(s.cmin() > 0.0);
        assert!(s.cmax() > s.cmin());
        assert_eq!(s.opt_cost(s.grid().origin()), s.cmin());
        assert_eq!(s.opt_cost(s.grid().terminus()), s.cmax());
    }

    #[test]
    fn posp_is_nontrivial() {
        let s = surface(12);
        assert!(
            s.posp_size() >= 3,
            "expected several POSP plans, got {}",
            s.posp_size()
        );
        // Each location's plan id resolves.
        for idx in s.grid().iter() {
            let _ = s.plan(idx);
        }
    }

    #[test]
    fn origin_plan_differs_from_terminus_plan() {
        let s = surface(12);
        assert_ne!(s.plan_id(s.grid().origin()), s.plan_id(s.grid().terminus()));
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::test_fixtures::star2;
    use super::*;
    use rqp_optimizer::{CostParams, EnumerationMode};

    #[test]
    fn parallel_build_matches_sequential() {
        let (cat, q) = star2();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let seq = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-5, 10));
        for threads in [1, 2, 3, 7] {
            let par = EssSurface::build_parallel(&opt, MultiGrid::uniform(2, 1e-5, 10), threads);
            assert_eq!(par.len(), seq.len());
            // Pool contents must be bit-equal: same plans, same ids, same
            // order — interning order is thread-count-independent.
            assert_eq!(par.posp_size(), seq.posp_size(), "{threads} threads");
            for pid in 0..seq.posp_size() {
                assert_eq!(
                    par.pool().get(pid),
                    seq.pool().get(pid),
                    "{threads} threads: pool plan {pid}"
                );
            }
            for idx in seq.grid().iter() {
                assert_eq!(
                    par.opt_cost(idx).to_bits(),
                    seq.opt_cost(idx).to_bits(),
                    "{threads} threads: cost at {idx}"
                );
                assert_eq!(
                    par.plan_id(idx),
                    seq.plan_id(idx),
                    "{threads} threads: plan id at {idx}"
                );
                assert_eq!(par.plan(idx), seq.plan(idx));
            }

            // Save → load must also be bit-identical: the interning order
            // is serialized state, and float text is shortest-round-trip.
            let loaded = EssSurface::from_json(&par.to_json()).unwrap();
            assert_eq!(loaded.posp_size(), seq.posp_size());
            for pid in 0..seq.posp_size() {
                assert_eq!(
                    loaded.pool().get(pid),
                    seq.pool().get(pid),
                    "{threads} threads: loaded pool plan {pid}"
                );
            }
            for idx in seq.grid().iter() {
                assert_eq!(
                    loaded.opt_cost(idx).to_bits(),
                    seq.opt_cost(idx).to_bits(),
                    "{threads} threads: loaded cost at {idx}"
                );
                assert_eq!(loaded.plan_id(idx), seq.plan_id(idx));
            }
            // The rebuilt fingerprint index must re-intern every plan to
            // its original id — interning is stable across save → load.
            let mut pool = loaded.pool().clone();
            for pid in 0..seq.posp_size() {
                let plan = seq.pool().get(pid).clone();
                assert_eq!(pool.intern(plan), pid, "{threads} threads: re-intern {pid}");
            }
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let (cat, q) = star2();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let s = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-5, 8));
        let restored = EssSurface::from_json(&s.to_json()).unwrap();
        assert_eq!(restored.len(), s.len());
        assert_eq!(restored.posp_size(), s.posp_size());
        for idx in s.grid().iter() {
            // JSON may lose the last ulp of a float
            let (a, b) = (restored.opt_cost(idx), s.opt_cost(idx));
            assert!((a - b).abs() <= 1e-12 * b.abs().max(1.0), "{a} vs {b}");
            assert_eq!(restored.plan(idx), s.plan(idx));
        }
        // The rebuilt index must dedup correctly.
        let mut pool = restored.pool().clone();
        let existing = pool.get(0).clone();
        let n = pool.len();
        pool.rebuild_index();
        assert_eq!(pool.intern(existing), 0);
        assert_eq!(pool.len(), n);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(EssSurface::from_json("not json").is_err());
        assert!(EssSurface::from_json("{}").is_err());
    }

    #[test]
    fn rehydrate_rejects_out_of_range_plan_ids() {
        let (cat, q) = star2();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let mut s = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-5, 6));
        s.opt_plan[0] = s.pool.len(); // dangling reference
        let err = EssSurface::from_json(&s.to_json()).unwrap_err();
        assert!(err.to_string().contains("plan id"), "{err}");
    }
}
