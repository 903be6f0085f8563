//! Contour alignment and its induction (§3.3, §5.1, Table 2).
//!
//! A contour is *aligned along dimension `j`* when an extreme location of
//! the contour in dimension `j` has an optimal plan that spills on `e_j`;
//! an aligned contour can make quantum progress with a **single**
//! budgeted execution (Lemma 3.3). Where alignment does not hold natively
//! it can be *induced* by replacing the optimal plan at an extreme location
//! with a plan that does spill on `e_j`, paying a penalty
//! `ε = Cost(P_j, q_ext) / Cost(P_{q_ext}, q_ext)`.
//!
//! [`analyze`] reproduces the paper's Table 2: the fraction of contours
//! aligned natively and under penalty caps, plus the maximum penalty needed
//! to align every contour.

use crate::contours::ContourSet;
use crate::lazy::SurfaceAccess;
use crate::view::EssView;
use rqp_common::{GridIdx, MultiGrid};
use rqp_optimizer::pipeline::{spill_dim, DimMask};
use rqp_optimizer::{constrained, Optimizer, PlanId};
use std::collections::HashMap;
use std::sync::RwLock;

/// Memoized spill-dimension lookup per `(plan, unlearnt-mask)` pair.
///
/// Shared by reference: the map sits behind a lock that is never held
/// while a spill dimension is computed. The value is a pure function of
/// the key, so two threads that race on a miss insert the same thing.
/// At most `pool_len · 2^D` entries.
#[derive(Debug, Default)]
pub struct SpillDimCache {
    map: RwLock<HashMap<(PlanId, DimMask), Option<usize>>>,
}

impl SpillDimCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The dimension the optimal plan at `q` spills on, given `unlearnt`.
    pub fn of_location(
        &self,
        surface: &dyn SurfaceAccess,
        opt: &Optimizer<'_>,
        q: GridIdx,
        unlearnt: DimMask,
    ) -> Option<usize> {
        self.of_plan(surface, opt, surface.plan_id(q), unlearnt)
    }

    /// The dimension pool plan `pid` spills on, given `unlearnt`. The plan
    /// is cloned out of the surface only on a cache miss.
    pub fn of_plan(
        &self,
        surface: &dyn SurfaceAccess,
        opt: &Optimizer<'_>,
        pid: PlanId,
        unlearnt: DimMask,
    ) -> Option<usize> {
        const POISONED: &str = "a thread panicked holding the spill-dimension cache";
        if let Some(&dim) = self.map.read().expect(POISONED).get(&(pid, unlearnt)) {
            return dim;
        }
        let dim = spill_dim(&surface.plan_clone(pid), opt.query(), unlearnt);
        self.map
            .write()
            .expect(POISONED)
            .insert((pid, unlearnt), dim);
        dim
    }
}

/// Locations of `locs` extreme (maximal coordinate) along `dim`.
pub fn extreme_locations(grid: &MultiGrid, locs: &[GridIdx], dim: usize) -> Vec<GridIdx> {
    let max = match locs.iter().map(|&q| grid.coord(q, dim)).max() {
        Some(m) => m,
        None => return Vec::new(),
    };
    locs.iter()
        .copied()
        .filter(|&q| grid.coord(q, dim) == max)
        .collect()
}

/// The minimum penalty to align contour `locs` along `dim`, and the chosen
/// `(plan, location)` witness. Penalty 1.0 means natively aligned.
///
/// Candidates: the POSP pool plans that spill on `dim`, plus the
/// constrained-optimizer plan at each extreme location.
pub fn align_penalty(
    surface: &dyn SurfaceAccess,
    opt: &Optimizer<'_>,
    cache: &SpillDimCache,
    locs: &[GridIdx],
    dim: usize,
    unlearnt: DimMask,
) -> Option<AlignChoice> {
    let ext = extreme_locations(surface.grid(), locs, dim);
    if ext.is_empty() {
        return None;
    }
    let grid = surface.grid();
    let mut best: Option<AlignChoice> = None;

    // Native alignment: an extreme location whose own plan spills on dim.
    for &q in &ext {
        if cache.of_location(surface, opt, q, unlearnt) == Some(dim) {
            let choice = AlignChoice {
                location: q,
                plan: PlanChoice::Pool(surface.plan_id(q)),
                cost: surface.opt_cost(q),
                penalty: 1.0,
            };
            return Some(choice);
        }
    }

    // Pool plans spilling on dim, recosted at each extreme location
    // (cloned out of the surface once, before the per-location loop).
    let spillers: Vec<(PlanId, rqp_optimizer::PlanNode)> = (0..surface.pool_len())
        .filter(|&pid| cache.of_plan(surface, opt, pid, unlearnt) == Some(dim))
        .map(|pid| (pid, surface.plan_clone(pid)))
        .collect();
    for &q in &ext {
        let sels = opt.sels_at(&grid.sels(q));
        let opt_cost = surface.opt_cost(q);
        for (pid, plan) in &spillers {
            let c = opt.cost_plan(plan, &sels);
            let penalty = c / opt_cost;
            if best.as_ref().is_none_or(|b| penalty < b.penalty) {
                best = Some(AlignChoice {
                    location: q,
                    plan: PlanChoice::Pool(*pid),
                    cost: c,
                    penalty,
                });
            }
        }
        // Constrained optimizer: least-cost plan spilling on dim at q.
        if let Some((plan, c)) = constrained::best_plan_spilling_on(opt, &sels, dim, unlearnt) {
            let penalty = c / opt_cost;
            if best.as_ref().is_none_or(|b| penalty < b.penalty) {
                best = Some(AlignChoice {
                    location: q,
                    plan: PlanChoice::Custom(Box::new(plan)),
                    cost: c,
                    penalty,
                });
            }
        }
    }
    best
}

/// How an alignment (or PSA) replacement is realized.
#[derive(Debug, Clone)]
pub enum PlanChoice {
    /// An existing POSP plan.
    Pool(PlanId),
    /// A plan synthesized by the constrained optimizer.
    Custom(Box<rqp_optimizer::PlanNode>),
}

/// A chosen alignment witness.
#[derive(Debug, Clone)]
pub struct AlignChoice {
    /// The extreme location whose plan is (notionally) replaced.
    pub location: GridIdx,
    /// The replacement plan.
    pub plan: PlanChoice,
    /// `Cost(plan, location)` — the spill-mode budget.
    pub cost: rqp_common::Cost,
    /// `cost / OptCost(location)`; 1.0 when natively aligned.
    pub penalty: f64,
}

/// Per-contour alignment summary.
#[derive(Debug, Clone)]
pub struct ContourAlignment {
    /// Contour index.
    pub contour: usize,
    /// Cheapest alignment penalty across dimensions (1.0 = native).
    pub min_penalty: Option<f64>,
}

/// The Table-2 style report for one query.
#[derive(Debug, Clone)]
pub struct AlignmentReport {
    /// Per-contour summaries.
    pub contours: Vec<ContourAlignment>,
}

impl AlignmentReport {
    /// Percentage of contours alignable with penalty `<= cap`.
    pub fn percent_aligned(&self, cap: f64) -> f64 {
        if self.contours.is_empty() {
            return 0.0;
        }
        let n = self
            .contours
            .iter()
            .filter(|c| c.min_penalty.is_some_and(|p| p <= cap * (1.0 + 1e-9)))
            .count();
        100.0 * n as f64 / self.contours.len() as f64
    }

    /// The maximum over contours of the minimum alignment penalty — the
    /// "Max ε" column of Table 2. `None` if some contour cannot be aligned.
    pub fn max_penalty(&self) -> Option<f64> {
        self.contours
            .iter()
            .map(|c| c.min_penalty)
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().fold(1.0, f64::max))
    }
}

/// Analyzes alignment over every contour of a surface (all epps unlearnt,
/// as in the paper's offline characterization).
pub fn analyze(
    surface: &dyn SurfaceAccess,
    opt: &Optimizer<'_>,
    contours: &ContourSet,
) -> AlignmentReport {
    let d = surface.grid().ndims();
    let view = EssView::full(d);
    let unlearnt: DimMask = (1 << d) - 1;
    let cache = SpillDimCache::new();
    let mut out = Vec::with_capacity(contours.len());
    for i in 0..contours.len() {
        let locs = contours.locations(surface, &view, i);
        let min_penalty = (0..d)
            .filter_map(|j| {
                align_penalty(surface, opt, &cache, &locs, j, unlearnt).map(|c| c.penalty)
            })
            .fold(None, |acc: Option<f64>, p| {
                Some(acc.map_or(p, |a| a.min(p)))
            });
        out.push(ContourAlignment {
            contour: i,
            min_penalty,
        });
    }
    AlignmentReport { contours: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::test_fixtures::star2;
    use crate::surface::EssSurface;
    use rqp_optimizer::{CostParams, EnumerationMode, Optimizer};

    fn fixture() -> (EssSurface, rqp_catalog::Catalog, rqp_optimizer::QuerySpec) {
        let (cat, q) = star2();
        let surface = {
            let opt =
                Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
            EssSurface::build(&opt, MultiGrid::uniform(2, 1e-5, 12))
        };
        (surface, cat, q)
    }

    #[test]
    fn extremes_have_max_coordinate() {
        let (surface, _cat, _q) = fixture();
        let locs: Vec<GridIdx> = surface.grid().iter().take(20).collect();
        let ext = extreme_locations(surface.grid(), &locs, 0);
        assert!(!ext.is_empty());
        let max = ext
            .iter()
            .map(|&q| surface.grid().coord(q, 0))
            .max()
            .unwrap();
        for &q in &locs {
            assert!(surface.grid().coord(q, 0) <= max);
        }
        assert!(extreme_locations(surface.grid(), &[], 0).is_empty());
    }

    #[test]
    fn alignment_report_is_complete_and_bounded() {
        let (surface, cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let contours = ContourSet::build(&surface, 2.0);
        let report = analyze(&surface, &opt, &contours);
        assert_eq!(report.contours.len(), contours.len());
        // With a constrained-optimizer fallback, every contour is alignable.
        let max = report.max_penalty().expect("all contours alignable");
        assert!(max >= 1.0);
        // percent_aligned is monotone in the cap.
        let p12 = report.percent_aligned(1.2);
        let p20 = report.percent_aligned(2.0);
        let pmax = report.percent_aligned(max);
        assert!(p12 <= p20 + 1e-9);
        assert!((pmax - 100.0).abs() < 1e-9);
    }

    #[test]
    fn native_alignment_has_penalty_one() {
        let (surface, cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let contours = ContourSet::build(&surface, 2.0);
        let view = EssView::full(2);
        let cache = SpillDimCache::new();
        let mut found_native = false;
        for i in 0..contours.len() {
            let locs = contours.locations(&surface, &view, i);
            for j in 0..2 {
                if let Some(choice) = align_penalty(&surface, &opt, &cache, &locs, j, 0b11) {
                    assert!(choice.penalty >= 1.0 - 1e-9);
                    if (choice.penalty - 1.0).abs() < 1e-9 {
                        found_native = true;
                    }
                }
            }
        }
        assert!(
            found_native,
            "at least one contour should be natively aligned in this fixture"
        );
    }
}
