//! Anorexic reduction of contour plan sets [Harish et al., VLDB'07].
//!
//! PlanBouquet's guarantee is `4·(1+λ)·ρ` where `ρ` is the maximum number
//! of plans on any contour. Raw POSP contours are dense, so the paper
//! applies the *anorexic reduction* heuristic: a plan may "swallow" the
//! region of another if it costs at most `(1+λ)` times more everywhere in
//! that region (default λ = 0.2). We implement the reduction per contour as
//! a greedy set cover: choose the fewest plans such that every contour
//! location has a chosen plan within `(1+λ)·CC_i`; bouquet budgets are
//! inflated to `(1+λ)·CC_i` accordingly.
//!
//! There is one cover, over a cost source `cost(plan, location)`: a
//! compile that holds the plan×location matrix passes lookups
//! ([`reduce_all_with`]), [`reduce_all`] / [`reduce_contour`] recost. A
//! cell *is* `cost_plan(plan, sels_at(grid.sels(q)))`, so both agree.

use crate::contours::ContourSet;
use crate::lazy::SurfaceAccess;
use crate::surface::EssSurface;
use crate::view::EssView;
use rqp_common::{Cost, GridIdx};
use rqp_optimizer::{Optimizer, PlanId, PlanNode, Sels};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A contour after anorexic reduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReducedContour {
    /// Contour cost `CC_i` (uninflated).
    pub cost: Cost,
    /// Chosen plans, in greedy-selection order (the bouquet executes them
    /// in this order).
    pub plans: Vec<PlanId>,
}

/// Greedily covers `locations` with plans drawn from their own optimal
/// plans, such that each location has a chosen plan with
/// `cost(plan, location)` at most `(1+lambda) * contour_cost`.
///
/// Always succeeds: a location's own optimal plan costs `≤ CC_i` at that
/// location, so the full plan set is a valid cover.
fn cover(
    surface: &dyn SurfaceAccess,
    locations: &[GridIdx],
    contour_cost: Cost,
    lambda: f64,
    cost: &mut dyn FnMut(PlanId, GridIdx) -> Cost,
) -> ReducedContour {
    assert!(lambda >= 0.0);
    let limit = (1.0 + lambda) * contour_cost * (1.0 + 1e-9);

    // Candidate plans: distinct optimal plans on the contour, ordered by
    // first appearance along the (ascending-flat-index) location list.
    // Locations and plan structures are identical on dense and lazy
    // surfaces while the id *numbering* differs, so ordering by first
    // appearance — rather than by raw id — makes the greedy cover (and
    // its tie-breaks) path-independent.
    let mut cand: Vec<PlanId> = Vec::new();
    for &q in locations {
        let pid = surface.plan_id(q);
        if !cand.contains(&pid) {
            cand.push(pid);
        }
    }

    // One bitset row per candidate: bit `l` of row `c` = candidate c
    // covers location l within the inflated budget (`limit`).
    let words = locations.len().div_ceil(64);
    let mut coverage = vec![0u64; cand.len() * words];
    let mut uncovered = vec![0u64; words];
    for (l, &q) in locations.iter().enumerate() {
        uncovered[l / 64] |= 1 << (l % 64);
        for (c, &pid) in cand.iter().enumerate() {
            if cost(pid, q) <= limit {
                coverage[c * words + l / 64] |= 1 << (l % 64);
            }
        }
    }

    let mut chosen = Vec::new();
    while uncovered.iter().any(|&w| w != 0) {
        // Greedy: candidate covering the most uncovered locations; ties go
        // to the earlier-appearing candidate (deterministic and
        // path-independent).
        let (best_c, best_gain) = coverage
            .chunks_exact(words)
            .map(|row| {
                row.iter()
                    .zip(&uncovered)
                    .map(|(&cov, &unc)| (cov & unc).count_ones())
                    .sum::<u32>()
            })
            .enumerate()
            .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            .expect("candidates non-empty while locations uncovered");
        assert!(
            best_gain > 0,
            "anorexic cover stalled; optimal plan must cover its own location"
        );
        chosen.push(cand[best_c]);
        let row = &coverage[best_c * words..][..words];
        for (unc, &cov) in uncovered.iter_mut().zip(row) {
            *unc &= !cov;
        }
    }

    ReducedContour {
        cost: contour_cost,
        plans: chosen,
    }
}

/// The recosting cost source, memoised per (plan, location): a location
/// lies on several contours and is asked about the same plans on each.
/// [`cover`] asks location by location, so the memo is a plan list per
/// location, fetched when the location changes.
fn recoster<'s>(
    surface: &'s dyn SurfaceAccess,
    optimizer: &'s Optimizer<'_>,
) -> impl FnMut(PlanId, GridIdx) -> Cost + 's {
    type Known = (Sels, Vec<(PlanId, Cost)>);
    let mut plans: HashMap<PlanId, PlanNode> = HashMap::new();
    let mut elsewhere: HashMap<GridIdx, Known> = HashMap::new();
    let mut here: Option<(GridIdx, Known)> = None;
    move |pid, q| {
        if here.as_ref().map(|h| h.0) != Some(q) {
            let known = elsewhere
                .remove(&q)
                .unwrap_or_else(|| (optimizer.sels_at(&surface.grid().sels(q)), Vec::new()));
            if let Some((left, known)) = here.replace((q, known)) {
                elsewhere.insert(left, known);
            }
        }
        let (sels, costs) = &mut here.as_mut().expect("set above").1;
        if let Some(&(_, c)) = costs.iter().find(|&&(p, _)| p == pid) {
            return c;
        }
        let plan = plans.entry(pid).or_insert_with(|| surface.plan_clone(pid));
        let c = optimizer.cost_plan(plan, sels);
        costs.push((pid, c));
        c
    }
}

/// Reduces one contour, recosting every (candidate plan, location).
pub fn reduce_contour(
    surface: &dyn SurfaceAccess,
    optimizer: &Optimizer<'_>,
    locations: &[GridIdx],
    contour_cost: Cost,
    lambda: f64,
) -> ReducedContour {
    let cost = &mut recoster(surface, optimizer);
    cover(surface, locations, contour_cost, lambda, cost)
}

/// Covers each contour's skyline, in schedule order.
fn reduce_each(
    surface: &dyn SurfaceAccess,
    contours: &ContourSet,
    lambda: f64,
    skylines: impl Iterator<Item = Vec<GridIdx>>,
    cost: &mut dyn FnMut(PlanId, GridIdx) -> Cost,
) -> (Vec<ReducedContour>, usize) {
    let reduced: Vec<ReducedContour> = skylines
        .enumerate()
        .map(|(i, locs)| cover(surface, &locs, contours.cost(i), lambda, cost))
        .collect();
    let rho = reduced.iter().map(|r| r.plans.len()).max().unwrap_or(0);
    (reduced, rho)
}

/// Reduces every contour of `contours` and returns them plus the reduced
/// maximum density `ρ_red`. Works on dense and lazy surfaces (contours are
/// discovered one by one) and recosts through `optimizer`; a caller that
/// holds the cost matrix uses [`reduce_all_with`].
pub fn reduce_all(
    surface: &dyn SurfaceAccess,
    optimizer: &Optimizer<'_>,
    contours: &ContourSet,
    lambda: f64,
) -> (Vec<ReducedContour>, usize) {
    let view = EssView::full(surface.grid().ndims());
    let skylines = (0..contours.len()).map(|i| contours.locations(surface, &view, i));
    let cost = &mut recoster(surface, optimizer);
    reduce_each(surface, contours, lambda, skylines, cost)
}

/// [`reduce_all`] of a dense surface over a caller-supplied cost source,
/// e.g. `|pid, q| matrix.cost(pid, q)`: all skylines come from one grid
/// pass ([`ContourSet::all_locations`]) and nothing is recosted here.
/// `cost(pid, q)` must equal `cost_plan(pool[pid], sels_at(grid.sels(q)))`.
pub fn reduce_all_with(
    surface: &EssSurface,
    contours: &ContourSet,
    lambda: f64,
    mut cost: impl FnMut(PlanId, GridIdx) -> Cost,
) -> (Vec<ReducedContour>, usize) {
    let skylines = contours.all_locations(surface).into_iter();
    reduce_each(surface, contours, lambda, skylines, &mut cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contours::ContourSet;
    use crate::surface::test_fixtures::star2;
    use crate::surface::EssSurface;
    use crate::view::EssView;
    use rqp_common::MultiGrid;
    use rqp_optimizer::{CostParams, EnumerationMode, Optimizer};

    #[test]
    fn reduction_never_increases_density_and_covers() {
        let (cat, q) = star2();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-5, 16));
        let contours = ContourSet::build(&surface, 2.0);
        let view = EssView::full(2);
        let lambda = 0.2;
        for i in 0..contours.len() {
            let locs = contours.locations(&surface, &view, i);
            let raw = contours.plans(&surface, &view, i);
            let red = reduce_contour(&surface, &opt, &locs, contours.cost(i), lambda);
            assert!(red.plans.len() <= raw.len());
            assert!(!red.plans.is_empty());
            // verify cover
            let budget = (1.0 + lambda) * contours.cost(i);
            for &q_loc in &locs {
                let sels = surface.grid().sels(q_loc);
                let assigned = opt.sels_at(&sels);
                let covered = red.plans.iter().any(|&pid| {
                    opt.cost_plan(surface.pool().get(pid), &assigned) <= budget * (1.0 + 1e-9)
                });
                assert!(covered, "location uncovered after reduction");
            }
        }
    }

    #[test]
    fn zero_lambda_still_valid() {
        let (cat, q) = star2();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-5, 8));
        let contours = ContourSet::build(&surface, 2.0);
        let (reduced, rho) = reduce_all(&surface, &opt, &contours, 0.0);
        assert_eq!(reduced.len(), contours.len());
        assert!(rho >= 1);
    }

    #[test]
    fn larger_lambda_reduces_no_less() {
        let (cat, q) = star2();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let surface = EssSurface::build(&opt, MultiGrid::uniform(2, 1e-5, 16));
        let contours = ContourSet::build(&surface, 2.0);
        let (_, rho_0) = reduce_all(&surface, &opt, &contours, 0.0);
        let (_, rho_05) = reduce_all(&surface, &opt, &contours, 0.5);
        assert!(rho_05 <= rho_0, "λ=0.5 density {rho_05} vs λ=0 {rho_0}");
    }
}
