//! The AlignedBound algorithm (§5, Algorithm 2).
//!
//! AlignedBound narrows the quadratic-to-linear MSO gap by exploiting
//! **alignment**: when the contour plan incident on an ESS boundary spills
//! on the incident dimension, a *single* spill-mode execution yields
//! quantum progress (Lemma 3.3). Where alignment does not hold natively it
//! is *induced* by substituting a (possibly more expensive) plan that does
//! spill on the leader dimension, and generalized from whole contours to
//! **predicate-set alignment** (PSA): a partition `{T_1..T_l}` of the
//! unlearnt epps, each part covered by one leader-plan execution (Lemma
//! 5.3). Per contour the algorithm picks the partition with the minimum
//! total penalty `π*`; the singleton partition (= SpillBound's behavior,
//! penalty ≤ D) is always feasible, so `MSO ∈ [2D+2, D²+3D]`.

use crate::discovery::{Discovery, Exec, Rule, Step};
use rqp_common::{Cost, GridIdx};
use rqp_ess::alignment::PlanChoice;
use rqp_ess::{EssView, SurfaceAccess};
use rqp_optimizer::{constrained, Optimizer, PlanId, PlanNode};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// One part of a candidate partition: the leader dimension, the plan that
/// spills on it, and the spill budget `Cost(P, q)`.
#[derive(Debug, Clone)]
struct PartExec {
    leader: usize,
    plan: PlanChoice,
    budget: Cost,
    penalty: f64,
}

/// AlignedBound's discovery rule: per contour, the partition of the unlearnt
/// epps with the minimum total penalty, one leader execution per part.
#[derive(Debug)]
pub struct Psa {
    /// Bits of the maximum part penalty any decision has chosen (Table
    /// 4). Penalties are at least 1, and the bit patterns of positive
    /// floats order as the floats do, so `fetch_max` on the bits is the
    /// float maximum.
    observed_max_penalty: AtomicU64,
}

/// A compiled AlignedBound instance: immutable, plus a memo of partition
/// decisions, which are pure functions of (contour, pins). Runs take
/// `&self` and keep their state on the stack, so one instance is shared
/// by every run on every thread.
pub type AlignedBound<'a> = Discovery<'a, Psa>;

impl Rule for Psa {
    const ALGO: &'static str = "alignedbound";
    /// One synthesized plan per part, charged the flat 256 bytes the
    /// artifact accounting charges a pool plan.
    const STEP_HEAP: usize = 256;

    /// The partition decision for contour `i` under `pins` — steps S0–S2
    /// of Algorithm 2 — as its leaders' spill steps, in leader order. It
    /// also folds the decision's largest part penalty into the observed
    /// maximum: every value the memo hands out was computed here once.
    fn spill_steps(d: &AlignedBound<'_>, i: usize, pins: &[Option<usize>]) -> Vec<Step> {
        d.partition_steps(i, pins)
    }
}

impl<'a> AlignedBound<'a> {
    /// Compiles AlignedBound with the given inter-contour cost ratio.
    pub fn new(surface: &'a dyn SurfaceAccess, opt: &'a Optimizer<'a>, ratio: f64) -> Self {
        let observed_max_penalty = AtomicU64::new(1.0f64.to_bits());
        let rule = Psa {
            observed_max_penalty,
        };
        Discovery::compile(surface, opt, ratio, rule)
    }

    /// Maximum per-part penalty encountered over all runs so far (the
    /// quantity the paper reports in Table 4).
    pub fn observed_max_penalty(&self) -> f64 {
        f64::from_bits(self.rule.observed_max_penalty.load(Ordering::Relaxed))
    }

    /// Enumerates all set partitions of `items`.
    fn set_partitions(items: &[usize]) -> Vec<Vec<Vec<usize>>> {
        if items.is_empty() {
            return vec![vec![]];
        }
        let first = items[0];
        let rest = Self::set_partitions(&items[1..]);
        let mut out = Vec::new();
        for partition in rest {
            // place `first` into each existing part
            for k in 0..partition.len() {
                let mut p = partition.clone();
                p[k].push(first);
                out.push(p);
            }
            // or into its own part
            let mut p = partition;
            p.push(vec![first]);
            out.push(p);
        }
        out
    }

    /// Enforces PSA for part `t` with leader dimension `j` on the given
    /// contour: returns the cheapest `(plan, budget, penalty)` witness.
    fn psa_enforce(
        &self,
        locs: &[GridIdx],
        locs_by_dim: &HashMap<usize, Vec<GridIdx>>,
        contour_plans: &[PlanId],
        t: &[usize],
        j: usize,
        unlearnt: u32,
    ) -> Option<PartExec> {
        let surface = self.surface;
        let opt = self.opt;
        let grid = surface.grid();
        // Extreme j-coordinate over IC_i|T.
        let qjt_coord = t
            .iter()
            .filter_map(|dim| locs_by_dim.get(dim))
            .flatten()
            .map(|&q| grid.coord(q, j))
            .max()?;
        // S: all contour locations at that j-coordinate.
        let s_locs: Vec<GridIdx> = locs
            .iter()
            .copied()
            .filter(|&q| grid.coord(q, j) == qjt_coord)
            .collect();
        // Native PSA: a location in S whose own plan spills on j.
        for &q in &s_locs {
            if self.spill_cache.of_location(surface, opt, q, unlearnt) == Some(j) {
                return Some(PartExec {
                    leader: j,
                    plan: PlanChoice::Pool(surface.plan_id(q)),
                    budget: surface.opt_cost(q),
                    penalty: 1.0,
                });
            }
        }
        // Induced PSA: cheapest replacement among the contour's own plans
        // that spill on j, plus the constrained optimizer, both probed at
        // a deterministic sample of S (they are upper-bound oracles;
        // sampling trades precision for speed without affecting
        // soundness).
        let spillers: Vec<(PlanId, PlanNode)> = contour_plans
            .iter()
            .copied()
            .filter(|&pid| self.spill_cache.of_plan(surface, opt, pid, unlearnt) == Some(j))
            .map(|pid| (pid, surface.plan_clone(pid)))
            .collect();
        let mut best: Option<PartExec> = None;
        let consider = |plan: PlanChoice, cost: Cost, q: GridIdx, best: &mut Option<PartExec>| {
            let penalty = cost / surface.opt_cost(q);
            if best.as_ref().is_none_or(|b| penalty < b.penalty) {
                *best = Some(PartExec {
                    leader: j,
                    plan,
                    budget: cost,
                    penalty,
                });
            }
        };
        let sample: Vec<GridIdx> = if s_locs.len() <= 8 {
            s_locs.clone()
        } else {
            (0..8).map(|k| s_locs[k * (s_locs.len() - 1) / 7]).collect()
        };
        for &q in &sample {
            let sels = opt.sels_at(&grid.sels(q));
            for (pid, plan) in &spillers {
                let c = opt.cost_plan(plan, &sels);
                consider(PlanChoice::Pool(*pid), c, q, &mut best);
            }
        }
        // The constrained optimizer is the expensive fallback: consult it
        // only when the pool offers nothing good.
        if best.as_ref().is_none_or(|b| b.penalty > 1.25) {
            for &q in sample.iter().take(3) {
                let sels = opt.sels_at(&grid.sels(q));
                if let Some((plan, c)) = constrained::best_plan_spilling_on(opt, &sels, j, unlearnt)
                {
                    consider(PlanChoice::Custom(Box::new(plan)), c, q, &mut best);
                }
            }
        }
        best
    }

    fn partition_steps(&self, i: usize, pins: &[Option<usize>]) -> Vec<Step> {
        let surface = self.surface;
        let opt = self.opt;
        let view = EssView::from_pins(pins.to_vec());
        let unlearnt = view.free_mask();
        let locs = self.contours.locations(surface, &view, i);

        // Group contour locations by the dimension their plan spills on.
        let mut locs_by_dim: HashMap<usize, Vec<GridIdx>> = HashMap::new();
        for &q in &locs {
            if let Some(j) = self.spill_cache.of_location(surface, opt, q, unlearnt) {
                locs_by_dim.entry(j).or_default().push(q);
            }
        }
        let mut active: Vec<usize> = locs_by_dim.keys().copied().collect();
        active.sort_unstable();
        // First-appearance ordering (by contour location, ascending): the
        // numeric plan ids differ between the dense and lazy surfaces, so
        // candidate order must derive from the locations, which are
        // path-independent.
        let mut contour_plans: Vec<PlanId> = Vec::new();
        for &q in &locs {
            let pid = surface.plan_id(q);
            if !contour_plans.contains(&pid) {
                contour_plans.push(pid);
            }
        }

        // The same (part, leader) pair recurs across many partitions:
        // memoize PSA enforcement per (part-mask, leader).
        let mut psa_memo: HashMap<(u32, usize), Option<PartExec>> = HashMap::new();
        let mut best: Option<(f64, Vec<PartExec>)> = None;
        for partition in Self::set_partitions(&active) {
            let mut total = 0.0;
            let mut parts = Vec::with_capacity(partition.len());
            let mut feasible = true;
            for part in &partition {
                let pmask = part.iter().fold(0u32, |m, &d| m | (1 << d));
                let mut part_best: Option<PartExec> = None;
                for &j in part {
                    let entry = psa_memo
                        .entry((pmask, j))
                        .or_insert_with(|| {
                            self.psa_enforce(&locs, &locs_by_dim, &contour_plans, part, j, unlearnt)
                        })
                        .clone();
                    if let Some(pe) = entry {
                        if part_best.as_ref().is_none_or(|b| pe.penalty < b.penalty) {
                            part_best = Some(pe);
                        }
                    }
                }
                match part_best {
                    Some(pe) => {
                        total += pe.penalty;
                        parts.push(pe);
                    }
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible {
                continue;
            }
            // Deterministic tie-breaking: fewer parts, then leader order.
            let better = match &best {
                None => true,
                Some((bt, bp)) => {
                    total < bt - 1e-12 || ((total - bt).abs() <= 1e-12 && parts.len() < bp.len())
                }
            };
            if better {
                best = Some((total, parts));
            }
        }
        let mut parts = best.map(|(_, parts)| parts).unwrap_or_default();
        parts.sort_by_key(|p| p.leader);
        let max_part_penalty = parts.iter().map(|p| p.penalty).fold(1.0, f64::max);
        (self.rule.observed_max_penalty).fetch_max(max_part_penalty.to_bits(), Ordering::Relaxed);
        (parts.into_iter())
            .map(|p| Step::Spill {
                dim: p.leader,
                exec: Exec::new(surface, p.plan, p.budget),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::CostOracle;
    use crate::test_fixtures::{star2_surface, star_surface};

    #[test]
    fn set_partitions_bell_numbers() {
        assert_eq!(AlignedBound::set_partitions(&[]).len(), 1);
        assert_eq!(AlignedBound::set_partitions(&[0]).len(), 1);
        assert_eq!(AlignedBound::set_partitions(&[0, 1]).len(), 2);
        assert_eq!(AlignedBound::set_partitions(&[0, 1, 2]).len(), 5);
        assert_eq!(AlignedBound::set_partitions(&[0, 1, 2, 3]).len(), 15);
        assert_eq!(AlignedBound::set_partitions(&[0, 1, 2, 3, 4]).len(), 52);
        assert_eq!(AlignedBound::set_partitions(&[0, 1, 2, 3, 4, 5]).len(), 203);
    }

    #[test]
    fn partitions_cover_all_items_disjointly() {
        for p in AlignedBound::set_partitions(&[3, 5, 7, 9]) {
            let mut all: Vec<usize> = p.iter().flatten().copied().collect();
            all.sort_unstable();
            assert_eq!(all, vec![3, 5, 7, 9]);
        }
    }

    #[test]
    fn completes_everywhere_within_guarantee_2d() {
        let fx = star2_surface(12);
        let ab = AlignedBound::new(&fx.surface, &fx.opt, 2.0);
        let guarantee = ab.mso_guarantee();
        for qa in fx.surface.grid().iter() {
            let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
            let report = ab.run(&mut oracle).expect("AlignedBound must complete");
            assert!(report.completed);
            let subopt = report.sub_optimality(fx.surface.opt_cost(qa));
            assert!(
                subopt <= guarantee * (1.0 + 1e-6),
                "qa {:?}: subopt {subopt} > {guarantee}",
                fx.surface.grid().coords(qa)
            );
        }
    }

    #[test]
    fn completes_everywhere_within_guarantee_3d() {
        let fx = star_surface(3, 6);
        let ab = AlignedBound::new(&fx.surface, &fx.opt, 2.0);
        let guarantee = ab.mso_guarantee();
        for qa in fx.surface.grid().iter() {
            let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
            let report = ab.run(&mut oracle).expect("AlignedBound must complete");
            let subopt = report.sub_optimality(fx.surface.opt_cost(qa));
            assert!(
                subopt <= guarantee * (1.0 + 1e-6),
                "qa {:?}: subopt {subopt} > {guarantee}",
                fx.surface.grid().coords(qa)
            );
        }
    }

    #[test]
    fn observed_penalty_at_least_one() {
        let fx = star2_surface(10);
        let ab = AlignedBound::new(&fx.surface, &fx.opt, 2.0);
        let qa = fx.surface.grid().flat(&[6, 6]);
        let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
        ab.run(&mut oracle).unwrap();
        assert!(ab.observed_max_penalty() >= 1.0);
    }

    #[test]
    fn learnt_values_match_truth() {
        let fx = star2_surface(12);
        let ab = AlignedBound::new(&fx.surface, &fx.opt, 2.0);
        let qa = fx.surface.grid().flat(&[8, 4]);
        let mut oracle = CostOracle::at_grid(&fx.opt, fx.surface.grid(), qa);
        let report = ab.run(&mut oracle).unwrap();
        for j in 0..2 {
            if let Some(s) = report.learnt[j] {
                let truth = fx.surface.grid().sel_at(qa, j);
                assert!((s - truth).abs() <= 1e-12);
            }
        }
    }
}
