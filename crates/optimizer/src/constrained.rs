//! Constrained optimization: least-cost plan spilling on a chosen epp.
//!
//! AlignedBound (§5) needs an engine feature the paper added to
//! PostgreSQL: *"obtains a least cost plan from optimizer which spills on a
//! user-specified epp"* (§6.1). We implement it as a dynamic program over
//! `(relation-set, first-unlearnt-epp)` states: the extra state component
//! tracks which epp the subplan would spill on (per the §3.1.3 total
//! order), so the cheapest complete plan whose tracked epp equals the
//! target can be read off directly.
//!
//! The enumeration is left-deep; this matches how the feature is consulted
//! (as a *replacement-plan* oracle whose cost only needs to be an upper
//! bound on the cheapest spilling plan — any valid spilling plan induces a
//! correct, if conservative, penalty).

use crate::cost::NodeEstimate;
use crate::dp::Optimizer;
use crate::pipeline::DimMask;
use crate::plan::{JoinMethod, PlanNode, ScanMethod};
use crate::query::{PredId, Sels};
use rqp_common::Cost;

/// Sentinel "no unlearnt epp in subtree".
const NONE_DIM: usize = usize::MAX;

#[derive(Clone)]
struct Entry {
    est: NodeEstimate,
    plan: PlanNode,
}

/// Returns the cheapest plan (and its cost at `sels`) that spills on ESS
/// dimension `target_dim`, given the set of still-`unlearnt` dimensions.
///
/// Returns `None` when no left-deep plan spills on that dimension — e.g.
/// when another unlearnt epp is forced upstream of it in every join order.
pub fn best_plan_spilling_on(
    opt: &Optimizer<'_>,
    sels: &Sels,
    target_dim: usize,
    unlearnt: DimMask,
) -> Option<(PlanNode, Cost)> {
    let query = opt.query();
    let n = query.relations.len();
    let d = query.ndims();
    assert!(target_dim < d, "target dimension out of range");
    if unlearnt & (1 << target_dim) == 0 {
        return None; // a learnt epp can no longer be spilled on
    }
    let model = opt.cost_model();
    let full: u32 = (1u32 << n) - 1;
    let nstates = d + 1;
    let slot = |dim: usize| if dim == NONE_DIM { d } else { dim };

    // table[mask * nstates + state]
    let mut table: Vec<Option<Entry>> = vec![None; ((full as usize) + 1) * nstates];

    // First unlearnt epp among a predicate list, by predicate-id order
    // (matching `pipeline::push_preds`).
    let first_among = |preds: &[PredId]| -> usize {
        let mut best: Option<(PredId, usize)> = None;
        for &p in preds {
            if let Some(dim) = query.dim_of(p) {
                if unlearnt & (1 << dim) != 0 && best.is_none_or(|(bp, _)| p < bp) {
                    best = Some((p, dim));
                }
            }
        }
        best.map_or(NONE_DIM, |(_, dim)| dim)
    };

    // Seed single relations.
    for r in 0..n {
        let f = first_among(opt.rel_filters(r));
        for (plan, est) in opt.scan_candidates(r, sels) {
            let idx = (1usize << r) * nstates + slot(f);
            if table[idx].as_ref().is_none_or(|e| est.cost < e.est.cost) {
                table[idx] = Some(Entry { est, plan });
            }
        }
    }

    for mask in 1..=full {
        if mask.count_ones() < 2 {
            continue;
        }
        let mut new_entries: Vec<Option<Entry>> = vec![None; nstates];
        // Each split is (rest, bit); its sides are (rest outer, bit inner)
        // and, when rest is a single relation, (bit outer, rest inner).
        for split in &opt.left_deep[mask as usize] {
            let preds = &split.preds;
            let node_first = first_among(preds);
            for &(lmask, rmask, ref key_order) in &split.sides {
                let rel_inner = rmask.trailing_zeros() as usize;
                for lf in 0..nstates {
                    let Some(lentry) = &table[lmask as usize * nstates + lf] else {
                        continue;
                    };
                    for rf in 0..nstates {
                        let Some(rentry) = &table[rmask as usize * nstates + rf] else {
                            continue;
                        };
                        // order: right (build/inner), left (probe), node
                        let combined = if rf < d {
                            rf
                        } else if lf < d {
                            lf
                        } else {
                            node_first
                        };
                        let cslot = slot(combined);
                        let (l_est, r_est) = (lentry.est, rentry.est);
                        // Hash, sort-merge and nested-loop.
                        for &method in &JoinMethod::ALL[..3] {
                            let est = model.join_estimate(method, l_est, r_est, preds, sels);
                            let better = new_entries[cslot]
                                .as_ref()
                                .is_none_or(|e| est.cost < e.est.cost);
                            if better {
                                new_entries[cslot] = Some(Entry {
                                    est,
                                    plan: PlanNode::Join {
                                        method,
                                        left: Box::new(lentry.plan.clone()),
                                        right: Box::new(rentry.plan.clone()),
                                        preds: preds.clone(),
                                    },
                                });
                            }
                        }
                        // Index nested-loop: inner must be a bare relation.
                        // Its access is the index; the rf state must come
                        // from the plain scan's filter set (same for all
                        // access paths), so reuse rf.
                        if let Some(ordered) = key_order {
                            let rfilters = opt.rel_filters(rel_inner);
                            let est =
                                model.index_nl_estimate(l_est, rel_inner, rfilters, ordered, sels);
                            // INL inner has no separate pipeline: state
                            // composition is unchanged (inner filters
                            // still precede the node in epp order).
                            let inner_first = first_among(rfilters);
                            let combined = if inner_first != NONE_DIM {
                                inner_first
                            } else if lf < d {
                                lf
                            } else {
                                node_first
                            };
                            let cslot = slot(combined);
                            let better = new_entries[cslot]
                                .as_ref()
                                .is_none_or(|e| est.cost < e.est.cost);
                            if better {
                                new_entries[cslot] = Some(Entry {
                                    est,
                                    plan: PlanNode::Join {
                                        method: JoinMethod::IndexNLJoin,
                                        left: Box::new(lentry.plan.clone()),
                                        right: Box::new(PlanNode::Scan {
                                            rel: rel_inner,
                                            method: ScanMethod::IndexScan,
                                            filters: rfilters.to_vec(),
                                        }),
                                        preds: ordered.to_vec(),
                                    },
                                });
                            }
                        }
                    }
                }
            }
        }
        for (s, e) in new_entries.into_iter().enumerate() {
            table[mask as usize * nstates + s] = e;
        }
    }

    table[full as usize * nstates + target_dim]
        .as_ref()
        .map(|e| (e.plan.clone(), e.est.cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::EnumerationMode;
    use crate::pipeline::spill_dim;
    use crate::query::{Predicate, PredicateKind, QuerySpec};
    use crate::CostParams;
    use rqp_catalog::{Catalog, Column, ColumnStats, DataType, Table};

    fn fixture() -> (Catalog, QuerySpec) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "fact",
            500_000,
            vec![
                Column::new("f1", DataType::Int, ColumnStats::uniform(10_000)).with_index(),
                Column::new("f2", DataType::Int, ColumnStats::uniform(1_000)).with_index(),
            ],
        ))
        .unwrap();
        for (name, rows) in [("d1", 10_000u64), ("d2", 1_000)] {
            cat.add_table(Table::new(
                name,
                rows,
                vec![Column::new("k", DataType::Int, ColumnStats::uniform(rows)).with_index()],
            ))
            .unwrap();
        }
        let query = QuerySpec {
            name: "star2".into(),
            relations: vec![0, 1, 2],
            predicates: vec![
                Predicate {
                    label: "f-d1".into(),
                    kind: PredicateKind::Join {
                        left: 0,
                        left_col: 0,
                        right: 1,
                        right_col: 0,
                    },
                },
                Predicate {
                    label: "f-d2".into(),
                    kind: PredicateKind::Join {
                        left: 0,
                        left_col: 1,
                        right: 2,
                        right_col: 0,
                    },
                },
            ],
            epps: vec![0, 1],
        };
        (cat, query)
    }

    #[test]
    fn returned_plan_spills_on_target() {
        let (cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let sels = opt.sels_at(&[1e-3, 1e-2]);
        for target in 0..2 {
            let (plan, cost) =
                best_plan_spilling_on(&opt, &sels, target, 0b11).expect("plan must exist");
            assert_eq!(
                spill_dim(&plan, &q, 0b11),
                Some(target),
                "plan must spill on dim {target}"
            );
            assert!(cost > 0.0);
            // The constrained plan cannot beat the unconstrained optimum.
            let (_, best) = opt.optimize_with(&sels);
            assert!(cost >= best * (1.0 - 1e-9));
        }
    }

    #[test]
    fn constrained_cost_matches_recosting() {
        let (cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let sels = opt.sels_at(&[0.05, 0.2]);
        let (plan, cost) = best_plan_spilling_on(&opt, &sels, 1, 0b11).unwrap();
        let recost = opt.cost_plan(&plan, &sels);
        assert!((recost - cost).abs() <= 1e-6 * cost);
    }

    #[test]
    fn learnt_dimension_yields_none() {
        let (cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let sels = opt.sels_at(&[1e-3, 1e-2]);
        assert!(best_plan_spilling_on(&opt, &sels, 0, 0b10).is_none());
    }

    #[test]
    fn single_unlearnt_dim_always_spillable() {
        let (cat, q) = fixture();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let sels = opt.sels_at(&[1e-3, 1e-2]);
        let (plan, _) = best_plan_spilling_on(&opt, &sels, 1, 0b10).unwrap();
        assert_eq!(spill_dim(&plan, &q, 0b10), Some(1));
    }
}
