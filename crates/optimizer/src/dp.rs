//! Selinger-style dynamic-programming plan enumeration.
//!
//! The optimizer supports two enumeration spaces: classic **left-deep**
//! (composite always on the outer side — fast, used for large ESS sweeps)
//! and **bushy** (all connected splits). Both consider every join method of
//! [`JoinMethod::ALL`] in both orientations, and both access paths per base
//! relation; ties are broken deterministically by enumeration order so the
//! POSP is stable across runs.
//!
//! What no selectivity changes — the connecting predicates of every split,
//! their index nested-loop key orders, the index access paths — is
//! computed once, in [`Optimizer::new`]. [`DpSweep`] keeps the DP table
//! across a walk over ESS locations.

use crate::cost::{CostModel, CostParams, NodeEstimate};
use crate::pipeline::DimMask;
use crate::plan::{JoinMethod, PlanNode, ScanMethod};
use crate::query::{self, PredId, PredicateKind, QuerySpec, Sels};
use rqp_catalog::Catalog;
use rqp_common::{Cost, Result, Selectivity};

/// Plan-space enumeration mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnumerationMode {
    /// Left-deep trees only (composite outer, base-relation inner).
    LeftDeep,
    /// All bushy trees over connected subgraphs.
    Bushy,
}

/// A query optimizer bound to one (catalog, query) pair.
///
/// The optimizer owns the statistics-derived base selectivities; epp
/// selectivities are *injected* per call, which is how the ESS is swept.
#[derive(Debug)]
pub struct Optimizer<'a> {
    catalog: &'a Catalog,
    query: &'a QuerySpec,
    params: CostParams,
    base: Sels,
    /// Join edges as `(pred, left-relation bit, right-relation bit)`, in
    /// predicate id order.
    edges: Vec<(PredId, u32, u32)>,
    /// Sorted filter lists per relation.
    filters: Vec<Vec<PredId>>,
    /// Per relation, each index access path: the driving filter and the
    /// filter list with it rotated to the front.
    index_paths: Vec<Vec<(PredId, Vec<PredId>)>>,
    /// Per relation set, its left-deep splits in enumeration order: what
    /// the DP enumerates in that mode, and what the constrained DP of
    /// [`crate::constrained`] always enumerates.
    pub(crate) left_deep: Vec<Vec<Split>>,
    /// The bushy splits, in bushy mode only.
    bushy: Option<Vec<Vec<Split>>>,
}

/// A split of a relation set into two connected halves some predicate joins.
#[derive(Debug)]
pub(crate) struct Split {
    /// The connecting join predicates, sorted by id.
    pub(crate) preds: Vec<PredId>,
    /// `(outer, inner, index nested-loop key order)` per orientation the
    /// mode allows, in enumeration order. The key order is `preds` with
    /// the first predicate an index on a single-relation inner serves
    /// rotated to the front.
    pub(crate) sides: Vec<(u32, u32, Option<Vec<PredId>>)>,
}

#[derive(Debug, Clone, Copy)]
struct DpEntry {
    est: NodeEstimate,
    step: BuildStep,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum BuildStep {
    /// Sequential scan (`None`) or the relation's `i`-th index path.
    Scan(Option<usize>),
    /// `(method, split, side)`: a join over one side of one of the
    /// relation set's splits.
    Join(JoinMethod, usize, usize),
}

impl<'a> Optimizer<'a> {
    /// Creates an optimizer, validating the query against the catalog.
    pub fn new(
        catalog: &'a Catalog,
        query: &'a QuerySpec,
        params: CostParams,
        mode: EnumerationMode,
    ) -> Result<Self> {
        query.validate(catalog)?;
        let base = query::base_selectivities(catalog, query);
        let mut edges = Vec::new();
        for (i, p) in query.predicates.iter().enumerate() {
            if let PredicateKind::Join { left, right, .. } = p.kind {
                edges.push((i, 1u32 << left, 1u32 << right));
            }
        }
        let filters = (0..query.relations.len())
            .map(|r| {
                let mut f: Vec<PredId> = query.filters_of(r).collect();
                f.sort_unstable();
                f
            })
            .collect();
        let mut opt = Self {
            catalog,
            query,
            params,
            base,
            edges,
            filters,
            index_paths: Vec::new(),
            left_deep: Vec::new(),
            bushy: None,
        };
        let model = opt.cost_model();
        let index_paths = (opt.filters.iter().enumerate())
            .map(|(r, filters)| {
                (filters.iter())
                    .filter(|&&f| match query.predicates[f].kind {
                        PredicateKind::FilterLe { col, .. }
                        | PredicateKind::FilterEq { col, .. } => model.is_indexed(r, col),
                        PredicateKind::Join { .. } => false,
                    })
                    .map(|&f| (f, Self::rotate_front(filters, f)))
                    .collect()
            })
            .collect();
        opt.index_paths = index_paths;
        opt.left_deep = opt.splits(EnumerationMode::LeftDeep);
        if mode == EnumerationMode::Bushy {
            opt.bushy = Some(opt.splits(mode));
        }
        Ok(opt)
    }

    /// Per relation set, the connected splits `mode` enumerates, in its
    /// order.
    fn splits(&self, mode: EnumerationMode) -> Vec<Vec<Split>> {
        let model = self.cost_model();
        let key_order = |preds: &[PredId], inner: u32| {
            let rel = inner.trailing_zeros() as usize;
            let indexed = |&&p: &&PredId| {
                (model.join_col_on(p, rel)).is_some_and(|c| model.is_indexed(rel, c))
            };
            let key = preds.iter().find(indexed);
            key.filter(|_| inner.count_ones() == 1)
                .map(|&key| Self::rotate_front(preds, key))
        };
        let split = |a: u32, b: u32| {
            let preds = self.connecting_preds(a, b);
            (!preds.is_empty()).then(|| {
                // Left-deep keeps a composite on the outer side.
                let sides = [(a, b), (b, a)]
                    .into_iter()
                    .filter(|&(l, r)| {
                        mode == EnumerationMode::Bushy || l.count_ones() > 1 || r.count_ones() == 1
                    })
                    .map(|(l, r)| (l, r, key_order(&preds, r)))
                    .collect();
                Split { preds, sides }
            })
        };
        // Only a split into two connected halves can be a join: the DP
        // has no plan for a disconnected set.
        let mut connected = vec![false; self.full() as usize + 1];
        let mut splits = vec![Vec::new()];
        for mask in 1..=self.full() {
            let mut list = Vec::new();
            match mode {
                EnumerationMode::LeftDeep => {
                    let mut bits = mask;
                    while bits != 0 {
                        let bit = bits & bits.wrapping_neg();
                        bits ^= bit;
                        if connected[(mask ^ bit) as usize] {
                            list.extend(split(mask ^ bit, bit));
                        }
                    }
                }
                EnumerationMode::Bushy => {
                    // Unordered splits, once each.
                    let mut s1 = (mask - 1) & mask;
                    while s1 != 0 {
                        let s2 = mask ^ s1;
                        if s1 > s2 && connected[s1 as usize] && connected[s2 as usize] {
                            list.extend(split(s1, s2));
                        }
                        s1 = (s1 - 1) & mask;
                    }
                }
            }
            connected[mask as usize] = mask.is_power_of_two() || !list.is_empty();
            splits.push(list);
        }
        splits
    }

    fn full(&self) -> u32 {
        (1u32 << self.query.relations.len()) - 1
    }

    fn dp_splits(&self) -> &[Vec<Split>] {
        self.bushy.as_ref().unwrap_or(&self.left_deep)
    }

    /// The bound query.
    pub fn query(&self) -> &QuerySpec {
        self.query
    }

    /// The bound catalog.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }

    /// Statistics-derived base selectivities (non-epp values are treated as
    /// accurate throughout discovery).
    pub fn base_sels(&self) -> &Sels {
        &self.base
    }

    /// The cost model bound to this optimizer's catalog and query.
    pub fn cost_model(&self) -> CostModel<'_> {
        CostModel::new(self.catalog, self.query, &self.params)
    }

    /// Builds the full selectivity assignment for an ESS location.
    pub fn sels_at(&self, epp_sels: &[Selectivity]) -> Sels {
        Sels::inject(&self.base, self.query, epp_sels)
    }

    /// Moves `sels` to ESS location `epp_sels` in place and returns the
    /// dimensions whose selectivity changed bits.
    pub(crate) fn inject_into(&self, sels: &mut Sels, epp_sels: &[Selectivity]) -> DimMask {
        assert_eq!(epp_sels.len(), self.query.epps.len());
        let mut changed = 0;
        for (j, (&p, &s)) in self.query.epps.iter().zip(epp_sels).enumerate() {
            if sels.get(p).to_bits() != s.to_bits() {
                sels.set(p, s);
                changed |= 1 << j;
            }
        }
        changed
    }

    /// Optimizes at an ESS location (one selectivity per epp).
    pub fn optimize_at(&self, epp_sels: &[Selectivity]) -> (PlanNode, Cost) {
        self.optimize_with(&self.sels_at(epp_sels))
    }

    /// Optimizes under a fully-resolved selectivity assignment.
    pub fn optimize_with(&self, sels: &Sels) -> (PlanNode, Cost) {
        rqp_obs::span!("optimizer.optimize_with");
        let mut table = vec![None; self.full() as usize + 1];
        let cost = self.fill(&mut table, sels, |_| true);
        (self.rebuild(&table, self.full()), cost)
    }

    /// The DP proper: recomputes `table[mask]` for every relation set
    /// `stale` names, in ascending mask order so that the entries it reads
    /// are current, and returns the optimal cost.
    fn fill(
        &self,
        table: &mut [Option<DpEntry>],
        sels: &Sels,
        stale: impl Fn(u32) -> bool,
    ) -> Cost {
        let model = self.cost_model();
        let full = self.full();
        for mask in (1..=full).filter(|&mask| stale(mask)) {
            table[mask as usize] = if mask.is_power_of_two() {
                Some(self.best_scan(&model, mask.trailing_zeros() as usize, sels))
            } else {
                self.best_join(&model, sels, table, mask)
            };
        }
        let entry = table[full as usize].expect("connected query must have a full plan");
        entry.est.cost
    }

    /// Costs an arbitrary plan at a selectivity assignment.
    pub fn cost_plan(&self, plan: &PlanNode, sels: &Sels) -> Cost {
        self.cost_model().estimate(plan, sels).cost
    }

    /// Join predicates connecting two relation masks, sorted by id.
    pub fn connecting_preds(&self, lmask: u32, rmask: u32) -> Vec<PredId> {
        self.edges
            .iter()
            .filter(|&&(_, lb, rb)| {
                ((lb & lmask != 0) && (rb & rmask != 0)) || ((lb & rmask != 0) && (rb & lmask != 0))
            })
            .map(|&(p, _, _)| p)
            .collect()
    }

    /// Sorted filter predicates of a relation.
    pub fn rel_filters(&self, rel: usize) -> &[PredId] {
        &self.filters[rel]
    }

    /// All access-path candidates for relation `r` at `sels`: the
    /// sequential scan plus one index scan per indexed filter column.
    /// Used by the constrained enumeration of [`crate::constrained`].
    pub fn scan_candidates(&self, r: usize, sels: &Sels) -> Vec<(PlanNode, NodeEstimate)> {
        let model = self.cost_model();
        let paths = (self.index_paths[r].iter()).map(|(_, f)| (ScanMethod::IndexScan, f));
        (std::iter::once((ScanMethod::SeqScan, &self.filters[r])).chain(paths))
            .map(|(method, filters)| {
                let est = model.scan_estimate(r, method, filters, sels);
                (Self::scan(r, method, filters), est)
            })
            .collect()
    }

    fn scan(rel: usize, method: ScanMethod, filters: &[PredId]) -> PlanNode {
        let filters = filters.to_vec();
        PlanNode::Scan {
            rel,
            method,
            filters,
        }
    }

    /// The best access path for relation `r` at `sels`, considering a
    /// sequential scan and one index scan per indexed filter column.
    fn best_scan(&self, model: &CostModel<'_>, r: usize, sels: &Sels) -> DpEntry {
        let seq = model.scan_estimate(r, ScanMethod::SeqScan, &self.filters[r], sels);
        let mut best = DpEntry {
            est: seq,
            step: BuildStep::Scan(None),
        };
        for (i, (_, ordered)) in self.index_paths[r].iter().enumerate() {
            let est = model.scan_estimate(r, ScanMethod::IndexScan, ordered, sels);
            if est.cost < best.est.cost {
                best = DpEntry {
                    est,
                    step: BuildStep::Scan(Some(i)),
                };
            }
        }
        best
    }

    fn rotate_front(list: &[PredId], front: PredId) -> Vec<PredId> {
        let mut out = Vec::with_capacity(list.len());
        out.push(front);
        out.extend(list.iter().copied().filter(|&x| x != front));
        out
    }

    /// The cheapest join for `mask` over its splits, both orientations
    /// and every method.
    fn best_join(
        &self,
        model: &CostModel<'_>,
        sels: &Sels,
        table: &[Option<DpEntry>],
        mask: u32,
    ) -> Option<DpEntry> {
        let mut best: Option<DpEntry> = None;
        for (split, s) in self.dp_splits()[mask as usize].iter().enumerate() {
            for (side, &(lmask, rmask, ref key_order)) in s.sides.iter().enumerate() {
                let plan = |m: u32| table[m as usize].expect("a connected set has a plan");
                let (l, r) = (plan(lmask), plan(rmask));
                let mut consider = |method, est: NodeEstimate| {
                    if best.is_none_or(|b| est.cost < b.est.cost) {
                        let step = BuildStep::Join(method, split, side);
                        best = Some(DpEntry { est, step });
                    }
                };
                // Hash, sort-merge and nested-loop; index nested-loop below.
                for &method in &JoinMethod::ALL[..3] {
                    consider(
                        method,
                        model.join_estimate(method, l.est, r.est, &s.preds, sels),
                    );
                }
                if let Some(ordered) = key_order {
                    let rel = rmask.trailing_zeros() as usize;
                    let est =
                        model.index_nl_estimate(l.est, rel, &self.filters[rel], ordered, sels);
                    consider(JoinMethod::IndexNLJoin, est);
                }
            }
        }
        best
    }

    /// Reconstructs the plan tree for `mask` from the DP table.
    fn rebuild(&self, table: &[Option<DpEntry>], mask: u32) -> PlanNode {
        let entry = table[mask as usize].expect("DP entry must exist during rebuild");
        let rel = mask.trailing_zeros() as usize;
        match entry.step {
            BuildStep::Scan(Some(i)) => {
                Self::scan(rel, ScanMethod::IndexScan, &self.index_paths[rel][i].1)
            }
            BuildStep::Scan(None) => Self::scan(rel, ScanMethod::SeqScan, &self.filters[rel]),
            BuildStep::Join(method, split, side) => {
                let s = &self.dp_splits()[mask as usize][split];
                let (lmask, rmask, ref key_order) = s.sides[side];
                let left = Box::new(self.rebuild(table, lmask));
                let (right, preds) = match (method, key_order) {
                    (JoinMethod::IndexNLJoin, Some(ordered)) => {
                        let rel = rmask.trailing_zeros() as usize;
                        let inner = Self::scan(rel, ScanMethod::IndexScan, &self.filters[rel]);
                        (inner, ordered.clone())
                    }
                    _ => (self.rebuild(table, rmask), s.preds.clone()),
                };
                let right = Box::new(right);
                PlanNode::Join {
                    method,
                    left,
                    right,
                    preds,
                }
            }
        }
    }

    /// Appends the steps [`rebuild`](Self::rebuild) takes from `mask`.
    fn walk(&self, table: &[Option<DpEntry>], mask: u32, key: &mut Vec<BuildStep>) {
        let entry = table[mask as usize].expect("DP entry must exist during walk");
        key.push(entry.step);
        if let BuildStep::Join(method, split, side) = entry.step {
            let (lmask, rmask, _) = self.dp_splits()[mask as usize][split].sides[side];
            self.walk(table, lmask, key);
            if method != JoinMethod::IndexNLJoin {
                self.walk(table, rmask, key);
            }
        }
    }
}

/// The DP's decision walk to one optimum: equal keys rebuild equal plans.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct PlanKey(Vec<BuildStep>);

/// One DP table kept across a walk over ESS locations.
///
/// `table[S]` depends only on the selectivities of the predicates inside
/// relation set `S`, so each [`optimize_at`](Self::optimize_at) recomputes
/// only the sets holding an epp whose selectivity changed since the last
/// call; any other entry would be recomputed from the same inputs by the
/// same operations. In flat grid order dimension 0 is the only one that
/// changes on most steps. Every result is bit-identical to
/// [`Optimizer::optimize_at`].
#[derive(Debug)]
pub struct DpSweep<'o, 'a> {
    opt: &'o Optimizer<'a>,
    sels: Sels,
    table: Vec<Option<DpEntry>>,
    /// Epp dimensions among each relation set's internal predicates.
    deps: Vec<DimMask>,
    fresh: bool,
}

impl<'o, 'a> DpSweep<'o, 'a> {
    /// An empty table over `opt`; the first call fills all of it.
    pub fn new(opt: &'o Optimizer<'a>) -> Self {
        let query = opt.query;
        let deps = (0..=opt.full())
            .map(|mask| {
                (query.epps.iter().enumerate())
                    .filter(|&(_, &p)| {
                        let (a, b) = query.predicates[p].kind.relations();
                        let rels = 1 << a | b.map_or(0, |b| 1 << b);
                        mask & rels == rels
                    })
                    .fold(0, |deps, (j, _)| deps | 1 << j)
            })
            .collect();
        Self {
            opt,
            sels: opt.base.clone(),
            table: vec![None; opt.full() as usize + 1],
            deps,
            fresh: true,
        }
    }

    /// The optimal cost at ESS location `epp_sels`; its plan is
    /// [`plan`](Self::plan).
    pub fn optimize_at(&mut self, epp_sels: &[Selectivity]) -> Cost {
        let changed = self.opt.inject_into(&mut self.sels, epp_sels);
        let (deps, fresh) = (&self.deps, std::mem::take(&mut self.fresh));
        (self.opt).fill(&mut self.table, &self.sels, |mask| {
            fresh || deps[mask as usize] & changed != 0
        })
    }

    /// Writes the decision walk to the last optimum into `key`.
    pub fn plan_key(&self, key: &mut PlanKey) {
        key.0.clear();
        self.opt.walk(&self.table, self.opt.full(), &mut key.0);
    }

    /// The last optimum's plan.
    pub fn plan(&self) -> PlanNode {
        self.opt.rebuild(&self.table, self.opt.full())
    }
}

impl std::fmt::Display for EnumerationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnumerationMode::LeftDeep => write!(f, "left-deep"),
            EnumerationMode::Bushy => write!(f, "bushy"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Predicate;
    use rqp_catalog::{Column, ColumnStats, DataType, Table};

    /// star: fact(1M) joins dim1(10k), dim2(1k), dim3(100)
    fn star() -> (Catalog, QuerySpec) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "fact",
            1_000_000,
            vec![
                Column::new("f1", DataType::Int, ColumnStats::uniform(10_000)).with_index(),
                Column::new("f2", DataType::Int, ColumnStats::uniform(1_000)).with_index(),
                Column::new("f3", DataType::Int, ColumnStats::uniform(100)).with_index(),
                Column::new("v", DataType::Int, ColumnStats::uniform(1000)),
            ],
        ))
        .unwrap();
        for (name, rows) in [("dim1", 10_000u64), ("dim2", 1_000), ("dim3", 100)] {
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
            name: "star".into(),
            relations: vec![0, 1, 2, 3],
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
                Predicate {
                    label: "f-d3".into(),
                    kind: PredicateKind::Join {
                        left: 0,
                        left_col: 2,
                        right: 3,
                        right_col: 0,
                    },
                },
                Predicate {
                    label: "f.v<=100".into(),
                    kind: PredicateKind::FilterLe {
                        rel: 0,
                        col: 3,
                        value: 100,
                    },
                },
            ],
            epps: vec![0, 1],
        };
        (cat, query)
    }

    #[test]
    fn optimizes_and_costs_consistently() {
        let (cat, q) = star();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let sels = opt.sels_at(&[1e-4, 1e-3]);
        let (plan, cost) = opt.optimize_with(&sels);
        // Recosting the returned plan reproduces the DP cost exactly.
        let recost = opt.cost_plan(&plan, &sels);
        assert!(
            (recost - cost).abs() <= 1e-6 * cost.max(1.0),
            "DP cost {cost} vs recost {recost}"
        );
        assert_eq!(plan.rel_mask(), 0b1111);
        // Every predicate is applied exactly once.
        let mut preds = plan.all_preds();
        preds.sort_unstable();
        assert_eq!(preds, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bushy_never_worse_than_left_deep() {
        let (cat, q) = star();
        let ld =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let bushy =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::Bushy).unwrap();
        for sels in [[1e-5, 1e-5], [1e-3, 1e-2], [0.1, 0.5], [1.0, 1.0]] {
            let (_, c_ld) = ld.optimize_at(&sels);
            let (_, c_b) = bushy.optimize_at(&sels);
            assert!(
                c_b <= c_ld * (1.0 + 1e-9),
                "bushy {c_b} must not exceed left-deep {c_ld}"
            );
        }
    }

    #[test]
    fn optimal_cost_monotone_over_dominance() {
        let (cat, q) = star();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let mut prev = 0.0;
        for i in 0..8 {
            let s = 10f64.powf(-5.0 + 5.0 * i as f64 / 7.0);
            let (_, c) = opt.optimize_at(&[s, s]);
            assert!(c > prev, "optimal cost must increase along the diagonal");
            prev = c;
        }
    }

    #[test]
    fn plan_changes_across_the_space() {
        let (cat, q) = star();
        let opt =
            Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::LeftDeep).unwrap();
        let (p_low, _) = opt.optimize_at(&[1e-5, 1e-5]);
        let (p_high, _) = opt.optimize_at(&[1.0, 1.0]);
        assert_ne!(
            p_low.fingerprint(),
            p_high.fingerprint(),
            "POSP must be non-trivial for the ESS machinery to be exercised"
        );
    }

    #[test]
    fn dp_beats_random_plans() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (cat, q) = star();
        let opt = Optimizer::new(&cat, &q, CostParams::default(), EnumerationMode::Bushy).unwrap();
        let sels = opt.sels_at(&[1e-3, 1e-2]);
        let (_, best) = opt.optimize_with(&sels);
        // Random left-deep orders with random methods must never beat DP.
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let mut order: Vec<usize> = vec![0, 1, 2, 3];
            for i in (1..4).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            let plan = random_left_deep(&opt, &order, &mut rng);
            if let Some(plan) = plan {
                let c = opt.cost_plan(&plan, &sels);
                assert!(
                    c >= best * (1.0 - 1e-9),
                    "random plan cost {c} beats DP {best}"
                );
            }
        }
    }

    /// Builds a left-deep plan joining `order` with random (valid) methods;
    /// returns None if a prefix is disconnected.
    fn random_left_deep(
        opt: &Optimizer<'_>,
        order: &[usize],
        rng: &mut impl rand::Rng,
    ) -> Option<PlanNode> {
        let mut mask = 1u32 << order[0];
        let mut plan = PlanNode::Scan {
            rel: order[0],
            method: ScanMethod::SeqScan,
            filters: opt.rel_filters(order[0]).to_vec(),
        };
        for &r in &order[1..] {
            let preds = opt.connecting_preds(mask, 1 << r);
            if preds.is_empty() {
                return None;
            }
            let method = [
                JoinMethod::HashJoin,
                JoinMethod::SortMergeJoin,
                JoinMethod::NestedLoopJoin,
            ][rng.gen_range(0..3)];
            plan = PlanNode::Join {
                method,
                left: Box::new(plan),
                right: Box::new(PlanNode::Scan {
                    rel: r,
                    method: ScanMethod::SeqScan,
                    filters: opt.rel_filters(r).to_vec(),
                }),
                preds,
            };
            mask |= 1 << r;
        }
        Some(plan)
    }
}
