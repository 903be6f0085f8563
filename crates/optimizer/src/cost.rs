//! The analytical cost model.
//!
//! A PostgreSQL-flavored model: plans are costed bottom-up from catalog
//! cardinalities, per-predicate selectivities, and a handful of unit-cost
//! parameters anchored at `seq_page_cost = 1.0`.
//!
//! Two properties are load-bearing for the paper's guarantees:
//!
//! * **Plan Cost Monotonicity (PCM, §2.4)** — every operator formula below
//!   is non-decreasing in its input cardinalities, and every cardinality is
//!   non-decreasing in every predicate selectivity; therefore
//!   `Cost(P, q_b) > Cost(P, q_c)` whenever `q_b ≻ q_c`. Property tests in
//!   this module and in the integration suite enforce this.
//! * **Plan diversity** — the relative trade-offs (index vs. sequential
//!   scans, index-nested-loop vs. hash vs. sort-merge joins) shift with
//!   selectivity, so the parametric optimal set of plans (POSP) is
//!   non-trivial and iso-cost contours carry multiple plans, as in the
//!   paper's Fig. 3.

use crate::plan::{JoinMethod, PlanNode, ScanMethod};
use crate::query::{PredId, PredicateKind, QuerySpec, Sels};
use rqp_catalog::Catalog;
use rqp_common::Cost;
use serde::{Deserialize, Serialize};

/// Unit-cost parameters (PostgreSQL defaults).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// Cost of a sequentially-fetched page (the anchor, 1.0).
    pub seq_page_cost: f64,
    /// Cost of a randomly-fetched page.
    pub random_page_cost: f64,
    /// CPU cost of emitting one tuple.
    pub cpu_tuple_cost: f64,
    /// CPU cost of processing one index entry.
    pub cpu_index_tuple_cost: f64,
    /// CPU cost of one operator/predicate evaluation.
    pub cpu_operator_cost: f64,
}

impl Default for CostParams {
    fn default() -> Self {
        Self {
            seq_page_cost: 1.0,
            random_page_cost: 4.0,
            cpu_tuple_cost: 0.01,
            cpu_index_tuple_cost: 0.005,
            cpu_operator_cost: 0.0025,
        }
    }
}

/// Output of costing a plan (sub)tree: estimated output cardinality and
/// total cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeEstimate {
    /// Expected output rows (fractional expectations allowed).
    pub rows: f64,
    /// Total cost of the subtree.
    pub cost: Cost,
}

/// The cost model, bound to a catalog + query pair.
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'a> {
    catalog: &'a Catalog,
    query: &'a QuerySpec,
    params: &'a CostParams,
}

impl<'a> CostModel<'a> {
    /// Binds the model.
    pub fn new(catalog: &'a Catalog, query: &'a QuerySpec, params: &'a CostParams) -> Self {
        Self {
            catalog,
            query,
            params,
        }
    }

    /// Unit-cost parameters.
    pub fn params(&self) -> &CostParams {
        self.params
    }

    /// Base (unfiltered) row count of query-local relation `rel`.
    pub fn base_rows(&self, rel: usize) -> f64 {
        self.catalog.table(self.query.relations[rel]).rows as f64
    }

    /// Pages of query-local relation `rel`.
    pub fn base_pages(&self, rel: usize) -> f64 {
        self.catalog.table(self.query.relations[rel]).pages()
    }

    /// Costs a full plan tree at selectivity assignment `sels`.
    pub fn estimate(&self, node: &PlanNode, sels: &Sels) -> NodeEstimate {
        self.node_estimate(node, sels, |child| self.estimate(child, sels))
    }

    /// Costs `node` alone, given its children's estimates: `child` is
    /// asked for the left child, then for the right one unless the node is
    /// an index nested-loop join, whose inner scan is costed inside it.
    pub(crate) fn node_estimate(
        &self,
        node: &PlanNode,
        sels: &Sels,
        mut child: impl FnMut(&PlanNode) -> NodeEstimate,
    ) -> NodeEstimate {
        match node {
            PlanNode::Scan {
                rel,
                method,
                filters,
            } => self.scan_estimate(*rel, *method, filters, sels),
            PlanNode::Join {
                method,
                left,
                right,
                preds,
            } => {
                let l = child(left);
                if *method == JoinMethod::IndexNLJoin {
                    let (rel, rfilters) = match right.as_ref() {
                        PlanNode::Scan { rel, filters, .. } => (*rel, filters.as_slice()),
                        _ => unreachable!("IndexNLJoin inner must be a base scan"),
                    };
                    self.index_nl_estimate(l, rel, rfilters, preds, sels)
                } else {
                    let r = child(right);
                    self.join_estimate(*method, l, r, preds, sels)
                }
            }
        }
    }

    /// Costs a base-relation access.
    pub fn scan_estimate(
        &self,
        rel: usize,
        method: ScanMethod,
        filters: &[PredId],
        sels: &Sels,
    ) -> NodeEstimate {
        let p = self.params;
        let rows = self.base_rows(rel);
        let pages = self.base_pages(rel);
        let fsel: f64 = filters.iter().map(|&f| sels.get(f)).product();
        let out = (rows * fsel).max(0.0);
        let nf = filters.len() as f64;
        match method {
            ScanMethod::SeqScan => {
                let cost = pages * p.seq_page_cost
                    + rows * p.cpu_tuple_cost
                    + rows * nf * p.cpu_operator_cost;
                NodeEstimate { rows: out, cost }
            }
            ScanMethod::IndexScan => {
                // Driven by the first filter (on an indexed column, enforced
                // at plan construction); remaining filters are residual.
                let driving_sel = filters.first().map_or(1.0, |&f| sels.get(f));
                let height = (rows + 2.0).log2().max(1.0);
                let fetched = rows * driving_sel;
                let cost = height * p.cpu_operator_cost
                    + p.random_page_cost * (1.0 + driving_sel * pages)
                    + fetched * (p.cpu_index_tuple_cost + p.cpu_tuple_cost)
                    + fetched * (nf - 1.0).max(0.0) * p.cpu_operator_cost;
                NodeEstimate { rows: out, cost }
            }
        }
    }

    /// Combined selectivity of the join predicates applied at a node
    /// (selectivity-independence: product).
    pub fn combined_join_sel(&self, preds: &[PredId], sels: &Sels) -> f64 {
        preds.iter().map(|&p| sels.get(p)).product()
    }

    /// Costs a hash / sort-merge / block-nested-loop join given child
    /// estimates.
    pub fn join_estimate(
        &self,
        method: JoinMethod,
        l: NodeEstimate,
        r: NodeEstimate,
        preds: &[PredId],
        sels: &Sels,
    ) -> NodeEstimate {
        let p = self.params;
        let jsel = self.combined_join_sel(preds, sels);
        let out = l.rows * r.rows * jsel;
        let emit = out * p.cpu_tuple_cost;
        let cost = match method {
            JoinMethod::HashJoin => {
                // Build on the right child, probe with the left.
                l.cost
                    + r.cost
                    + r.rows * 2.0 * p.cpu_operator_cost
                    + l.rows * p.cpu_operator_cost
                    + emit
            }
            JoinMethod::SortMergeJoin => {
                let sort = |n: f64| 2.0 * n * (n + 2.0).log2().max(1.0) * p.cpu_operator_cost;
                l.cost
                    + r.cost
                    + sort(l.rows)
                    + sort(r.rows)
                    + (l.rows + r.rows) * p.cpu_operator_cost
                    + emit
            }
            JoinMethod::NestedLoopJoin => {
                // Inner materialized once; every pair is compared.
                l.cost + r.cost + l.rows * r.rows * p.cpu_operator_cost + emit
            }
            JoinMethod::IndexNLJoin => {
                unreachable!("index nested-loop is costed by index_nl_estimate")
            }
        };
        NodeEstimate { rows: out, cost }
    }

    /// Costs an index nested-loop join: the inner side is base relation
    /// `rel` probed through the index on the first join predicate's inner
    /// column; inner filters are applied as residuals after the lookup.
    pub fn index_nl_estimate(
        &self,
        l: NodeEstimate,
        rel: usize,
        rfilters: &[PredId],
        preds: &[PredId],
        sels: &Sels,
    ) -> NodeEstimate {
        let p = self.params;
        let rrows = self.base_rows(rel);
        let key_sel = sels.get(preds[0]);
        let residual_join_sel: f64 = preds[1..].iter().map(|&q| sels.get(q)).product();
        let fsel: f64 = rfilters.iter().map(|&f| sels.get(f)).product();
        // Rows matched by the index per outer tuple, before residuals.
        let matches = rrows * key_sel;
        let height = (rrows + 2.0).log2().max(1.0);
        // Upper B-tree levels are assumed cached (Mackert–Lohman style
        // discount): each probe pays a fraction of a random page plus the
        // descent CPU; each match pays a discounted heap fetch.
        let per_probe = height * p.cpu_operator_cost
            + 0.1 * p.random_page_cost
            + matches
                * (p.cpu_index_tuple_cost
                    + 0.2 * p.random_page_cost
                    + p.cpu_tuple_cost
                    + rfilters.len() as f64 * p.cpu_operator_cost);
        let out = l.rows * matches * fsel * residual_join_sel;
        let cost = l.cost + l.rows * per_probe + out * p.cpu_tuple_cost;
        NodeEstimate { rows: out, cost }
    }

    /// Cost of the subtree rooted at the node applying predicate `p` — the
    /// quantity charged for a *spill-mode* execution (§3.1.2): the spilled
    /// node's output is produced but discarded, so the subtree cost is the
    /// whole bill.
    ///
    /// Returns `None` if no node applies `p`.
    pub fn spill_subtree_estimate(
        &self,
        plan: &PlanNode,
        p: PredId,
        sels: &Sels,
    ) -> Option<NodeEstimate> {
        plan.subtree_applying(p).map(|sub| self.estimate(sub, sels))
    }

    /// True if relation `rel`'s column `col` carries an index.
    pub fn is_indexed(&self, rel: usize, col: usize) -> bool {
        self.catalog.table(self.query.relations[rel]).columns[col].indexed
    }

    /// Returns the inner-side column of join predicate `pred` on relation
    /// `rel`, if `pred` joins `rel` to something else.
    pub fn join_col_on(&self, pred: PredId, rel: usize) -> Option<usize> {
        match self.query.predicates[pred].kind {
            PredicateKind::Join {
                left,
                left_col,
                right,
                right_col,
            } => {
                if left == rel {
                    Some(left_col)
                } else if right == rel {
                    Some(right_col)
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{JoinMethod, PlanNode, ScanMethod};
    use rqp_catalog::{Column, ColumnStats, DataType, Table};

    fn fixture() -> (Catalog, QuerySpec, Sels) {
        let mut cat = Catalog::new();
        cat.add_table(Table::new(
            "big",
            1_000_000,
            vec![
                Column::new("k", DataType::Int, ColumnStats::uniform(1_000_000)).with_index(),
                Column::new("v", DataType::Int, ColumnStats::uniform(1000)).with_index(),
            ],
        ))
        .unwrap();
        cat.add_table(Table::new(
            "small",
            10_000,
            vec![Column::new("k", DataType::Int, ColumnStats::uniform(10_000)).with_index()],
        ))
        .unwrap();
        let query = QuerySpec {
            name: "t".into(),
            relations: vec![0, 1],
            predicates: vec![
                crate::query::Predicate {
                    label: "j".into(),
                    kind: PredicateKind::Join {
                        left: 0,
                        left_col: 0,
                        right: 1,
                        right_col: 0,
                    },
                },
                crate::query::Predicate {
                    label: "f".into(),
                    kind: PredicateKind::FilterLe {
                        rel: 0,
                        col: 1,
                        value: 10,
                    },
                },
            ],
            epps: vec![0],
        };
        let sels = Sels(vec![1e-4, 0.01]);
        (cat, query, sels)
    }

    fn scan(rel: usize, filters: Vec<PredId>) -> PlanNode {
        PlanNode::Scan {
            rel,
            method: ScanMethod::SeqScan,
            filters,
        }
    }

    #[test]
    fn seq_scan_cost_and_rows() {
        let (cat, q, sels) = fixture();
        let params = CostParams::default();
        let m = CostModel::new(&cat, &q, &params);
        let est = m.scan_estimate(0, ScanMethod::SeqScan, &[1], &sels);
        assert!((est.rows - 10_000.0).abs() < 1e-6, "1M * 0.01");
        assert!(est.cost > 0.0);
        // more filters, same driving table => same scan cost + op charges
        let est2 = m.scan_estimate(0, ScanMethod::SeqScan, &[], &sels);
        assert!(est2.cost < est.cost);
        assert_eq!(est2.rows, 1_000_000.0);
    }

    #[test]
    fn index_scan_beats_seq_at_low_selectivity() {
        let (cat, q, _) = fixture();
        let params = CostParams::default();
        let m = CostModel::new(&cat, &q, &params);
        let low = Sels(vec![1e-4, 1e-4]);
        let high = Sels(vec![1e-4, 0.9]);
        let seq_low = m.scan_estimate(0, ScanMethod::SeqScan, &[1], &low);
        let idx_low = m.scan_estimate(0, ScanMethod::IndexScan, &[1], &low);
        assert!(idx_low.cost < seq_low.cost, "index wins at sel 1e-4");
        let seq_high = m.scan_estimate(0, ScanMethod::SeqScan, &[1], &high);
        let idx_high = m.scan_estimate(0, ScanMethod::IndexScan, &[1], &high);
        assert!(seq_high.cost < idx_high.cost, "seq wins at sel 0.9");
    }

    #[test]
    fn join_method_crossover() {
        let (cat, q, _) = fixture();
        let params = CostParams::default();
        let m = CostModel::new(&cat, &q, &params);
        let l = m.scan_estimate(1, ScanMethod::SeqScan, &[], &Sels(vec![0.0, 0.0]));
        // At tiny join selectivity, index NL (probing big.k) beats hash.
        let tiny = Sels(vec![1e-6, 1.0]);
        let inl = m.index_nl_estimate(l, 0, &[], &[0], &tiny);
        let r = m.scan_estimate(0, ScanMethod::SeqScan, &[], &tiny);
        let hash = m.join_estimate(JoinMethod::HashJoin, l, r, &[0], &tiny);
        assert!(
            inl.cost < hash.cost,
            "INL {} vs hash {}",
            inl.cost,
            hash.cost
        );
        // At selectivity 0.1 the probe-per-match cost explodes; hash wins.
        let big = Sels(vec![0.1, 1.0]);
        let inl = m.index_nl_estimate(l, 0, &[], &[0], &big);
        let hash = m.join_estimate(JoinMethod::HashJoin, l, r, &[0], &big);
        assert!(hash.cost < inl.cost);
    }

    #[test]
    fn pcm_cost_monotone_in_epp_selectivity() {
        let (cat, q, _) = fixture();
        let params = CostParams::default();
        let m = CostModel::new(&cat, &q, &params);
        let plan = PlanNode::Join {
            method: JoinMethod::HashJoin,
            left: Box::new(scan(0, vec![1])),
            right: Box::new(scan(1, vec![])),
            preds: vec![0],
        };
        let mut prev = 0.0;
        for i in 0..20 {
            let s = 10f64.powf(-6.0 + 6.0 * i as f64 / 19.0);
            let est = m.estimate(&plan, &Sels(vec![s, 0.01]));
            assert!(
                est.cost > prev,
                "cost must strictly increase with epp sel: {} at {s}",
                est.cost
            );
            prev = est.cost;
        }
    }

    #[test]
    fn spill_subtree_cheaper_than_full_plan() {
        let (cat, q, sels) = fixture();
        let params = CostParams::default();
        let m = CostModel::new(&cat, &q, &params);
        let plan = PlanNode::Join {
            method: JoinMethod::HashJoin,
            left: Box::new(scan(0, vec![1])),
            right: Box::new(scan(1, vec![])),
            preds: vec![0],
        };
        let full = m.estimate(&plan, &sels);
        // Spilling on the filter epp costs only the scan subtree.
        let sub = m.spill_subtree_estimate(&plan, 1, &sels).unwrap();
        assert!(sub.cost < full.cost);
        // Spilling on the top join costs the whole tree.
        let sub_top = m.spill_subtree_estimate(&plan, 0, &sels).unwrap();
        assert!((sub_top.cost - full.cost).abs() < 1e-9);
        assert!(m.spill_subtree_estimate(&plan, 99, &sels).is_none());
    }
}
