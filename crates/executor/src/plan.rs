//! One plan lowering for both engines.
//!
//! [`Context::lower`] validates a [`PlanNode`] and resolves it into
//! physical [`Node`]s: table views, indexes, the row ids an index scan
//! fetches, key offsets into each child's rows, and every charge rate of
//! the cost model, registered as [`Ledger`]s on the run's [`Meter`] in
//! plan order (children first, left before right, then the node's own
//! ledgers in the order its doc comment lists). That order is part of the
//! metering contract (see [`crate::meter`]). The batch engine and the
//! reference engine build their operators from these nodes and tick the
//! ledgers they are handed, so the charge rates, the ledger order and the
//! direct lumps are written down once, here.

use crate::meter::{ExecError, Ledger, Meter};
use crate::run::Context;
use crate::store::ColumnIndex;
use rqp_common::{Result, RqpError};
use rqp_optimizer::{JoinMethod, PlanNode, PredicateKind, ScanMethod};
use rqp_storage::TableRef;

/// Checks the two plan shapes no engine can run: an index scan without
/// a driving filter to take row ids from, and an index nested-loop join
/// whose inner side is not a base-table scan (the join probes that
/// table's index itself). The optimizer emits neither; both are typed
/// [`RqpError::Execution`] errors.
pub fn validate(plan: &PlanNode) -> Result<()> {
    match plan {
        PlanNode::Scan {
            method: ScanMethod::IndexScan,
            filters,
            ..
        } if filters.is_empty() => Err(RqpError::Execution(
            "index scan without driving filter".into(),
        )),
        PlanNode::Scan { .. } => Ok(()),
        PlanNode::Join {
            method,
            left,
            right,
            ..
        } => {
            validate(left)?;
            match (method, right.as_ref()) {
                (JoinMethod::IndexNLJoin, PlanNode::Scan { .. }) => Ok(()),
                (JoinMethod::IndexNLJoin, _) => Err(RqpError::Execution(
                    "index nested-loop inner must be a scan".into(),
                )),
                _ => validate(right),
            }
        }
    }
}

/// A single-table filter on a column offset of the table's rows.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CompiledFilter {
    /// `col <= v`.
    Le { col: usize, v: i64 },
    /// `col = v`.
    Eq { col: usize, v: i64 },
}

impl CompiledFilter {
    /// The filtered column.
    #[inline]
    pub(crate) fn col(&self) -> usize {
        match *self {
            CompiledFilter::Le { col, .. } | CompiledFilter::Eq { col, .. } => col,
        }
    }

    /// Whether a row whose filtered column holds `x` passes.
    #[inline]
    pub(crate) fn keeps(&self, x: i64) -> bool {
        match *self {
            CompiledFilter::Le { v, .. } => x <= v,
            CompiledFilter::Eq { v, .. } => x == v,
        }
    }

    /// The row ids passing this filter, looked up in its column's index.
    pub(crate) fn lookup(&self, index: &ColumnIndex) -> Vec<u32> {
        match *self {
            CompiledFilter::Eq { v, .. } => index.eq(v).to_vec(),
            CompiledFilter::Le { v, .. } => index.le(v).collect(),
        }
    }
}

/// A direct (one-off) charge on the run's meter.
#[derive(Debug)]
pub(crate) struct Lump {
    meter: Meter,
    rate: f64,
}

impl Lump {
    /// A lump of `rate` cost units on `meter`.
    pub(crate) fn new(meter: &Meter, rate: f64) -> Self {
        Self {
            meter: meter.clone(),
            rate,
        }
    }

    /// Charges the rate once (an index scan's open).
    pub(crate) fn charge(&self) -> std::result::Result<(), ExecError> {
        self.meter.charge(self.rate)
    }

    /// Charges sorting `n` tuples: 2·n·log2(n+2) operator evaluations.
    pub(crate) fn charge_sort(&self, n: usize) -> std::result::Result<(), ExecError> {
        self.meter
            .charge(2.0 * n as f64 * ((n + 2) as f64).log2() * self.rate)
    }
}

/// A plan node lowered for execution.
pub(crate) enum Node<'a> {
    SeqScan(SeqScan<'a>),
    IndexScan(IndexScan<'a>),
    HashJoin(Box<[Node<'a>; 2]>, HashJoin),
    MergeJoin(Box<[Node<'a>; 2]>, MergeJoin),
    NestedLoop(Box<[Node<'a>; 2]>, NestedLoop),
    /// The inner scan is absorbed: the join probes its table's index.
    IndexNL(Box<Node<'a>>, IndexNL<'a>),
}

/// Sequential scan with filters. Ledgers: `row`.
pub(crate) struct SeqScan<'a> {
    pub(crate) table: TableRef<'a>,
    pub(crate) filters: Vec<CompiledFilter>,
    pub(crate) row: Ledger,
}

/// Index scan: the driving filter's row ids, the remaining filters
/// applied on fetch. Ledgers: `fetch`; `open` is charged at first pull.
pub(crate) struct IndexScan<'a> {
    pub(crate) table: TableRef<'a>,
    pub(crate) row_ids: Vec<u32>,
    pub(crate) residual: Vec<CompiledFilter>,
    pub(crate) open: Lump,
    pub(crate) fetch: Ledger,
}

/// Equi-join keys as offsets into the left and right children's rows,
/// and the width of the joined row.
pub(crate) struct Keys {
    pub(crate) left: Vec<usize>,
    pub(crate) right: Vec<usize>,
    pub(crate) width: usize,
}

/// Hash join: the right child is built, the left child probes.
/// Ledgers: `build`, `probe`, `emit`.
pub(crate) struct HashJoin {
    pub(crate) keys: Keys,
    pub(crate) build: Ledger,
    pub(crate) probe: Ledger,
    pub(crate) emit: Ledger,
}

/// Sort-merge join. Ledgers: `input` (both sides), `emit`; `sort` is
/// charged per side, left first, once both sides are drained.
pub(crate) struct MergeJoin {
    pub(crate) keys: Keys,
    pub(crate) input: Ledger,
    pub(crate) emit: Ledger,
    pub(crate) sort: Lump,
}

/// Block nested-loop join; materializing the inner side is free.
/// Ledgers: `pair`, `emit`.
pub(crate) struct NestedLoop {
    pub(crate) keys: Keys,
    pub(crate) pair: Ledger,
    pub(crate) emit: Ledger,
}

/// Index nested-loop join: each outer row probes the inner table's index
/// on its key; residual equalities and the inner scan's filters apply to
/// the fetched rows. Ledgers: `probe`, `matches`, `emit`.
pub(crate) struct IndexNL<'a> {
    pub(crate) table: TableRef<'a>,
    pub(crate) index: &'a ColumnIndex,
    /// Offset of the key in the outer row.
    pub(crate) outer_key: usize,
    /// Residual equalities as (outer offset, inner column).
    pub(crate) residual: Vec<(usize, usize)>,
    pub(crate) filters: Vec<CompiledFilter>,
    pub(crate) probe: Ledger,
    pub(crate) matches: Ledger,
    pub(crate) emit: Ledger,
    pub(crate) width: usize,
}

/// Output schema of a lowered node: query-local relations in row order.
type Schema = Vec<usize>;

impl<'a> Context<'a> {
    /// Validates `plan` and lowers it, registering its ledgers on `meter`.
    pub(crate) fn lower(&self, plan: &PlanNode, meter: &Meter) -> Result<Node<'a>> {
        validate(plan)?;
        Ok(self.lower_node(plan, meter)?.0)
    }

    fn lower_node(&self, node: &PlanNode, meter: &Meter) -> Result<(Node<'a>, Schema)> {
        let p = &self.params;
        match node {
            PlanNode::Scan {
                rel,
                method,
                filters,
            } => {
                let (tid, table) = self.table(*rel)?;
                let width = self.catalog.table(tid).row_width();
                let filters = self.filters(filters)?;
                let node = match method {
                    ScanMethod::SeqScan => Node::SeqScan(SeqScan {
                        table,
                        row: meter.ledger(
                            width / 8192.0 * p.seq_page_cost
                                + p.cpu_tuple_cost
                                + filters.len() as f64 * p.cpu_operator_cost,
                        ),
                        filters,
                    }),
                    ScanMethod::IndexScan => {
                        let (driving, residual) =
                            filters.split_first().expect("validated: a driving filter");
                        let index = self.store.index(tid, driving.col()).ok_or_else(|| {
                            RqpError::Execution(format!(
                                "no index on {}.{}",
                                self.catalog.table(tid).name,
                                driving.col()
                            ))
                        })?;
                        let nrows = table.rows().max(1) as f64;
                        let pages = (nrows * width / 8192.0).max(1.0);
                        Node::IndexScan(IndexScan {
                            table,
                            row_ids: driving.lookup(index),
                            residual: residual.to_vec(),
                            open: Lump::new(meter, self.descent(table) + p.random_page_cost),
                            fetch: meter.ledger(
                                pages / nrows * p.random_page_cost
                                    + p.cpu_index_tuple_cost
                                    + p.cpu_tuple_cost
                                    + residual.len() as f64 * p.cpu_operator_cost,
                            ),
                        })
                    }
                };
                Ok((node, vec![*rel]))
            }
            PlanNode::Join {
                method: JoinMethod::IndexNLJoin,
                left,
                right,
                preds,
            } => {
                let (left, mut schema) = self.lower_node(left, meter)?;
                let PlanNode::Scan { rel, filters, .. } = right.as_ref() else {
                    unreachable!("validated: the index-NL inner is a scan")
                };
                let (tid, table) = self.table(*rel)?;
                let (outer_rel, outer_col, inner_col) = self
                    .outer_inner(preds[0], *rel)
                    .ok_or_else(|| RqpError::Execution("INL key must be a join".into()))?;
                let index = self.store.index(tid, inner_col).ok_or_else(|| {
                    RqpError::Execution(format!(
                        "no index on INL inner {}.{inner_col}",
                        self.catalog.table(tid).name
                    ))
                })?;
                let outer_key = self.offset(&schema, outer_rel, outer_col)?;
                let residual = preds[1..]
                    .iter()
                    .filter_map(|&q| self.outer_inner(q, *rel))
                    .map(|(orel, ocol, icol)| Ok((self.offset(&schema, orel, ocol)?, icol)))
                    .collect::<Result<_>>()?;
                schema.push(*rel);
                let inl = IndexNL {
                    table,
                    index,
                    outer_key,
                    residual,
                    probe: meter.ledger(self.descent(table) + 0.1 * p.random_page_cost),
                    matches: meter.ledger(
                        p.cpu_index_tuple_cost
                            + 0.2 * p.random_page_cost
                            + p.cpu_tuple_cost
                            + filters.len() as f64 * p.cpu_operator_cost,
                    ),
                    emit: meter.ledger(p.cpu_tuple_cost),
                    filters: self.filters(filters)?,
                    width: self.width(&schema),
                };
                Ok((Node::IndexNL(Box::new(left), inl), schema))
            }
            PlanNode::Join {
                method,
                left,
                right,
                preds,
            } => {
                let (left, mut schema) = self.lower_node(left, meter)?;
                let (right, rschema) = self.lower_node(right, meter)?;
                let (lkeys, rkeys) = self.join_keys(preds, &schema, &rschema)?;
                schema.extend_from_slice(&rschema);
                let keys = Keys {
                    left: lkeys,
                    right: rkeys,
                    width: self.width(&schema),
                };
                let kids = Box::new([left, right]);
                let node = match method {
                    JoinMethod::HashJoin => Node::HashJoin(
                        kids,
                        HashJoin {
                            keys,
                            build: meter.ledger(2.0 * p.cpu_operator_cost),
                            probe: meter.ledger(p.cpu_operator_cost),
                            emit: meter.ledger(p.cpu_tuple_cost),
                        },
                    ),
                    JoinMethod::SortMergeJoin => Node::MergeJoin(
                        kids,
                        MergeJoin {
                            keys,
                            input: meter.ledger(p.cpu_operator_cost),
                            emit: meter.ledger(p.cpu_tuple_cost),
                            sort: Lump::new(meter, p.cpu_operator_cost),
                        },
                    ),
                    JoinMethod::NestedLoopJoin => Node::NestedLoop(
                        kids,
                        NestedLoop {
                            keys,
                            pair: meter.ledger(p.cpu_operator_cost),
                            emit: meter.ledger(p.cpu_tuple_cost),
                        },
                    ),
                    JoinMethod::IndexNLJoin => unreachable!("lowered above"),
                };
                Ok((node, schema))
            }
        }
    }

    /// CPU cost of one descent of a B-tree over `table`'s rows.
    fn descent(&self, table: TableRef<'_>) -> f64 {
        (table.rows().max(1) as f64 + 2.0).log2().max(1.0) * self.params.cpu_operator_cost
    }

    /// Catalog id and storage view of query relation `rel`.
    fn table(&self, rel: usize) -> Result<(usize, TableRef<'a>)> {
        let tid = self.query.relations[rel];
        let table = self.store.table_ref(tid).ok_or_else(|| {
            RqpError::Execution(format!(
                "table {} not materialized",
                self.catalog.table(tid).name
            ))
        })?;
        Ok((tid, table))
    }

    fn filters(&self, filters: &[usize]) -> Result<Vec<CompiledFilter>> {
        filters
            .iter()
            .map(|&f| match self.query.predicates[f].kind {
                PredicateKind::FilterLe { col, value, .. } => {
                    Ok(CompiledFilter::Le { col, v: value })
                }
                PredicateKind::FilterEq { col, value, .. } => {
                    Ok(CompiledFilter::Eq { col, v: value })
                }
                PredicateKind::Join { .. } => Err(RqpError::Execution(
                    "join predicate in scan filter list".into(),
                )),
            })
            .collect()
    }

    /// Join predicate `p` as (outer relation, outer column, inner column)
    /// for inner relation `inner`; `None` if `p` is not a join.
    fn outer_inner(&self, p: usize, inner: usize) -> Option<(usize, usize, usize)> {
        let PredicateKind::Join {
            left,
            left_col,
            right,
            right_col,
        } = self.query.predicates[p].kind
        else {
            return None;
        };
        Some(if left == inner {
            (right, right_col, left_col)
        } else {
            (left, left_col, right_col)
        })
    }

    /// Key offsets of join predicates `preds` in the two children's rows
    /// (either endpoint may live on either side).
    fn join_keys(
        &self,
        preds: &[usize],
        lschema: &Schema,
        rschema: &Schema,
    ) -> Result<(Vec<usize>, Vec<usize>)> {
        let mut lk = Vec::with_capacity(preds.len());
        let mut rk = Vec::with_capacity(preds.len());
        for &p in preds {
            let PredicateKind::Join {
                left,
                left_col,
                right,
                right_col,
            } = self.query.predicates[p].kind
            else {
                return Err(RqpError::Execution(format!(
                    "predicate {p} at join node is not a join"
                )));
            };
            let ((lr, lc), (rr, rc)) = if lschema.contains(&left) {
                ((left, left_col), (right, right_col))
            } else {
                ((right, right_col), (left, left_col))
            };
            lk.push(self.offset(lschema, lr, lc)?);
            rk.push(self.offset(rschema, rr, rc)?);
        }
        Ok((lk, rk))
    }

    /// Offset of `(rel, col)` in a row of `schema`.
    fn offset(&self, schema: &Schema, rel: usize, col: usize) -> Result<usize> {
        let mut off = 0;
        for &r in schema {
            if r == rel {
                return Ok(off + col);
            }
            off += self.ncols(r);
        }
        Err(RqpError::Execution(format!("relation {rel} not in schema")))
    }

    fn width(&self, schema: &Schema) -> usize {
        schema.iter().map(|&r| self.ncols(r)).sum()
    }

    fn ncols(&self, rel: usize) -> usize {
        self.catalog.table(self.query.relations[rel]).columns.len()
    }
}
