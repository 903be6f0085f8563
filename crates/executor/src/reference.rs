//! The row-at-a-time (Volcano) reference engine: a differential oracle
//! for tests, not a production path.
//!
//! [`Executor`] runs the same lowered plans through the same driver as
//! [`crate::Engine`], but pulls one tuple per `next()` call through boxed
//! operators written for obviousness. The two engines share
//! only what the metering contract fixes — charge rates, ledger order and
//! the run protocol. The operator algorithms, and so the sequence of
//! ticks they produce, are independent, which is what makes the suites
//! that compare them (`tests/batch_vs_row.rs`, `tests/storage_paged.rs`,
//! the golden check in `tests/paper_conformance.rs`) mean something.

use crate::meter::ExecError;
use crate::plan::{
    CompiledFilter, HashJoin, IndexNL, IndexScan, MergeJoin, NestedLoop, Node, SeqScan,
};
use crate::run::{Context, ExecOutcome, NodeObservation, PlanEngine, Pull, SpillRun};
use rqp_catalog::Catalog;
use rqp_common::{Cost, Result};
use rqp_optimizer::{CostParams, PlanNode, QuerySpec};
use rqp_storage::{RowCursor, SpillSink, TableStore};
use std::collections::HashMap;

/// The reference engine over any [`TableStore`] backend.
#[derive(Debug)]
pub struct Executor<'a> {
    ctx: Context<'a>,
}

impl<'a> Executor<'a> {
    /// Creates a reference engine over `store` for plans of `query`.
    pub fn new(
        catalog: &'a Catalog,
        query: &'a QuerySpec,
        store: &'a dyn TableStore,
        params: CostParams,
    ) -> Self {
        Self {
            ctx: Context::new(catalog, query, store, params),
        }
    }
}

impl PlanEngine for Executor<'_> {
    fn run_full(&self, plan: &PlanNode, budget: Cost) -> Result<ExecOutcome> {
        rqp_obs::span!("executor.run_full");
        self.ctx.run_full(plan, budget, build)
    }

    fn run_spill(&self, plan: &PlanNode, pred: usize, budget: Cost) -> Result<SpillRun> {
        rqp_obs::span!("executor.run_spill");
        self.ctx.run_spill(plan, pred, budget, build)
    }
}

/// A materialized tuple (concatenated base-table columns).
type Row = Vec<i64>;

/// The iterator-model operator interface.
trait Operator {
    /// Produces the next tuple, `Ok(None)` at end-of-stream, or an error
    /// (budget exhaustion aborts the whole plan).
    fn next(&mut self) -> std::result::Result<Option<Row>, ExecError>;

    /// Tuple counts observed so far.
    fn observation(&self) -> NodeObservation;
}

type BoxOp<'a> = Box<dyn Operator + 'a>;

impl Pull for BoxOp<'_> {
    fn pull(
        &mut self,
        sink: Option<&mut (dyn SpillSink + '_)>,
    ) -> std::result::Result<Option<u64>, ExecError> {
        let Some(row) = self.next()? else {
            return Ok(None);
        };
        if let Some(s) = sink {
            s.append(&row)?;
        }
        Ok(Some(1))
    }

    fn observation(&self) -> NodeObservation {
        Operator::observation(self.as_ref())
    }
}

fn build(node: Node<'_>) -> BoxOp<'_> {
    match node {
        Node::SeqScan(n) => Box::new(SeqScanOp {
            cursor: n.table.cursor(),
            n,
            pos: 0,
            input: 0,
            output: 0,
        }),
        Node::IndexScan(n) => Box::new(IndexScanOp {
            cursor: n.table.cursor(),
            n,
            pos: 0,
            opened: false,
            input: 0,
            output: 0,
        }),
        Node::HashJoin(kids, n) => Box::new(HashJoinOp {
            kids: kids.map(build),
            n,
            table: None,
            pending: Vec::new(),
            counts: [0; 3],
        }),
        Node::MergeJoin(kids, n) => Box::new(MergeJoinOp {
            kids: kids.map(build),
            n,
            state: None,
            counts: [0; 3],
        }),
        Node::NestedLoop(kids, n) => Box::new(NLJoinOp {
            kids: kids.map(build),
            n,
            inner: None,
            current: None,
            inner_pos: 0,
            counts: [0; 3],
        }),
        Node::IndexNL(left, n) => Box::new(IndexNLOp {
            left: build(*left),
            cursor: n.table.cursor(),
            n,
            pending: Vec::new(),
            counts: [0; 3],
        }),
    }
}

/// Whether row `row` passes every filter.
fn keeps_all(
    filters: &[CompiledFilter],
    cursor: &mut RowCursor<'_>,
    row: usize,
) -> std::result::Result<bool, ExecError> {
    for f in filters {
        if !f.keeps(cursor.value(row, f.col())?) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Materializes one row through the shared row codec (works for both
/// the in-memory and the paged backend).
fn materialize(cursor: &mut RowCursor<'_>, row: usize) -> std::result::Result<Row, ExecError> {
    let mut out = Vec::new();
    cursor.row_into(row, &mut out)?;
    Ok(out)
}

/// Join tuple counts `[left in, right in, out]` as an observation.
fn join_observation([left_rows, right_rows, out_rows]: [u64; 3]) -> NodeObservation {
    NodeObservation::Join {
        left_rows,
        right_rows,
        out_rows,
    }
}

fn key_of(row: &Row, keys: &[usize]) -> Vec<i64> {
    keys.iter().map(|&k| row[k]).collect()
}

/// Sequential scan with filters.
struct SeqScanOp<'a> {
    n: SeqScan<'a>,
    cursor: RowCursor<'a>,
    pos: usize,
    input: u64,
    output: u64,
}

impl Operator for SeqScanOp<'_> {
    fn next(&mut self) -> std::result::Result<Option<Row>, ExecError> {
        while self.pos < self.n.table.rows() {
            let r = self.pos;
            self.pos += 1;
            self.input += 1;
            self.n.row.tick()?;
            if keeps_all(&self.n.filters, &mut self.cursor, r)? {
                self.output += 1;
                return Ok(Some(materialize(&mut self.cursor, r)?));
            }
        }
        Ok(None)
    }

    fn observation(&self) -> NodeObservation {
        NodeObservation::Scan {
            in_rows: self.input,
            out_rows: self.output,
        }
    }
}

/// Index scan: fetches the driving filter's row ids one by one.
struct IndexScanOp<'a> {
    n: IndexScan<'a>,
    cursor: RowCursor<'a>,
    pos: usize,
    opened: bool,
    input: u64,
    output: u64,
}

impl Operator for IndexScanOp<'_> {
    fn next(&mut self) -> std::result::Result<Option<Row>, ExecError> {
        if !self.opened {
            self.opened = true;
            self.n.open.charge()?;
        }
        while self.pos < self.n.row_ids.len() {
            let r = self.n.row_ids[self.pos] as usize;
            self.pos += 1;
            self.input += 1;
            self.n.fetch.tick()?;
            if keeps_all(&self.n.residual, &mut self.cursor, r)? {
                self.output += 1;
                return Ok(Some(materialize(&mut self.cursor, r)?));
            }
        }
        Ok(None)
    }

    fn observation(&self) -> NodeObservation {
        NodeObservation::Scan {
            in_rows: self.input,
            out_rows: self.output,
        }
    }
}

/// Hash join: the right child is built into a hash table (blocking), the
/// left child probes.
struct HashJoinOp<'a> {
    kids: [BoxOp<'a>; 2],
    n: HashJoin,
    table: Option<HashMap<Vec<i64>, Vec<Row>>>,
    pending: Vec<Row>,
    counts: [u64; 3],
}

impl Operator for HashJoinOp<'_> {
    fn next(&mut self) -> std::result::Result<Option<Row>, ExecError> {
        if self.table.is_none() {
            let mut table: HashMap<Vec<i64>, Vec<Row>> = HashMap::new();
            while let Some(row) = self.kids[1].next()? {
                self.counts[1] += 1;
                self.n.build.tick()?;
                table
                    .entry(key_of(&row, &self.n.keys.right))
                    .or_default()
                    .push(row);
            }
            self.table = Some(table);
        }
        loop {
            if let Some(joined) = self.pending.pop() {
                self.counts[2] += 1;
                self.n.emit.tick()?;
                return Ok(Some(joined));
            }
            let Some(lrow) = self.kids[0].next()? else {
                return Ok(None);
            };
            self.counts[0] += 1;
            self.n.probe.tick()?;
            let table = self.table.as_ref().expect("built");
            for m in table
                .get(&key_of(&lrow, &self.n.keys.left))
                .into_iter()
                .flatten()
            {
                let mut joined = lrow.clone();
                joined.extend_from_slice(m);
                self.pending.push(joined);
            }
        }
    }

    fn observation(&self) -> NodeObservation {
        join_observation(self.counts)
    }
}

/// Sort-merge join: both children materialized and sorted (blocking),
/// then merged with per-group cross products.
struct MergeJoinOp<'a> {
    kids: [BoxOp<'a>; 2],
    n: MergeJoin,
    state: Option<MergeState>,
    counts: [u64; 3],
}

struct MergeState {
    lrows: Vec<Row>,
    rrows: Vec<Row>,
    li: usize,
    ri: usize,
    buf: Vec<Row>,
}

impl MergeJoinOp<'_> {
    fn open(&mut self) -> std::result::Result<(), ExecError> {
        let mut sides: [Vec<Row>; 2] = Default::default();
        for (side, rows) in sides.iter_mut().enumerate() {
            while let Some(r) = self.kids[side].next()? {
                self.counts[side] += 1;
                self.n.input.tick()?;
                rows.push(r);
            }
        }
        let [mut lrows, mut rrows] = sides;
        self.n.sort.charge_sort(lrows.len())?;
        self.n.sort.charge_sort(rrows.len())?;
        lrows.sort_by_key(|a| key_of(a, &self.n.keys.left));
        rrows.sort_by_key(|a| key_of(a, &self.n.keys.right));
        self.state = Some(MergeState {
            lrows,
            rrows,
            li: 0,
            ri: 0,
            buf: Vec::new(),
        });
        Ok(())
    }
}

impl Operator for MergeJoinOp<'_> {
    fn next(&mut self) -> std::result::Result<Option<Row>, ExecError> {
        if self.state.is_none() {
            self.open()?;
        }
        let (lkeys, rkeys) = (&self.n.keys.left, &self.n.keys.right);
        let st = self.state.as_mut().expect("opened");
        loop {
            if let Some(r) = st.buf.pop() {
                self.counts[2] += 1;
                self.n.emit.tick()?;
                return Ok(Some(r));
            }
            if st.li >= st.lrows.len() || st.ri >= st.rrows.len() {
                return Ok(None);
            }
            let lkey = key_of(&st.lrows[st.li], lkeys);
            let rkey = key_of(&st.rrows[st.ri], rkeys);
            match lkey.cmp(&rkey) {
                std::cmp::Ordering::Less => st.li += 1,
                std::cmp::Ordering::Greater => st.ri += 1,
                std::cmp::Ordering::Equal => {
                    // group boundaries
                    let lstart = st.li;
                    let mut lend = st.li;
                    while lend < st.lrows.len() && key_of(&st.lrows[lend], lkeys) == lkey {
                        lend += 1;
                    }
                    let rstart = st.ri;
                    let mut rend = st.ri;
                    while rend < st.rrows.len() && key_of(&st.rrows[rend], rkeys) == rkey {
                        rend += 1;
                    }
                    for li in lstart..lend {
                        for ri in rstart..rend {
                            let mut joined = st.lrows[li].clone();
                            joined.extend_from_slice(&st.rrows[ri]);
                            st.buf.push(joined);
                        }
                    }
                    st.li = lend;
                    st.ri = rend;
                }
            }
        }
    }

    fn observation(&self) -> NodeObservation {
        join_observation(self.counts)
    }
}

/// Block nested-loop join: inner materialized once, every pair compared.
struct NLJoinOp<'a> {
    kids: [BoxOp<'a>; 2],
    n: NestedLoop,
    inner: Option<Vec<Row>>,
    current: Option<Row>,
    inner_pos: usize,
    counts: [u64; 3],
}

impl Operator for NLJoinOp<'_> {
    fn next(&mut self) -> std::result::Result<Option<Row>, ExecError> {
        if self.inner.is_none() {
            let mut inner = Vec::new();
            while let Some(r) = self.kids[1].next()? {
                self.counts[1] += 1;
                inner.push(r);
            }
            self.inner = Some(inner);
        }
        let inner = self.inner.as_ref().expect("materialized");
        loop {
            if self.current.is_none() {
                let Some(l) = self.kids[0].next()? else {
                    return Ok(None);
                };
                self.counts[0] += 1;
                self.current = Some(l);
                self.inner_pos = 0;
            }
            let lrow = self.current.as_ref().expect("set above");
            while self.inner_pos < inner.len() {
                let rrow = &inner[self.inner_pos];
                self.inner_pos += 1;
                self.n.pair.tick()?;
                let keys = &self.n.keys;
                if keys
                    .left
                    .iter()
                    .zip(&keys.right)
                    .all(|(&lk, &rk)| lrow[lk] == rrow[rk])
                {
                    self.counts[2] += 1;
                    self.n.emit.tick()?;
                    let mut joined = lrow.clone();
                    joined.extend_from_slice(rrow);
                    return Ok(Some(joined));
                }
            }
            self.current = None;
        }
    }

    fn observation(&self) -> NodeObservation {
        join_observation(self.counts)
    }
}

/// Index nested-loop join: each outer tuple probes the inner relation's
/// B-tree on the key predicate; residual filters/predicates applied on
/// the fetched rows.
struct IndexNLOp<'a> {
    left: BoxOp<'a>,
    n: IndexNL<'a>,
    cursor: RowCursor<'a>,
    pending: Vec<Row>,
    counts: [u64; 3],
}

impl Operator for IndexNLOp<'_> {
    fn next(&mut self) -> std::result::Result<Option<Row>, ExecError> {
        loop {
            if let Some(r) = self.pending.pop() {
                self.counts[2] += 1;
                self.n.emit.tick()?;
                return Ok(Some(r));
            }
            let Some(lrow) = self.left.next()? else {
                return Ok(None);
            };
            self.counts[0] += 1;
            self.n.probe.tick()?;
            'rids: for &rid in self.n.index.eq(lrow[self.n.outer_key]) {
                let rid = rid as usize;
                self.n.matches.tick()?;
                if !keeps_all(&self.n.filters, &mut self.cursor, rid)? {
                    continue;
                }
                for &(lo, ic) in &self.n.residual {
                    if lrow[lo] != self.cursor.value(rid, ic)? {
                        continue 'rids;
                    }
                }
                let mut joined = lrow.clone();
                self.cursor.row_into(rid, &mut joined)?;
                self.pending.push(joined);
            }
        }
    }

    fn observation(&self) -> NodeObservation {
        // For selectivity monitoring the inner cardinality is the full
        // relation (the index skips non-matching rows; counting fetches
        // would bias the selectivity estimate).
        join_observation([self.counts[0], self.n.table.rows() as u64, self.counts[2]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::Meter;
    use crate::plan::{Keys, Lump};
    use crate::store::ColumnIndex;
    use rqp_catalog::DataTable;
    use rqp_storage::TableRef;

    fn table(cols: Vec<Vec<i64>>) -> DataTable {
        DataTable {
            name: "t".into(),
            columns: cols,
        }
    }

    fn scan<'a>(t: &'a DataTable, filters: Vec<CompiledFilter>, meter: &Meter) -> Node<'a> {
        Node::SeqScan(SeqScan {
            table: TableRef::Mem(t),
            filters,
            row: meter.ledger(0.01),
        })
    }

    fn index_scan<'a>(
        t: &'a DataTable,
        idx: &ColumnIndex,
        driving: CompiledFilter,
        residual: Vec<CompiledFilter>,
        meter: &Meter,
    ) -> Node<'a> {
        Node::IndexScan(IndexScan {
            table: TableRef::Mem(t),
            row_ids: driving.lookup(idx),
            residual,
            open: Lump::new(meter, 0.1),
            fetch: meter.ledger(0.01),
        })
    }

    fn keys(left: Vec<usize>, right: Vec<usize>, width: usize) -> Keys {
        Keys { left, right, width }
    }

    fn drain(node: Node<'_>) -> Vec<Row> {
        let mut op = build(node);
        let mut out = Vec::new();
        while let Some(r) = op.next().unwrap() {
            out.push(r);
        }
        out
    }

    #[test]
    fn merge_join_emits_full_cross_product_per_duplicate_key_group() {
        // left keys: [7, 7, 3]; right keys: [7, 7, 7, 3] → 2*3 + 1*1 = 7 rows
        let l = table(vec![vec![7, 7, 3], vec![10, 11, 12]]);
        let r = table(vec![vec![7, 7, 7, 3], vec![20, 21, 22, 23]]);
        let meter = Meter::new(f64::INFINITY);
        let kids = Box::new([scan(&l, vec![], &meter), scan(&r, vec![], &meter)]);
        let join = Node::MergeJoin(
            kids,
            MergeJoin {
                keys: keys(vec![0], vec![0], 4),
                input: meter.ledger(0.001),
                emit: meter.ledger(0.01),
                sort: Lump::new(&meter, 0.001),
            },
        );
        let rows = drain(join);
        assert_eq!(rows.len(), 7);
        // every emitted row joins equal keys
        for row in &rows {
            assert_eq!(row[0], row[2]);
        }
        // the hash join agrees
        let meter = Meter::new(f64::INFINITY);
        let kids = Box::new([scan(&l, vec![], &meter), scan(&r, vec![], &meter)]);
        let hj = Node::HashJoin(
            kids,
            HashJoin {
                keys: keys(vec![0], vec![0], 4),
                build: meter.ledger(0.001),
                probe: meter.ledger(0.001),
                emit: meter.ledger(0.01),
            },
        );
        assert_eq!(drain(hj).len(), 7);
    }

    #[test]
    fn index_scan_eq_and_le_driving_filters() {
        let t = table(vec![vec![5, 1, 5, 9, 3], vec![0, 1, 2, 3, 4]]);
        let idx = ColumnIndex::build(t.col(0));
        let meter = Meter::new(f64::INFINITY);
        let eq = CompiledFilter::Eq { col: 0, v: 5 };
        let rows = drain(index_scan(&t, &idx, eq, vec![], &meter));
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r[0] == 5));

        let le = CompiledFilter::Le { col: 0, v: 4 };
        let rows = drain(index_scan(&t, &idx, le, vec![], &meter));
        assert_eq!(rows.len(), 2, "values 1 and 3");
        assert!(rows.iter().all(|r| r[0] <= 4));
    }

    #[test]
    fn index_scan_residual_filters_apply() {
        let t = table(vec![vec![5, 5, 5], vec![1, 2, 3]]);
        let idx = ColumnIndex::build(t.col(0));
        let meter = Meter::new(f64::INFINITY);
        let node = index_scan(
            &t,
            &idx,
            CompiledFilter::Eq { col: 0, v: 5 },
            vec![CompiledFilter::Le { col: 1, v: 2 }],
            &meter,
        );
        assert_eq!(drain(node).len(), 2);
    }

    #[test]
    fn nested_loop_join_multi_key() {
        // two-column key: only exact (a,b) matches join
        let l = table(vec![vec![1, 1, 2], vec![10, 11, 10], vec![0, 1, 2]]);
        let r = table(vec![vec![1, 2], vec![10, 10]]);
        let meter = Meter::new(f64::INFINITY);
        let kids = Box::new([scan(&l, vec![], &meter), scan(&r, vec![], &meter)]);
        let join = Node::NestedLoop(
            kids,
            NestedLoop {
                keys: keys(vec![0, 1], vec![0, 1], 5),
                pair: meter.ledger(0.001),
                emit: meter.ledger(0.01),
            },
        );
        assert_eq!(drain(join).len(), 2, "(1,10) and (2,10) match");
    }

    #[test]
    fn counts_track_inputs_and_outputs() {
        let t = table(vec![vec![1, 2, 3, 4], vec![0, 0, 0, 0]]);
        let meter = Meter::new(f64::INFINITY);
        let mut op = build(scan(&t, vec![CompiledFilter::Le { col: 0, v: 2 }], &meter));
        while op.next().unwrap().is_some() {}
        assert_eq!(
            Operator::observation(op.as_ref()),
            NodeObservation::Scan {
                in_rows: 4,
                out_rows: 2
            }
        );
    }
}
