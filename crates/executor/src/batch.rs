//! The execution engine: vectorized (batch-at-a-time) operators over the
//! full plan-operator set.
//!
//! Operators exchange `Batch`es of (typically) [`BATCH_SIZE`] tuples in
//! column-major layout, with filters evaluated over selection vectors and
//! joins emitting through tight gather loops. Sequential and index scans,
//! hash / sort-merge / nested-loop / index-NL joins cover every plan
//! shape the optimizer emits.
//!
//! **Metering.** Operators are built from lowered plan nodes, which fix
//! every charge rate and the ledger order. They tick the same tuple counts
//! and issue the same direct lumps (index opens, sorts) at the same stream
//! points as the row-at-a-time reference engine ([`crate::reference`]) —
//! so completed runs report bit-identical
//! `spent`, budget trips decide completion from the same final total
//! (checks land on batch edges, i.e. [`CHARGE_QUANTUM`] boundaries), and
//! spill observations carry the same counts. SB/AB discovery reports are
//! therefore byte-identical across engines, on both the in-memory and the
//! paged [`TableStore`] backend (see `tests/batch_vs_row.rs`).

use crate::meter::{ExecError, CHARGE_QUANTUM};
use crate::plan::{HashJoin, IndexNL, IndexScan, MergeJoin, NestedLoop, Node, SeqScan};
use crate::run::{Context, ExecOutcome, NodeObservation, PlanEngine, Pull, SpillRun};
use rqp_catalog::Catalog;
use rqp_common::{Cost, Result};
use rqp_faults::FaultPlan;
use rqp_obs::MetricsRegistry;
use rqp_optimizer::{CostParams, PlanNode, QuerySpec};
use rqp_storage::{RowCursor, SpillSink, TableRef, TableStore};
use std::collections::HashMap;
use std::sync::Arc;

/// Tuples per batch (equal to the metering quantum, so budget checks
/// align with batch edges in both engines).
pub const BATCH_SIZE: usize = CHARGE_QUANTUM as usize;

/// A column-major batch of tuples.
struct Batch {
    /// Column vectors, all of equal length.
    cols: Vec<Vec<i64>>,
    /// Number of tuples.
    len: usize,
}

impl Batch {
    /// An empty batch of `width` columns; columns grow as rows arrive.
    fn with_width(width: usize) -> Self {
        Self {
            cols: vec![Vec::new(); width],
            len: 0,
        }
    }
}

/// Columnar gather of matched `(left_row, right_row)` pairs into `out`
/// (left columns first). This is the joins' emit hot path: one tight
/// per-column loop with an exact-size reserve, instead of a per-value
/// branch in a row-at-a-time loop.
fn emit_pairs(out: &mut Batch, pairs: &[(u32, u32)], lcols: &[Vec<i64>], rcols: &[Vec<i64>]) {
    let nl = lcols.len();
    for (c, dst) in out.cols.iter_mut().enumerate() {
        if c < nl {
            let src = &lcols[c];
            dst.extend(pairs.iter().map(|&(l, _)| src[l as usize]));
        } else {
            let src = &rcols[c - nl];
            dst.extend(pairs.iter().map(|&(_, r)| src[r as usize]));
        }
    }
    out.len += pairs.len();
}

/// Drains `op` onto `cols` (column-major), handing each batch's length
/// to `on_batch` first; returns the row count.
fn drain_into(
    op: &mut BoxBatchOp<'_>,
    cols: &mut Vec<Vec<i64>>,
    mut on_batch: impl FnMut(usize) -> std::result::Result<(), ExecError>,
) -> std::result::Result<usize, ExecError> {
    let mut rows = 0;
    while let Some(b) = op.next_batch()? {
        on_batch(b.len)?;
        if cols.is_empty() {
            *cols = vec![Vec::new(); b.cols.len()];
        }
        for (dst, src) in cols.iter_mut().zip(&b.cols) {
            dst.extend_from_slice(src);
        }
        rows += b.len;
    }
    Ok(rows)
}

/// Batch-at-a-time operator interface.
trait BatchOperator {
    fn next_batch(&mut self) -> std::result::Result<Option<Batch>, ExecError>;

    /// Tuple counts observed so far (selectivity monitoring).
    fn observation(&self) -> NodeObservation;
}

type BoxBatchOp<'a> = Box<dyn BatchOperator + 'a>;

impl Pull for BoxBatchOp<'_> {
    fn pull(
        &mut self,
        sink: Option<&mut (dyn SpillSink + '_)>,
    ) -> std::result::Result<Option<u64>, ExecError> {
        let Some(b) = self.next_batch()? else {
            return Ok(None);
        };
        if let Some(s) = sink {
            let mut row = Vec::with_capacity(b.cols.len());
            for r in 0..b.len {
                row.clear();
                row.extend(b.cols.iter().map(|c| c[r]));
                s.append(&row)?;
            }
        }
        Ok(Some(b.len as u64))
    }

    fn observation(&self) -> NodeObservation {
        BatchOperator::observation(self.as_ref())
    }
}

/// Builds the operator tree of a lowered plan.
fn build(node: Node<'_>) -> BoxBatchOp<'_> {
    match node {
        Node::SeqScan(n) => Box::new(BatchSeqScan::new(n)),
        Node::IndexScan(n) => Box::new(BatchIndexScan::new(n)),
        Node::HashJoin(kids, n) => Box::new(BatchHashJoin::new(kids.map(build), n)),
        Node::MergeJoin(kids, n) => Box::new(BatchMergeJoin::new(kids.map(build), n)),
        Node::NestedLoop(kids, n) => Box::new(BatchNLJoin::new(kids.map(build), n)),
        Node::IndexNL(left, n) => Box::new(BatchIndexNL::new(build(*left), n)),
    }
}

/// Sequential scan producing filtered batches.
///
/// In-memory tables use a columnar selection-vector gather directly over
/// the source columns; paged tables read whole batches through the
/// buffer pool ([`RowCursor::read_batch`], one pin per page) into a
/// scratch area and filter there.
struct BatchSeqScan<'a> {
    n: SeqScan<'a>,
    cursor: RowCursor<'a>,
    pos: usize,
    scratch: Vec<Vec<i64>>,
    sel: Vec<u32>,
    input: u64,
    output: u64,
}

impl<'a> BatchSeqScan<'a> {
    fn new(n: SeqScan<'a>) -> Self {
        Self {
            cursor: n.table.cursor(),
            pos: 0,
            scratch: vec![Vec::new(); n.table.ncols()],
            sel: Vec::with_capacity(BATCH_SIZE),
            input: 0,
            output: 0,
            n,
        }
    }
}

impl BatchOperator for BatchSeqScan<'_> {
    fn next_batch(&mut self) -> std::result::Result<Option<Batch>, ExecError> {
        let table = self.n.table;
        let n = table.rows();
        if self.pos >= n {
            return Ok(None);
        }
        let hi = (self.pos + BATCH_SIZE).min(n);
        let count = hi - self.pos;
        self.input += count as u64;
        self.n.row.tick_n(count as u64)?;
        let mut out = Batch::with_width(table.ncols());
        if let TableRef::Mem(table) = table {
            if self.n.filters.is_empty() {
                // No predicate: one memcpy per column.
                out.len = count;
                for (c, dst) in out.cols.iter_mut().enumerate() {
                    dst.extend_from_slice(&table.col(c)[self.pos..hi]);
                }
            } else {
                // Selection vector over [pos, hi), then columnar gather.
                self.sel.clear();
                self.sel.extend(self.pos as u32..hi as u32);
                for f in &self.n.filters {
                    let data = table.col(f.col());
                    self.sel.retain(|&r| f.keeps(data[r as usize]));
                }
                out.len = self.sel.len();
                for (c, dst) in out.cols.iter_mut().enumerate() {
                    let data = table.col(c);
                    dst.extend(self.sel.iter().map(|&r| data[r as usize]));
                }
            }
        } else {
            for col in &mut self.scratch {
                col.clear();
            }
            self.cursor.read_batch(self.pos, hi, &mut self.scratch)?;
            self.sel.clear();
            self.sel.extend(0..count as u32);
            for f in &self.n.filters {
                let data = &self.scratch[f.col()];
                self.sel.retain(|&r| f.keeps(data[r as usize]));
            }
            out.len = self.sel.len();
            for (c, dst) in out.cols.iter_mut().enumerate() {
                let data = &self.scratch[c];
                dst.extend(self.sel.iter().map(|&r| data[r as usize]));
            }
        }
        self.output += out.len as u64;
        self.pos = hi;
        Ok(Some(out))
    }

    fn observation(&self) -> NodeObservation {
        NodeObservation::Scan {
            in_rows: self.input,
            out_rows: self.output,
        }
    }
}

/// Index scan: row ids from the driving filter's B-tree, fetched in
/// batch windows with residual filters applied on the gathered rows.
struct BatchIndexScan<'a> {
    n: IndexScan<'a>,
    cursor: RowCursor<'a>,
    pos: usize,
    opened: bool,
    row: Vec<i64>,
    input: u64,
    output: u64,
}

impl<'a> BatchIndexScan<'a> {
    fn new(n: IndexScan<'a>) -> Self {
        Self {
            cursor: n.table.cursor(),
            pos: 0,
            opened: false,
            row: Vec::new(),
            input: 0,
            output: 0,
            n,
        }
    }
}

impl BatchOperator for BatchIndexScan<'_> {
    fn next_batch(&mut self) -> std::result::Result<Option<Batch>, ExecError> {
        if !self.opened {
            self.opened = true;
            self.n.open.charge()?;
        }
        let ids = &self.n.row_ids;
        if self.pos >= ids.len() {
            return Ok(None);
        }
        let hi = (self.pos + BATCH_SIZE).min(ids.len());
        let count = hi - self.pos;
        self.input += count as u64;
        self.n.fetch.tick_n(count as u64)?;
        let mut out = Batch::with_width(self.n.table.ncols());
        'ids: for &rid in &ids[self.pos..hi] {
            let rid = rid as usize;
            for f in &self.n.residual {
                if !f.keeps(self.cursor.value(rid, f.col())?) {
                    continue 'ids;
                }
            }
            self.row.clear();
            self.cursor.row_into(rid, &mut self.row)?;
            for (dst, &x) in out.cols.iter_mut().zip(&self.row) {
                dst.push(x);
            }
            out.len += 1;
        }
        self.output += out.len as u64;
        self.pos = hi;
        Ok(Some(out))
    }

    fn observation(&self) -> NodeObservation {
        NodeObservation::Scan {
            in_rows: self.input,
            out_rows: self.output,
        }
    }
}

/// Hash join over batches: right child fully built, left child probed
/// batch-by-batch. Single-column keys probe an `i64`-keyed table (no
/// per-row key allocation).
struct BatchHashJoin<'a> {
    kids: [BoxBatchOp<'a>; 2],
    n: HashJoin,
    built: Option<BuildSide>,
    pairs: Vec<(u32, u32)>,
    left_in: u64,
    right_in: u64,
    out: u64,
}

struct BuildSide {
    /// Build tuples, column-major.
    cols: Vec<Vec<i64>>,
    /// key → build row ids.
    index: KeyIndex,
}

enum KeyIndex {
    /// Single-column key over a bounded range: CSR bucket table. Bucket
    /// `b = key - min` holds `ids[offsets[b]..offsets[b + 1]]` — a probe
    /// is one subtraction and two array loads, no hashing. Dimension
    /// surrogate keys are `Serial`, so this is the common case.
    Dense {
        min: i64,
        offsets: Vec<u32>,
        ids: Vec<u32>,
    },
    Single(HashMap<i64, Vec<u32>>),
    Multi(HashMap<Vec<i64>, Vec<u32>>),
}

/// Probe structure for a completed build side. Build row ids appear in
/// bucket order of arrival, so match order (and therefore output order)
/// is identical across all three variants.
fn build_index(cols: &[Vec<i64>], rkeys: &[usize], total: u32) -> KeyIndex {
    if rkeys.len() != 1 {
        let mut map: HashMap<Vec<i64>, Vec<u32>> = HashMap::new();
        #[allow(clippy::needless_range_loop)]
        for r in 0..total as usize {
            let key: Vec<i64> = rkeys.iter().map(|&k| cols[k][r]).collect();
            map.entry(key).or_default().push(r as u32);
        }
        return KeyIndex::Multi(map);
    }
    if total > 0 {
        let kc = &cols[rkeys[0]];
        let (mut min, mut max) = (i64::MAX, i64::MIN);
        for &k in kc {
            min = min.min(k);
            max = max.max(k);
        }
        let range = (max as i128 - min as i128) as u128 + 1;
        if range <= 2 * total as u128 + 4096 {
            let range = range as usize;
            let mut offsets = vec![0u32; range + 1];
            for &k in kc {
                offsets[(k - min) as usize + 1] += 1;
            }
            for i in 0..range {
                offsets[i + 1] += offsets[i];
            }
            let mut next = offsets.clone();
            let mut ids = vec![0u32; total as usize];
            for (r, &k) in kc.iter().enumerate() {
                let b = (k - min) as usize;
                ids[next[b] as usize] = r as u32;
                next[b] += 1;
            }
            return KeyIndex::Dense { min, offsets, ids };
        }
        let mut map: HashMap<i64, Vec<u32>> = HashMap::new();
        for (r, &k) in kc.iter().enumerate() {
            map.entry(k).or_default().push(r as u32);
        }
        return KeyIndex::Single(map);
    }
    KeyIndex::Single(HashMap::new())
}

impl<'a> BatchHashJoin<'a> {
    fn new(kids: [BoxBatchOp<'a>; 2], n: HashJoin) -> Self {
        Self {
            kids,
            n,
            built: None,
            pairs: Vec::new(),
            left_in: 0,
            right_in: 0,
            out: 0,
        }
    }

    fn do_build(&mut self) -> std::result::Result<(), ExecError> {
        let mut cols = Vec::new();
        let (build, right_in) = (&self.n.build, &mut self.right_in);
        let total = drain_into(&mut self.kids[1], &mut cols, |len| {
            *right_in += len as u64;
            build.tick_n(len as u64)
        })?;
        let index = build_index(&cols, &self.n.keys.right, total as u32);
        self.built = Some(BuildSide { cols, index });
        Ok(())
    }
}

impl BatchOperator for BatchHashJoin<'_> {
    fn next_batch(&mut self) -> std::result::Result<Option<Batch>, ExecError> {
        if self.built.is_none() {
            self.do_build()?;
        }
        loop {
            let Some(probe) = self.kids[0].next_batch()? else {
                return Ok(None);
            };
            self.left_in += probe.len as u64;
            self.n.probe.tick_n(probe.len as u64)?;
            let built = self.built.as_ref().expect("built");
            let lkeys = &self.n.keys.left;
            self.pairs.clear();
            match &built.index {
                KeyIndex::Dense { min, offsets, ids } => {
                    let kc = &probe.cols[lkeys[0]];
                    for (r, k) in kc[..probe.len].iter().enumerate() {
                        let Some(b) = k
                            .checked_sub(*min)
                            .and_then(|d| usize::try_from(d).ok())
                            .filter(|&b| b + 1 < offsets.len())
                        else {
                            continue;
                        };
                        let (s, e) = (offsets[b] as usize, offsets[b + 1] as usize);
                        self.pairs.extend(ids[s..e].iter().map(|&m| (r as u32, m)));
                    }
                }
                KeyIndex::Single(map) => {
                    let kc = &probe.cols[lkeys[0]];
                    for (r, k) in kc[..probe.len].iter().enumerate() {
                        if let Some(matches) = map.get(k) {
                            self.pairs.extend(matches.iter().map(|&m| (r as u32, m)));
                        }
                    }
                }
                KeyIndex::Multi(map) => {
                    for r in 0..probe.len {
                        let key: Vec<i64> = lkeys.iter().map(|&k| probe.cols[k][r]).collect();
                        if let Some(matches) = map.get(&key) {
                            self.pairs.extend(matches.iter().map(|&m| (r as u32, m)));
                        }
                    }
                }
            }
            let mut out = Batch::with_width(self.n.keys.width);
            emit_pairs(&mut out, &self.pairs, &probe.cols, &built.cols);
            self.out += out.len as u64;
            self.n.emit.tick_n(out.len as u64)?;
            if out.len > 0 {
                return Ok(Some(out));
            }
            // else keep pulling probe batches
        }
    }

    fn observation(&self) -> NodeObservation {
        NodeObservation::Join {
            left_rows: self.left_in,
            right_rows: self.right_in,
            out_rows: self.out,
        }
    }
}

/// Sort-merge join: both children drained into column-major buffers,
/// row orders sorted by key, per-group cross products emitted in batches.
struct BatchMergeJoin<'a> {
    kids: [BoxBatchOp<'a>; 2],
    n: MergeJoin,
    state: Option<MergeBatchState>,
    left_in: u64,
    right_in: u64,
    out: u64,
}

struct MergeBatchState {
    lcols: Vec<Vec<i64>>,
    rcols: Vec<Vec<i64>>,
    lorder: Vec<u32>,
    rorder: Vec<u32>,
    li: usize,
    ri: usize,
}

fn key_at(cols: &[Vec<i64>], keys: &[usize], r: u32) -> Vec<i64> {
    keys.iter().map(|&k| cols[k][r as usize]).collect()
}

impl<'a> BatchMergeJoin<'a> {
    fn new(kids: [BoxBatchOp<'a>; 2], n: MergeJoin) -> Self {
        Self {
            kids,
            n,
            state: None,
            left_in: 0,
            right_in: 0,
            out: 0,
        }
    }

    fn open(&mut self) -> std::result::Result<(), ExecError> {
        let [left, right] = &mut self.kids;
        let input = &self.n.input;
        let mut lcols = Vec::new();
        let left_in = &mut self.left_in;
        let lrows = drain_into(left, &mut lcols, |len| {
            *left_in += len as u64;
            input.tick_n(len as u64)
        })?;
        let mut rcols = Vec::new();
        let right_in = &mut self.right_in;
        let rrows = drain_into(right, &mut rcols, |len| {
            *right_in += len as u64;
            input.tick_n(len as u64)
        })?;
        self.n.sort.charge_sort(lrows)?;
        self.n.sort.charge_sort(rrows)?;
        let keys = &self.n.keys;
        let mut lorder: Vec<u32> = (0..lrows as u32).collect();
        lorder.sort_by_key(|&r| key_at(&lcols, &keys.left, r));
        let mut rorder: Vec<u32> = (0..rrows as u32).collect();
        rorder.sort_by_key(|&r| key_at(&rcols, &keys.right, r));
        self.state = Some(MergeBatchState {
            lcols,
            rcols,
            lorder,
            rorder,
            li: 0,
            ri: 0,
        });
        Ok(())
    }
}

impl BatchOperator for BatchMergeJoin<'_> {
    fn next_batch(&mut self) -> std::result::Result<Option<Batch>, ExecError> {
        if self.state.is_none() {
            self.open()?;
        }
        let (lkeys, rkeys) = (&self.n.keys.left, &self.n.keys.right);
        let st = self.state.as_mut().expect("opened");
        if st.li >= st.lorder.len() || st.ri >= st.rorder.len() {
            return Ok(None);
        }
        let mut out = Batch::with_width(self.n.keys.width);
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        while st.li < st.lorder.len() && st.ri < st.rorder.len() && pairs.len() < BATCH_SIZE {
            let lkey = key_at(&st.lcols, lkeys, st.lorder[st.li]);
            let rkey = key_at(&st.rcols, rkeys, st.rorder[st.ri]);
            match lkey.cmp(&rkey) {
                std::cmp::Ordering::Less => st.li += 1,
                std::cmp::Ordering::Greater => st.ri += 1,
                std::cmp::Ordering::Equal => {
                    let lstart = st.li;
                    let mut lend = st.li;
                    while lend < st.lorder.len()
                        && key_at(&st.lcols, lkeys, st.lorder[lend]) == lkey
                    {
                        lend += 1;
                    }
                    let rstart = st.ri;
                    let mut rend = st.ri;
                    while rend < st.rorder.len()
                        && key_at(&st.rcols, rkeys, st.rorder[rend]) == rkey
                    {
                        rend += 1;
                    }
                    for &lr in &st.lorder[lstart..lend] {
                        pairs.extend(st.rorder[rstart..rend].iter().map(|&rr| (lr, rr)));
                    }
                    st.li = lend;
                    st.ri = rend;
                }
            }
        }
        emit_pairs(&mut out, &pairs, &st.lcols, &st.rcols);
        self.out += out.len as u64;
        self.n.emit.tick_n(out.len as u64)?;
        Ok(Some(out))
    }

    fn observation(&self) -> NodeObservation {
        NodeObservation::Join {
            left_rows: self.left_in,
            right_rows: self.right_in,
            out_rows: self.out,
        }
    }
}

/// Block nested-loop join: inner materialized column-major once, every
/// (outer, inner) pair compared in a tight loop.
struct BatchNLJoin<'a> {
    kids: [BoxBatchOp<'a>; 2],
    n: NestedLoop,
    inner: Vec<Vec<i64>>,
    inner_len: usize,
    opened: bool,
    left_in: u64,
    out: u64,
}

impl<'a> BatchNLJoin<'a> {
    fn new(kids: [BoxBatchOp<'a>; 2], n: NestedLoop) -> Self {
        Self {
            kids,
            n,
            inner: Vec::new(),
            inner_len: 0,
            opened: false,
            left_in: 0,
            out: 0,
        }
    }
}

impl BatchOperator for BatchNLJoin<'_> {
    fn next_batch(&mut self) -> std::result::Result<Option<Batch>, ExecError> {
        if !self.opened {
            // Inner materialization is uncharged.
            self.inner_len = drain_into(&mut self.kids[1], &mut self.inner, |_| Ok(()))?;
            self.opened = true;
        }
        let Some(probe) = self.kids[0].next_batch()? else {
            return Ok(None);
        };
        self.left_in += probe.len as u64;
        let keys = &self.n.keys;
        // Match pairs are collected row-at-a-time (the per-left-row
        // `pair` / `emit` tick order is the metering contract), but the
        // output copy is a single columnar gather at the end.
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for r in 0..probe.len {
            self.n.pair.tick_n(self.inner_len as u64)?;
            let before = pairs.len();
            for j in 0..self.inner_len {
                let matched = keys
                    .left
                    .iter()
                    .zip(&keys.right)
                    .all(|(&lk, &rk)| probe.cols[lk][r] == self.inner[rk][j]);
                if matched {
                    pairs.push((r as u32, j as u32));
                }
            }
            self.n.emit.tick_n((pairs.len() - before) as u64)?;
        }
        let mut out = Batch::with_width(keys.width);
        emit_pairs(&mut out, &pairs, &probe.cols, &self.inner);
        self.out += out.len as u64;
        Ok(Some(out))
    }

    fn observation(&self) -> NodeObservation {
        NodeObservation::Join {
            left_rows: self.left_in,
            right_rows: self.inner_len as u64,
            out_rows: self.out,
        }
    }
}

/// Index nested-loop join: each outer batch probes the inner relation's
/// B-tree per row; residual filters/predicates applied on fetched rows.
struct BatchIndexNL<'a> {
    left: BoxBatchOp<'a>,
    n: IndexNL<'a>,
    inner_cursor: RowCursor<'a>,
    row: Vec<i64>,
    left_in: u64,
    out: u64,
}

impl<'a> BatchIndexNL<'a> {
    fn new(left: BoxBatchOp<'a>, n: IndexNL<'a>) -> Self {
        Self {
            left,
            inner_cursor: n.table.cursor(),
            n,
            row: Vec::new(),
            left_in: 0,
            out: 0,
        }
    }
}

impl BatchOperator for BatchIndexNL<'_> {
    fn next_batch(&mut self) -> std::result::Result<Option<Batch>, ExecError> {
        let Some(probe) = self.left.next_batch()? else {
            return Ok(None);
        };
        self.left_in += probe.len as u64;
        self.n.probe.tick_n(probe.len as u64)?;
        let mut out = Batch::with_width(self.n.width);
        let nl = probe.cols.len();
        for r in 0..probe.len {
            let rids = self.n.index.eq(probe.cols[self.n.outer_key][r]);
            self.n.matches.tick_n(rids.len() as u64)?;
            'rids: for &rid in rids {
                let rid = rid as usize;
                for f in &self.n.filters {
                    if !f.keeps(self.inner_cursor.value(rid, f.col())?) {
                        continue 'rids;
                    }
                }
                for &(lo, ic) in &self.n.residual {
                    if probe.cols[lo][r] != self.inner_cursor.value(rid, ic)? {
                        continue 'rids;
                    }
                }
                self.row.clear();
                self.inner_cursor.row_into(rid, &mut self.row)?;
                for (c, dst) in out.cols.iter_mut().enumerate() {
                    if c < nl {
                        dst.push(probe.cols[c][r]);
                    } else {
                        dst.push(self.row[c - nl]);
                    }
                }
                out.len += 1;
            }
        }
        self.out += out.len as u64;
        self.n.emit.tick_n(out.len as u64)?;
        Ok(Some(out))
    }

    fn observation(&self) -> NodeObservation {
        // For selectivity monitoring the inner cardinality is the full
        // relation (the index skips non-matching rows; counting fetches
        // would bias the selectivity estimate).
        NodeObservation::Join {
            left_rows: self.left_in,
            right_rows: self.n.table.rows() as u64,
            out_rows: self.out,
        }
    }
}

/// The execution engine: compiles physical plans to vectorized operator
/// trees and runs them through [`PlanEngine`] over any [`TableStore`]
/// backend (in-memory `DataStore` or paged `rqp_storage::PagedStore`).
#[derive(Debug)]
pub struct Engine<'a> {
    ctx: Context<'a>,
}

impl<'a> Engine<'a> {
    /// Creates an engine over `store` for plans of `query`.
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

    /// Attaches a fault-injection plan: scheduled `run_full` / `run_spill`
    /// calls abort with a typed fault after a seeded fraction of their
    /// budget (checked at batch edges).
    pub fn with_faults(mut self, plan: Arc<FaultPlan>) -> Self {
        self.ctx.faults = Some(plan);
        self
    }

    /// Does nothing. The benchmark's `discover-paged` workload
    /// (`benchmark/src/workloads/discover_paged.rs`) still calls it; it goes
    /// when that workload moves onto the strategy table (ROADMAP item 1).
    #[doc(hidden)]
    pub fn with_metrics(self, _registry: &MetricsRegistry) -> Self {
        self
    }
}

impl PlanEngine for Engine<'_> {
    fn run_full(&self, plan: &PlanNode, budget: Cost) -> Result<ExecOutcome> {
        rqp_obs::span!("executor.batch.run_full");
        self.ctx.run_full(plan, budget, build)
    }

    fn run_spill(&self, plan: &PlanNode, pred: usize, budget: Cost) -> Result<SpillRun> {
        rqp_obs::span!("executor.batch.run_spill");
        self.ctx.run_spill(plan, pred, budget, build)
    }
}
