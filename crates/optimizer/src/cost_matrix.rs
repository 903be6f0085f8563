//! The shared plan×location cost matrix.
//!
//! Every empirical-evaluation pass (PlanBouquet, SpillBound, AlignedBound,
//! the native-optimizer baseline) ultimately asks the same question over
//! and over: *what does plan `p` cost at ESS location `q`?* Recosting a
//! plan tree is the hot path, and an exhaustive sweep over the grid asks
//! it `|POSP| × |grid|` times with heavy repetition. [`CostMatrix`]
//! answers it once per (plan, location) pair: a dense row-major matrix of
//! recosts keyed by interned [`PlanId`] × flat grid index, computed either
//! sequentially or with the same deterministic scoped-thread fan-out the
//! surface builder uses — both produce bit-identical cells, because each
//! cell is a pure function of (plan, location).

use crate::cost::NodeEstimate;
use crate::pipeline::DimMask;
use crate::{JoinMethod, Optimizer, PlanId, PlanNode, PlanPool, QuerySpec};
use rqp_common::{chunk_bounds, Cost, GridIdx, MultiGrid};
use serde::{Deserialize, Error, Serialize, Value};
use std::collections::HashMap;

/// Dense matrix of `cost(plan, location)` over a plan pool and an ESS
/// grid. Row-major: `cells[pid * grid_len + qa]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    nplans: usize,
    grid_len: usize,
    cells: Vec<Cost>,
}

// The cells are serialized as ONE packed string — 16 lowercase hex digits
// of each cost's IEEE-754 bit pattern — instead of a JSON number array.
// Equally bit-exact, but a warm artifact load scans a single string token
// rather than allocating hundreds of thousands of parsed floats, which is
// what keeps `rqp-artifacts` warm starts an order of magnitude faster
// than recompiling.
/// Packs costs as 16 lowercase hex digits each of their IEEE-754 bit
/// patterns.
fn encode_cells_hex(cells: &[Cost]) -> String {
    let mut hex = vec![0u8; cells.len() * 16];
    write_cells_hex(cells, &mut hex);
    String::from_utf8(hex).expect("hex digits are ascii")
}

/// The codec itself: fills `out`, exactly 16 bytes per cost.
fn write_cells_hex(cells: &[Cost], out: &mut [u8]) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    assert_eq!(out.len(), cells.len() * 16);
    for (chunk, &c) in out.chunks_exact_mut(16).zip(cells) {
        for (pair, b) in chunk.chunks_exact_mut(2).zip(c.to_bits().to_be_bytes()) {
            pair[0] = DIGITS[usize::from(b >> 4)];
            pair[1] = DIGITS[usize::from(b & 0xf)];
        }
    }
}

/// JSON text with holes for packed cost vectors: the text around them is
/// buffered, each vector's hex digits are rendered once, straight into
/// the caller's output buffer ([`write_into`](Self::write_into)).
#[derive(Debug, Default)]
pub struct PackedJson<'a> {
    text: Vec<u8>,
    /// `(offset, cells)`: the hex of `cells` precedes `text[offset]`.
    holes: Vec<(usize, &'a [Cost])>,
}

impl<'a> PackedJson<'a> {
    /// Appends `s` verbatim.
    pub fn raw(&mut self, s: &str) {
        self.text.extend_from_slice(s.as_bytes());
    }

    /// Starts an object member, `"name":`, with the comma any previous
    /// member needs. `name` must need no escaping.
    pub fn key(&mut self, name: &str) {
        if self.text.last() != Some(&b'{') {
            self.raw(",");
        }
        self.raw(&format!("\"{name}\":"));
    }

    /// Appends `cells` as one packed hex string value.
    pub fn cells(&mut self, cells: &'a [Cost]) {
        self.raw("\"");
        self.holes.push((self.text.len(), cells));
        self.raw("\"");
    }

    /// Length in bytes of the rendered JSON.
    pub fn rendered_len(&self) -> usize {
        let cells: usize = self.holes.iter().map(|(_, c)| c.len()).sum();
        self.text.len() + 16 * cells
    }

    /// Renders into `out`: [`rendered_len`](Self::rendered_len) bytes.
    pub fn write_into(&self, mut out: &mut [u8]) {
        let mut done = 0;
        for &(at, cells) in &self.holes {
            let (text, rest) = out.split_at_mut(at - done);
            text.copy_from_slice(&self.text[done..at]);
            let (hex, rest) = rest.split_at_mut(16 * cells.len());
            write_cells_hex(cells, hex);
            (out, done) = (rest, at);
        }
        out.copy_from_slice(&self.text[done..]);
    }
}

/// Inverse of [`encode_cells_hex`]; rejects non-hex digits and lengths
/// that are not a multiple of 16.
fn decode_cells_hex(hex: &[u8]) -> Result<Vec<Cost>, Error> {
    if !hex.len().is_multiple_of(16) {
        return Err(Error::msg("`cells_hex` length is not a multiple of 16"));
    }
    // Table-driven nibble decode: this loop walks millions of bytes
    // on every warm artifact load, so it must not branch per byte.
    // Invalid characters map to 0xff and are detected once per chunk.
    const NIBBLE: [u8; 256] = {
        let mut t = [0xffu8; 256];
        let mut i = 0;
        while i < 10 {
            t[b'0' as usize + i] = i as u8;
            i += 1;
        }
        let mut i = 0;
        while i < 6 {
            t[b'a' as usize + i] = 10 + i as u8;
            i += 1;
        }
        t
    };
    let mut cells = Vec::with_capacity(hex.len() / 16);
    for chunk in hex.chunks_exact(16) {
        let mut bits = 0u64;
        let mut bad = 0u8;
        for &b in chunk {
            let nibble = NIBBLE[b as usize];
            bad |= nibble;
            bits = (bits << 4) | u64::from(nibble & 0xf);
        }
        if bad & 0xf0 != 0 {
            return Err(Error::msg("non-hex digit in `cells_hex`"));
        }
        cells.push(Cost::from_bits(bits));
    }
    Ok(cells)
}

impl Serialize for CostMatrix {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("nplans".to_string(), self.nplans.to_value()),
            ("grid_len".to_string(), self.grid_len.to_value()),
            (
                "cells_hex".to_string(),
                Value::String(encode_cells_hex(&self.cells)),
            ),
        ])
    }
}

impl CostMatrix {
    /// Appends exactly what [`Serialize`] renders, cells as a hole.
    pub fn write_packed<'a>(&'a self, json: &mut PackedJson<'a>) {
        let (n, g) = (self.nplans, self.grid_len);
        json.raw(&format!("{{\"nplans\":{n},\"grid_len\":{g},\"cells_hex\":"));
        json.cells(&self.cells);
        json.raw("}");
    }
}

impl Deserialize for CostMatrix {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::msg("expected object for CostMatrix"))?;
        let nplans: usize = serde::field(obj, "nplans")?;
        let grid_len: usize = serde::field(obj, "grid_len")?;
        let cells = match v.get("cells_hex") {
            Some(Value::String(s)) => decode_cells_hex(s.as_bytes())?,
            _ => return Err(Error::msg("missing `cells_hex` string")),
        };
        Ok(Self {
            nplans,
            grid_len,
            cells,
        })
    }
}

impl CostMatrix {
    /// Recosts every pool plan at every grid location, sequentially.
    pub fn build(opt: &Optimizer<'_>, pool: &PlanPool, grid: &MultiGrid) -> Self {
        Self::build_parallel(opt, pool, grid, 1)
    }

    /// Recosts every pool plan at every grid location across `threads`
    /// scoped worker threads.
    ///
    /// The grid is split with [`chunk_bounds`] and each worker sweeps its
    /// column block of every row in flat order, in place; every cell is a
    /// pure function of (plan, location), so the matrix is bit-equal to
    /// the sequential build regardless of thread count.
    pub fn build_parallel(
        opt: &Optimizer<'_>,
        pool: &PlanPool,
        grid: &MultiGrid,
        threads: usize,
    ) -> Self {
        rqp_obs::span!("optimizer.cost_matrix.build");
        let nplans = pool.len();
        let grid_len = grid.len();
        let mut cells = vec![0.0; nplans * grid_len];
        let sweep = &RecostSweep::new(opt.query(), pool.iter().map(|(_, plan)| plan));
        let bounds = chunk_bounds(grid_len, threads);
        let mut blocks: Vec<Vec<&mut [Cost]>> = bounds.iter().map(|_| Vec::new()).collect();
        for mut row in cells.chunks_mut(grid_len) {
            for (block, &(lo, hi)) in blocks.iter_mut().zip(&bounds) {
                let (head, tail) = row.split_at_mut(hi - lo);
                block.push(head);
                row = tail;
            }
        }
        std::thread::scope(|s| {
            for (rows, &(lo, hi)) in blocks.iter_mut().zip(&bounds) {
                s.spawn(move || sweep.fill_block(opt, grid, lo..hi, rows));
            }
        });
        Self {
            nplans,
            grid_len,
            cells,
        }
    }

    /// Cost of plan `pid` at flat grid location `qa`.
    #[inline]
    pub fn cost(&self, pid: PlanId, qa: GridIdx) -> Cost {
        debug_assert!(pid < self.nplans && qa < self.grid_len);
        self.cells[pid * self.grid_len + qa]
    }

    /// All grid locations' costs for plan `pid`, in flat-index order.
    #[inline]
    pub fn row(&self, pid: PlanId) -> &[Cost] {
        &self.cells[pid * self.grid_len..(pid + 1) * self.grid_len]
    }

    /// Number of plans (rows).
    pub fn nplans(&self) -> usize {
        self.nplans
    }

    /// Number of grid locations (columns).
    pub fn grid_len(&self) -> usize {
        self.grid_len
    }

    /// Total number of cached recosts (`|POSP| × |grid|`).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the matrix has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// True if the matrix's declared shape matches its cell storage and the
    /// given pool/grid sizes — the invariant a deserialized matrix must be
    /// checked against before use.
    pub fn shape_matches(&self, nplans: usize, grid_len: usize) -> bool {
        self.nplans == nplans && self.grid_len == grid_len && self.cells.len() == nplans * grid_len
    }
}

/// Plans lowered once for recosting at many grid cells.
///
/// Each plan becomes a post-order list of its costed nodes (an index
/// nested-loop join costs its inner scan itself), each with the ESS
/// dimensions of the predicates in its subtree; a subtree several plans
/// share is lowered, and evaluated, once. A sweep moves one `Sels`
/// from cell to cell in place and re-evaluates only the nodes whose
/// dimensions changed; a node runs `CostModel::node_estimate`, the step
/// `CostModel::estimate` takes at it, so every cost is bit-equal to
/// `cost_plan(plan, sels_at(grid.sels(qa)))`. In flat order dimension 0
/// is the only one that changes on most steps.
#[derive(Debug, Default)]
pub struct RecostSweep<'p> {
    /// `(node, its children's slots, subtree dimensions)`, children before
    /// parents.
    nodes: Vec<(&'p PlanNode, [usize; 2], DimMask)>,
    /// Each plan's root slot.
    roots: Vec<usize>,
}

impl<'p> RecostSweep<'p> {
    /// Lowers `plans`, in order.
    pub fn new(query: &QuerySpec, plans: impl IntoIterator<Item = &'p PlanNode>) -> Self {
        let mut sweep = Self::default();
        let mut slots = HashMap::new();
        for plan in plans {
            let root = sweep.lower(query, plan, &mut slots);
            sweep.roots.push(root);
        }
        sweep
    }

    /// Appends `node`'s subtree in post order and returns its slot. Equal
    /// subtrees cost the same, so plans that share one share its slots.
    fn lower(
        &mut self,
        query: &QuerySpec,
        node: &'p PlanNode,
        slots: &mut HashMap<&'p PlanNode, usize>,
    ) -> usize {
        if let Some(&slot) = slots.get(node) {
            return slot;
        }
        let kids = match node {
            PlanNode::Scan { .. } => [0, 0],
            PlanNode::Join {
                method: JoinMethod::IndexNLJoin,
                left,
                ..
            } => [self.lower(query, left, slots); 2],
            PlanNode::Join { left, right, .. } => [
                self.lower(query, left, slots),
                self.lower(query, right, slots),
            ],
        };
        let dims = (node.all_preds().into_iter())
            .filter_map(|p| query.dim_of(p))
            .fold(0, |dims, j| dims | 1 << j);
        self.nodes.push((node, kids, dims));
        slots.insert(node, self.nodes.len() - 1);
        self.nodes.len() - 1
    }

    /// Visits the `k`-th of `cells`, in the order given, with every plan's
    /// cost there in plan order.
    pub fn sweep(
        &self,
        opt: &Optimizer<'_>,
        grid: &MultiGrid,
        cells: impl IntoIterator<Item = GridIdx>,
        mut visit: impl FnMut(usize, GridIdx, &[Cost]),
    ) {
        let model = opt.cost_model();
        let mut sels = opt.base_sels().clone();
        let mut est = vec![NodeEstimate::default(); self.nodes.len()];
        let mut costs = vec![0.0; self.roots.len()];
        let mut epp = vec![0.0; grid.ndims()];
        for (k, qa) in cells.into_iter().enumerate() {
            for (j, s) in epp.iter_mut().enumerate() {
                *s = grid.sel_at(qa, j);
            }
            let changed = opt.inject_into(&mut sels, &epp);
            for (slot, &(node, kids, dims)) in self.nodes.iter().enumerate() {
                if k == 0 || dims & changed != 0 {
                    let mut kids = kids.into_iter();
                    let e = model.node_estimate(node, &sels, |_| est[kids.next().unwrap_or(0)]);
                    est[slot] = e;
                }
            }
            for (cost, &root) in costs.iter_mut().zip(&self.roots) {
                *cost = est[root].cost;
            }
            visit(k, qa, &costs);
        }
    }

    /// Fills a column block: `rows[pid][k]` is plan `pid`'s cost at the
    /// `k`-th of `cells`.
    fn fill_block(
        &self,
        opt: &Optimizer<'_>,
        grid: &MultiGrid,
        cells: impl IntoIterator<Item = GridIdx>,
        rows: &mut [&mut [Cost]],
    ) {
        self.sweep(opt, grid, cells, |k, _, costs| {
            for (row, &cost) in rows.iter_mut().zip(costs) {
                row[k] = cost;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table-driven writer against the digit-by-digit definition of
    /// the codec, and a buffer with two holes against plain concatenation.
    #[test]
    fn packed_json_renders_text_and_hex_in_order() {
        let cells = [0.0, -0.0, 1.5, f64::MAX, f64::MIN_POSITIVE, 1e-300];
        let naive: String = cells
            .iter()
            .map(|c| format!("{:016x}", c.to_bits()))
            .collect();
        assert_eq!(encode_cells_hex(&cells), naive);
        assert_eq!(decode_cells_hex(naive.as_bytes()).unwrap(), cells);

        let mut json = PackedJson::default();
        json.raw("{");
        json.key("a");
        json.cells(&cells[..2]);
        json.key("b");
        json.raw("[1,2]");
        json.key("c");
        json.cells(&cells[2..]);
        json.key("d");
        json.cells(&[]);
        json.raw("}");
        let expect = format!(
            "{{\"a\":\"{}\",\"b\":[1,2],\"c\":\"{}\",\"d\":\"\"}}",
            &naive[..32],
            &naive[32..]
        );
        assert_eq!(json.rendered_len(), expect.len());
        let mut out = vec![0u8; json.rendered_len()];
        json.write_into(&mut out);
        assert_eq!(String::from_utf8(out).unwrap(), expect);
    }
}
