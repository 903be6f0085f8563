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

use crate::{Optimizer, PlanId, PlanPool};
use rqp_common::{chunk_bounds, Cost, GridIdx, MultiGrid};
use serde::{Deserialize, Error, Serialize, Value};

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
/// patterns. Public so other crates persisting cost vectors (the sparse
/// artifact payload) reuse the exact codec the matrices use.
pub fn encode_cells_hex(cells: &[Cost]) -> String {
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
pub fn decode_cells_hex(hex: &[u8]) -> Result<Vec<Cost>, Error> {
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

fn cells_hex_field(v: &Value) -> Result<&[u8], Error> {
    match v.get("cells_hex") {
        Some(Value::String(s)) => Ok(s.as_bytes()),
        _ => Err(Error::msg("missing `cells_hex` string")),
    }
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
        let cells = decode_cells_hex(cells_hex_field(v)?)?;
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
    /// The grid is split with [`chunk_bounds`] and each worker fills the
    /// column block for its locations; results are written by index, so
    /// the matrix is bit-equal to the sequential build regardless of
    /// thread count.
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
        if cells.is_empty() {
            return Self {
                nplans,
                grid_len,
                cells,
            };
        }
        let bounds = chunk_bounds(grid_len, threads);
        if bounds.len() <= 1 {
            Self::fill_columns(opt, pool, grid, 0, grid_len, &mut cells);
        } else {
            let blocks = std::thread::scope(|s| {
                let handles: Vec<_> = bounds
                    .iter()
                    .map(|&(lo, hi)| {
                        s.spawn(move || {
                            let mut block = vec![0.0; nplans * (hi - lo)];
                            Self::fill_block(opt, pool, grid, lo, hi, &mut block);
                            (lo, hi, block)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("cost matrix worker panicked"))
                    .collect::<Vec<_>>()
            });
            for (lo, hi, block) in blocks {
                let width = hi - lo;
                for pid in 0..nplans {
                    cells[pid * grid_len + lo..pid * grid_len + hi]
                        .copy_from_slice(&block[pid * width..(pid + 1) * width]);
                }
            }
        }
        Self {
            nplans,
            grid_len,
            cells,
        }
    }

    /// Fills locations `lo..hi` directly into the full matrix.
    fn fill_columns(
        opt: &Optimizer<'_>,
        pool: &PlanPool,
        grid: &MultiGrid,
        lo: usize,
        hi: usize,
        cells: &mut [Cost],
    ) {
        let grid_len = grid.len();
        for qa in lo..hi {
            let sels = opt.sels_at(&grid.sels(qa));
            for (pid, plan) in pool.iter() {
                cells[pid * grid_len + qa] = opt.cost_plan(plan, &sels);
            }
        }
    }

    /// Fills a worker-local column block for locations `lo..hi`
    /// (block-local stride `hi - lo`).
    fn fill_block(
        opt: &Optimizer<'_>,
        pool: &PlanPool,
        grid: &MultiGrid,
        lo: usize,
        hi: usize,
        block: &mut [Cost],
    ) {
        let width = hi - lo;
        for qa in lo..hi {
            let sels = opt.sels_at(&grid.sels(qa));
            for (pid, plan) in pool.iter() {
                block[pid * width + (qa - lo)] = opt.cost_plan(plan, &sels);
            }
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

/// Sparse companion of [`CostMatrix`] for lazily-built surfaces: recosts
/// every pool plan at a *chosen* list of grid cells (e.g. the
/// materialized cells of a lazy ESS surface) instead of the whole grid.
///
/// Row-major over the sorted cell list: `cells[pid * ncells + k]`, where
/// `k` is the rank of the flat grid index in `cell_idx`. Lookups by grid
/// index binary-search the cell list.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseCostMatrix {
    nplans: usize,
    cell_idx: Vec<GridIdx>,
    cells: Vec<Cost>,
}

impl Serialize for SparseCostMatrix {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("nplans".to_string(), self.nplans.to_value()),
            ("cell_idx".to_string(), self.cell_idx.to_value()),
            (
                "cells_hex".to_string(),
                Value::String(encode_cells_hex(&self.cells)),
            ),
        ])
    }
}

impl SparseCostMatrix {
    /// Appends exactly what [`Serialize`] renders, cells as a hole.
    pub fn write_packed<'a>(&'a self, json: &mut PackedJson<'a>) {
        let idx: Vec<String> = self.cell_idx.iter().map(|q| q.to_string()).collect();
        json.raw(&format!(
            "{{\"nplans\":{},\"cell_idx\":[{}],\"cells_hex\":",
            self.nplans,
            idx.join(",")
        ));
        json.cells(&self.cells);
        json.raw("}");
    }
}

impl Deserialize for SparseCostMatrix {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| Error::msg("expected object for SparseCostMatrix"))?;
        let nplans: usize = serde::field(obj, "nplans")?;
        let cell_idx: Vec<usize> = serde::field(obj, "cell_idx")?;
        let cells = decode_cells_hex(cells_hex_field(v)?)?;
        Ok(Self {
            nplans,
            cell_idx,
            cells,
        })
    }
}

impl SparseCostMatrix {
    /// Recosts every pool plan at each of the given grid cells. The cell
    /// list is sorted and deduplicated; each recost is the same pure
    /// `cost_plan(plan, sels_at(cell))` the dense builder computes, so a
    /// sparse cell is bit-equal to its dense counterpart.
    pub fn build(
        opt: &Optimizer<'_>,
        pool: &PlanPool,
        grid: &MultiGrid,
        cell_idx: &[GridIdx],
    ) -> Self {
        rqp_obs::span!("optimizer.cost_matrix.build_sparse");
        let mut cell_idx = cell_idx.to_vec();
        cell_idx.sort_unstable();
        cell_idx.dedup();
        debug_assert!(cell_idx.last().is_none_or(|&q| q < grid.len()));
        let nplans = pool.len();
        let mut cells = Vec::with_capacity(nplans * cell_idx.len());
        for (pid, plan) in pool.iter() {
            debug_assert_eq!(pid * cell_idx.len(), cells.len());
            for &qa in &cell_idx {
                let sels = opt.sels_at(&grid.sels(qa));
                cells.push(opt.cost_plan(plan, &sels));
            }
        }
        Self {
            nplans,
            cell_idx,
            cells,
        }
    }

    /// Cost of plan `pid` at flat grid location `qa`, or `None` when the
    /// cell is not part of the matrix.
    #[inline]
    pub fn cost(&self, pid: PlanId, qa: GridIdx) -> Option<Cost> {
        debug_assert!(pid < self.nplans);
        let k = self.cell_idx.binary_search(&qa).ok()?;
        Some(self.cells[pid * self.cell_idx.len() + k])
    }

    /// The covered flat grid indices, ascending.
    pub fn cell_indices(&self) -> &[GridIdx] {
        &self.cell_idx
    }

    /// Number of plans (rows).
    pub fn nplans(&self) -> usize {
        self.nplans
    }

    /// Number of covered grid cells (columns).
    pub fn ncells(&self) -> usize {
        self.cell_idx.len()
    }

    /// Total number of cached recosts (`|POSP| × |cells|`).
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the matrix has no recosts.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// True if the declared shape matches cell storage for the given pool
    /// size, the cell list is strictly ascending, and every index fits the
    /// given grid — the invariant a deserialized matrix must be checked
    /// against before use.
    pub fn shape_matches(&self, nplans: usize, grid_len: usize) -> bool {
        self.nplans == nplans
            && self.cells.len() == nplans * self.cell_idx.len()
            && self.cell_idx.windows(2).all(|w| w[0] < w[1])
            && self.cell_idx.last().is_none_or(|&q| q < grid_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::EnumerationMode;
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

    fn pool_and_grid(opt: &Optimizer<'_>, grid: &MultiGrid) -> PlanPool {
        let mut pool = PlanPool::new();
        for qa in grid.iter() {
            let (plan, _) = opt.optimize_at(&grid.sels(qa));
            pool.intern(plan);
        }
        pool
    }

    #[test]
    fn sparse_cells_bit_equal_to_dense() {
        let (cat, query) = fixture();
        let opt = Optimizer::new(
            &cat,
            &query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .unwrap();
        let grid = MultiGrid::uniform(2, 1e-5, 8);
        let pool = pool_and_grid(&opt, &grid);
        let dense = CostMatrix::build(&opt, &pool, &grid);
        let picks: Vec<GridIdx> = vec![0, 3, 17, 17, 63, 40, 3];
        let sparse = SparseCostMatrix::build(&opt, &pool, &grid, &picks);
        assert_eq!(sparse.cell_indices(), &[0, 3, 17, 40, 63]);
        assert_eq!(sparse.nplans(), pool.len());
        assert!(sparse.shape_matches(pool.len(), grid.len()));
        for pid in 0..pool.len() {
            for &qa in sparse.cell_indices() {
                let s = sparse.cost(pid, qa).expect("covered cell");
                assert_eq!(s.to_bits(), dense.cost(pid, qa).to_bits());
            }
            assert!(sparse.cost(pid, 1).is_none(), "uncovered cell is None");
        }
    }

    #[test]
    fn sparse_serde_round_trip_is_bit_exact() {
        let (cat, query) = fixture();
        let opt = Optimizer::new(
            &cat,
            &query,
            CostParams::default(),
            EnumerationMode::LeftDeep,
        )
        .unwrap();
        let grid = MultiGrid::uniform(2, 1e-5, 6);
        let pool = pool_and_grid(&opt, &grid);
        let sparse = SparseCostMatrix::build(&opt, &pool, &grid, &[2, 5, 11, 35]);
        let v = sparse.to_value();
        let back = SparseCostMatrix::from_value(&v).unwrap();
        assert_eq!(back, sparse);
        assert!(back.shape_matches(pool.len(), grid.len()));
    }

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

    #[test]
    fn sparse_shape_rejects_malformed() {
        let m = SparseCostMatrix {
            nplans: 2,
            cell_idx: vec![3, 3],
            cells: vec![1.0; 4],
        };
        assert!(!m.shape_matches(2, 100), "duplicate cell indices");
        let m = SparseCostMatrix {
            nplans: 2,
            cell_idx: vec![3, 7],
            cells: vec![1.0; 3],
        };
        assert!(!m.shape_matches(2, 100), "cell storage mismatch");
        let m = SparseCostMatrix {
            nplans: 1,
            cell_idx: vec![3, 200],
            cells: vec![1.0; 2],
        };
        assert!(!m.shape_matches(1, 100), "index beyond grid");
    }
}
