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
use std::collections::HashMap;

/// Dense matrix of `cost(plan, location)` over a plan pool and an ESS
/// grid. Row-major: `cells[pid * grid_len + qa]`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostMatrix {
    nplans: usize,
    grid_len: usize,
    cells: Vec<Cost>,
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

    /// A matrix over cells laid out as [`build`](Self::build) lays them
    /// out, plan-major; `None` unless there are `nplans × grid_len`.
    pub fn from_cells(nplans: usize, grid_len: usize, cells: Vec<Cost>) -> Option<Self> {
        let matrix = Self {
            nplans,
            grid_len,
            cells,
        };
        matrix.shape_matches(nplans, grid_len).then_some(matrix)
    }

    /// Every cell, plan-major: [`row`](Self::row) after row.
    pub fn cells(&self) -> &[Cost] {
        &self.cells
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
    /// given pool/grid sizes — the invariant a decoded matrix must be
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
