//! Views of the ESS with learnt dimensions pinned.
//!
//! As discovery proceeds, fully-learnt epps are removed from the search:
//! "the effective search space is the subset of locations on `IC_i` whose
//! selectivity along the learnt dimensions matches the learnt
//! selectivities" (§4.2). An [`EssView`] represents exactly that subset —
//! the sub-grid where each learnt dimension is pinned to one coordinate.

use rqp_common::{GridIdx, MultiGrid};

/// A rectangular sub-grid of the ESS: each dimension either free or pinned.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EssView {
    /// `pins[j] = Some(c)` fixes dimension `j` at coordinate `c`.
    pins: Vec<Option<usize>>,
}

impl EssView {
    /// The full (nothing pinned) view of a `d`-dimensional surface.
    pub fn full(d: usize) -> Self {
        Self {
            pins: vec![None; d],
        }
    }

    /// Builds a view from an explicit pin vector.
    pub fn from_pins(pins: Vec<Option<usize>>) -> Self {
        Self { pins }
    }

    /// Returns a copy with dimension `dim` pinned at coordinate `coord`.
    pub fn pin(&self, dim: usize, coord: usize) -> Self {
        let mut pins = self.pins.clone();
        pins[dim] = Some(coord);
        Self { pins }
    }

    /// The pin vector.
    pub fn pins(&self) -> &[Option<usize>] {
        &self.pins
    }

    /// Free (unlearnt) dimensions, ascending.
    pub fn free_dims(&self) -> Vec<usize> {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(j, _)| j)
            .collect()
    }

    /// Bitmask with one bit per free dimension (the `unlearnt` mask used by
    /// spill-node identification).
    pub fn free_mask(&self) -> u32 {
        self.pins
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .fold(0, |m, (j, _)| m | (1 << j))
    }

    /// True if `idx` lies inside the view.
    pub fn contains(&self, grid: &MultiGrid, idx: GridIdx) -> bool {
        self.pins.iter().enumerate().all(|(j, p)| match p {
            Some(c) => grid.coord(idx, j) == *c,
            None => true,
        })
    }

    /// All grid locations inside the view, ascending by flat index.
    pub fn locations(&self, grid: &MultiGrid) -> Vec<GridIdx> {
        let free = self.free_dims();
        // Iterate the free sub-grid in mixed-radix order.
        let sizes: Vec<usize> = free.iter().map(|&j| grid.dim(j).len()).collect();
        let total: usize = sizes.iter().product();
        let mut base_coords: Vec<usize> = self.pins.iter().map(|p| p.unwrap_or(0)).collect();
        let mut out = Vec::with_capacity(total);
        for mut k in 0..total {
            for (f, &j) in free.iter().enumerate() {
                base_coords[j] = k % sizes[f];
                k /= sizes[f];
            }
            out.push(grid.flat(&base_coords));
        }
        out.sort_unstable();
        out
    }

    /// The view's terminus: every free dimension at its maximum, pinned
    /// dimensions at their pins.
    pub fn terminus(&self, grid: &MultiGrid) -> GridIdx {
        let coords: Vec<usize> = self
            .pins
            .iter()
            .enumerate()
            .map(|(j, p)| p.unwrap_or(grid.dim(j).len() - 1))
            .collect();
        grid.flat(&coords)
    }

    /// The diagonal successor of `idx` *within the view* (pinned dimensions
    /// stay fixed, all free dimensions advance); `None` at the boundary.
    pub fn diag_succ(&self, grid: &MultiGrid, idx: GridIdx) -> Option<GridIdx> {
        let mut coords = grid.coords(idx);
        for (j, p) in self.pins.iter().enumerate() {
            if p.is_none() {
                if coords[j] + 1 >= grid.dim(j).len() {
                    return None;
                }
                coords[j] += 1;
            }
        }
        Some(grid.flat(&coords))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> MultiGrid {
        MultiGrid::uniform(2, 1e-5, 8)
    }

    #[test]
    fn full_view_covers_everything() {
        let g = grid();
        let v = EssView::full(2);
        assert_eq!(v.locations(&g).len(), 64);
        assert_eq!(v.free_dims().len(), 2);
        assert_eq!(v.free_mask(), 0b11);
        assert_eq!(v.terminus(&g), g.terminus());
    }

    #[test]
    fn pinned_view_is_a_slice() {
        let g = grid();
        let v = EssView::full(2).pin(0, 3);
        let locs = v.locations(&g);
        assert_eq!(locs.len(), 8);
        for &l in &locs {
            assert_eq!(g.coord(l, 0), 3);
            assert!(v.contains(&g, l));
        }
        assert_eq!(v.free_dims(), vec![1]);
        assert_eq!(v.free_mask(), 0b10);
        // terminus: dim0 pinned at 3, dim1 at max
        assert_eq!(g.coord(v.terminus(&g), 0), 3);
        assert_eq!(g.coord(v.terminus(&g), 1), 7);
    }

    #[test]
    fn diag_succ_moves_only_free_dims() {
        let g = grid();
        let v = EssView::full(2).pin(0, 3);
        let start = g.flat(&[3, 2]);
        let nxt = v.diag_succ(&g, start).unwrap();
        assert_eq!(g.coords(nxt), vec![3, 3]);
        let top = g.flat(&[3, 7]);
        assert_eq!(v.diag_succ(&g, top), None);
    }
}
