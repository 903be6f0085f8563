//! Discretized selectivity grids.
//!
//! Each ESS dimension is discretized into a log-scale [`SelGrid`]; the full
//! `D`-dimensional grid is addressed through [`MultiGrid`], which maps
//! between flat indices and per-dimension coordinates (mixed-radix
//! encoding). The paper works on "an appropriately discretized grid version
//! of `[0,1]^D`" (§2.1); log spacing matches the axes of its Fig. 7.

use crate::sel::{clamp, geo_lerp, Selectivity};
use serde::{Deserialize, Serialize, Value};

/// Flat index of a location in a [`MultiGrid`].
pub type GridIdx = usize;

/// A log-scale grid over one selectivity dimension.
///
/// Points are strictly increasing, with `points[0] = min_sel` and
/// `points[n-1] = 1.0`. A decoded grid is checked: at least two finite,
/// strictly increasing points in `(0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SelGrid {
    points: Vec<Selectivity>,
}

impl SelGrid {
    /// Builds a log-spaced grid of `n` points from `min_sel` to `1.0`.
    ///
    /// # Panics
    /// Panics if `n < 2` or `min_sel` is outside `(0, 1)`.
    pub fn log_scale(min_sel: Selectivity, n: usize) -> Self {
        assert!(n >= 2, "grid needs at least 2 points, got {n}");
        assert!(
            min_sel > 0.0 && min_sel < 1.0,
            "min_sel must be in (0,1), got {min_sel}"
        );
        let points = (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                clamp(geo_lerp(min_sel, 1.0, t))
            })
            .collect();
        Self { points }
    }

    /// A grid over `points`, if there are at least two and they are
    /// strictly increasing in `(0, 1]` (which also rules out NaN and ∞).
    fn checked(points: Vec<Selectivity>) -> Result<Self, String> {
        if points.len() < 2 {
            return Err(format!(
                "a grid needs at least 2 points, got {}",
                points.len()
            ));
        }
        if !points.iter().all(|&p| p > 0.0 && p <= 1.0) {
            return Err(format!("grid points must lie in (0, 1], got {points:?}"));
        }
        if !points.windows(2).all(|w| w[0] < w[1]) {
            return Err(format!(
                "grid points must strictly increase, got {points:?}"
            ));
        }
        Ok(Self { points })
    }

    /// Number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Always false: grids have at least two points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Selectivity value at grid coordinate `i`.
    #[inline]
    pub fn sel(&self, i: usize) -> Selectivity {
        self.points[i]
    }

    /// All grid points, ascending.
    #[inline]
    pub fn points(&self) -> &[Selectivity] {
        &self.points
    }

    /// Largest coordinate whose selectivity is `<= s`, or `None` if even the
    /// smallest grid point exceeds `s`.
    pub fn floor_idx(&self, s: Selectivity) -> Option<usize> {
        if s < self.points[0] {
            return None;
        }
        match self
            .points
            .binary_search_by(|p| p.partial_cmp(&s).expect("no NaN in grid"))
        {
            Ok(i) => Some(i),
            Err(i) => Some(i - 1),
        }
    }

    /// Smallest coordinate whose selectivity is `>= s` (clamps to the top).
    pub fn ceil_idx(&self, s: Selectivity) -> usize {
        match self
            .points
            .binary_search_by(|p| p.partial_cmp(&s).expect("no NaN in grid"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.points.len() - 1),
        }
    }

    /// Coordinate of the grid point nearest to `s` in log-space.
    pub fn nearest_idx(&self, s: Selectivity) -> usize {
        let s = clamp(s);
        let hi = self.ceil_idx(s);
        match self.floor_idx(s) {
            None => 0,
            Some(lo) => {
                if (self.points[hi].ln() - s.ln()).abs() < (s.ln() - self.points[lo].ln()).abs() {
                    hi
                } else {
                    lo
                }
            }
        }
    }
}

/// Mixed-radix addressing of the `D`-dimensional ESS grid.
///
/// Dimension 0 is the fastest-varying (innermost) coordinate. A decoded
/// grid is checked: its dimensions as [`SelGrid`]s are, and its persisted
/// strides and size must be the ones its dimensions derive.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MultiGrid {
    dims: Vec<SelGrid>,
    /// Stride of each dimension in the flat index.
    strides: Vec<usize>,
    total: usize,
}

impl MultiGrid {
    /// Builds a multi-grid from per-dimension grids.
    ///
    /// # Panics
    /// Panics if `dims` is empty or the grid has more than `usize::MAX`
    /// locations.
    pub fn new(dims: Vec<SelGrid>) -> Self {
        Self::checked(dims).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`new`](Self::new), with an error instead of a panic.
    fn checked(dims: Vec<SelGrid>) -> Result<Self, String> {
        if dims.is_empty() {
            return Err("a grid needs at least one dimension".into());
        }
        let mut strides = Vec::with_capacity(dims.len());
        let mut acc = 1usize;
        for g in &dims {
            strides.push(acc);
            acc = (acc.checked_mul(g.len())).ok_or("grid too large")?;
        }
        Ok(Self {
            dims,
            strides,
            total: acc,
        })
    }

    /// Builds a uniform multi-grid: `d` dimensions, each log-scale with `n`
    /// points from `min_sel` to 1.
    pub fn uniform(d: usize, min_sel: Selectivity, n: usize) -> Self {
        Self::new((0..d).map(|_| SelGrid::log_scale(min_sel, n)).collect())
    }

    /// Number of dimensions `D`.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension grid.
    #[inline]
    pub fn dim(&self, j: usize) -> &SelGrid {
        &self.dims[j]
    }

    /// Total number of grid locations.
    #[inline]
    pub fn len(&self) -> usize {
        self.total
    }

    /// False by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Flat index of per-dimension coordinates.
    #[inline]
    pub fn flat(&self, coords: &[usize]) -> GridIdx {
        debug_assert_eq!(coords.len(), self.dims.len());
        let mut idx = 0;
        for (j, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.dims[j].len());
            idx += c * self.strides[j];
        }
        idx
    }

    /// Per-dimension coordinates of a flat index.
    #[inline]
    pub fn coords(&self, idx: GridIdx) -> Vec<usize> {
        let mut out = vec![0; self.dims.len()];
        self.coords_into(idx, &mut out);
        out
    }

    /// Like [`coords`](Self::coords) but writes into a caller buffer
    /// (hot-path friendly).
    #[inline]
    pub fn coords_into(&self, idx: GridIdx, out: &mut [usize]) {
        debug_assert!(idx < self.total);
        debug_assert_eq!(out.len(), self.dims.len());
        let mut rem = idx;
        for (slot, dim) in out.iter_mut().zip(&self.dims) {
            *slot = rem % dim.len();
            rem /= dim.len();
        }
    }

    /// Coordinate of `idx` along dimension `j` without materializing the
    /// full coordinate vector.
    #[inline]
    pub fn coord(&self, idx: GridIdx, j: usize) -> usize {
        (idx / self.strides[j]) % self.dims[j].len()
    }

    /// Selectivity vector of a flat index.
    pub fn sels(&self, idx: GridIdx) -> Vec<Selectivity> {
        let coords = self.coords(idx);
        coords
            .iter()
            .enumerate()
            .map(|(j, &c)| self.dims[j].sel(c))
            .collect()
    }

    /// Selectivity of `idx` along dimension `j`.
    #[inline]
    pub fn sel_at(&self, idx: GridIdx, j: usize) -> Selectivity {
        self.dims[j].sel(self.coord(idx, j))
    }

    /// Flat index of the origin (all-minimum) location.
    #[inline]
    pub fn origin(&self) -> GridIdx {
        0
    }

    /// Flat index of the terminus (all-one) location.
    #[inline]
    pub fn terminus(&self) -> GridIdx {
        self.total - 1
    }

    /// True if location `a` dominates `b` (`a.j >= b.j` for all dims, with
    /// at least one strict) — the `≻` relation of §2.1 when strict, here the
    /// non-strict `⪰` with equality allowed.
    pub fn dominates_eq(&self, a: GridIdx, b: GridIdx) -> bool {
        (0..self.ndims()).all(|j| self.coord(a, j) >= self.coord(b, j))
    }

    /// Iterator over all flat indices.
    pub fn iter(&self) -> impl Iterator<Item = GridIdx> {
        0..self.total
    }

    /// Flat index of the diagonal successor (every coordinate + 1), or
    /// `None` if any coordinate is already at its maximum.
    pub fn diag_succ(&self, idx: GridIdx) -> Option<GridIdx> {
        let mut out = idx;
        for j in 0..self.ndims() {
            let c = self.coord(idx, j);
            if c + 1 >= self.dims[j].len() {
                return None;
            }
            out += self.strides[j];
        }
        Some(out)
    }

    /// Flat index with dimension `j` incremented, or `None` at the boundary.
    pub fn succ_along(&self, idx: GridIdx, j: usize) -> Option<GridIdx> {
        let c = self.coord(idx, j);
        if c + 1 >= self.dims[j].len() {
            None
        } else {
            Some(idx + self.strides[j])
        }
    }

    /// Flat index of `idx` with dimension `j`'s coordinate replaced by
    /// `coord` — the axis-fiber walk primitive used by lazy contour
    /// discovery.
    #[inline]
    pub fn with_coord(&self, idx: GridIdx, j: usize, coord: usize) -> GridIdx {
        debug_assert!(coord < self.dims[j].len());
        idx - self.coord(idx, j) * self.strides[j] + coord * self.strides[j]
    }
}

impl Deserialize for SelGrid {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected a grid object"))?;
        Self::checked(serde::field(obj, "points")?).map_err(serde::Error::msg)
    }
}

impl Deserialize for MultiGrid {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let obj = v
            .as_object()
            .ok_or_else(|| serde::Error::msg("expected a grid object"))?;
        let grid = Self::checked(serde::field(obj, "dims")?).map_err(serde::Error::msg)?;
        let strides: Vec<usize> = serde::field(obj, "strides")?;
        let total: usize = serde::field(obj, "total")?;
        if strides != grid.strides || total != grid.total {
            return Err(serde::Error::msg(format!(
                "grid strides {strides:?} and total {total} disagree with its dims \
                 ({:?}, {})",
                grid.strides, grid.total
            )));
        }
        Ok(grid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_grid_endpoints() {
        let g = SelGrid::log_scale(1e-4, 5);
        assert_eq!(g.len(), 5);
        assert!((g.sel(0) - 1e-4).abs() < 1e-12);
        assert!((g.sel(4) - 1.0).abs() < 1e-12);
        // log-spaced: each step multiplies by 10
        assert!((g.sel(1) - 1e-3).abs() < 1e-10);
        assert!((g.sel(2) - 1e-2).abs() < 1e-9);
    }

    #[test]
    fn floor_ceil_nearest() {
        let g = SelGrid::log_scale(1e-4, 5); // ~1e-4,1e-3,1e-2,1e-1,1
        assert_eq!(g.floor_idx(5e-3), Some(1));
        // exact grid values (same f64 as produced by the grid) round-trip
        assert_eq!(g.floor_idx(g.sel(1)), Some(1));
        assert_eq!(g.floor_idx(1e-5), None);
        assert_eq!(g.ceil_idx(5e-3), 2);
        assert_eq!(g.ceil_idx(g.sel(2)), 2);
        assert_eq!(g.ceil_idx(2.0), 4);
        assert_eq!(g.nearest_idx(9e-3), 2);
        assert_eq!(g.nearest_idx(2e-4), 0);
    }

    #[test]
    fn multigrid_roundtrip() {
        let mg = MultiGrid::new(vec![
            SelGrid::log_scale(1e-4, 4),
            SelGrid::log_scale(1e-3, 3),
            SelGrid::log_scale(1e-2, 5),
        ]);
        assert_eq!(mg.len(), 4 * 3 * 5);
        for idx in mg.iter() {
            let c = mg.coords(idx);
            assert_eq!(mg.flat(&c), idx);
            for (j, &cj) in c.iter().enumerate() {
                assert_eq!(mg.coord(idx, j), cj);
            }
        }
    }

    #[test]
    fn diag_succ_walks_diagonal() {
        let mg = MultiGrid::uniform(2, 1e-2, 3);
        let origin = mg.origin();
        let d1 = mg.diag_succ(origin).unwrap();
        assert_eq!(mg.coords(d1), vec![1, 1]);
        let d2 = mg.diag_succ(d1).unwrap();
        assert_eq!(d2, mg.terminus());
        assert_eq!(mg.diag_succ(d2), None);
    }

    #[test]
    fn with_coord_replaces_one_dimension() {
        let mg = MultiGrid::new(vec![
            SelGrid::log_scale(1e-4, 4),
            SelGrid::log_scale(1e-3, 3),
            SelGrid::log_scale(1e-2, 5),
        ]);
        for idx in mg.iter() {
            for j in 0..mg.ndims() {
                for c in 0..mg.dim(j).len() {
                    let moved = mg.with_coord(idx, j, c);
                    assert_eq!(mg.coord(moved, j), c);
                    for k in 0..mg.ndims() {
                        if k != j {
                            assert_eq!(mg.coord(moved, k), mg.coord(idx, k));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn succ_along_boundary() {
        let mg = MultiGrid::uniform(2, 1e-2, 3);
        let top_x = mg.flat(&[2, 0]);
        assert_eq!(mg.succ_along(top_x, 0), None);
        assert_eq!(mg.succ_along(top_x, 1), Some(mg.flat(&[2, 1])));
    }

    #[test]
    fn dominance() {
        let mg = MultiGrid::uniform(2, 1e-2, 3);
        let a = mg.flat(&[2, 1]);
        let b = mg.flat(&[1, 1]);
        assert!(mg.dominates_eq(a, b));
        assert!(!mg.dominates_eq(b, a));
        assert!(mg.dominates_eq(a, a));
        // incomparable pair
        let c = mg.flat(&[0, 2]);
        assert!(!mg.dominates_eq(a, c));
        assert!(!mg.dominates_eq(c, a));
    }
}
