//! Spatial interference sharding: a uniform grid over node positions.
//!
//! The time-stepped simulator pairs every transmission with every
//! receiver — O(tx·rx) work that is fine at testbed scale (23×4) and
//! hopeless at 10 000 nodes. A [`SpatialIndex`] buckets nodes into a
//! uniform grid whose cell edge is at least the interference radius
//! (see [`ppr_channel::pathloss::PathLossModel::interference_radius_m`]),
//! so any node within that radius of a query point is guaranteed to sit
//! in the 3 × 3 cell neighborhood around it. Event dispatch then
//! enumerates only those candidates instead of the whole mesh; the cell
//! count is reported as the run's shard count.
//!
//! Candidate enumeration is deliberately a **superset** of the truly
//! audible set: the caller filters by exact link gain. The containment
//! is exact only when the propagation model has no shadowing
//! (`shadow_sigma_db == 0`) — a shadowing boost could otherwise carry a
//! link past the mean-power radius (`tests/event_parity.rs` pins the
//! superset property by proptest).
//!
//! Determinism: cells are plain `Vec`s scanned in row-major order with
//! node ids ascending inside each cell — no hashed containers, so the
//! candidate order is a pure function of the geometry.

use crate::geometry::Point;

/// A uniform spatial grid over a set of node positions.
#[derive(Debug, Clone)]
pub struct SpatialIndex {
    /// Cell edge length, meters (≥ the query radius).
    cell_m: f64,
    /// Grid columns.
    cols: usize,
    /// Grid rows.
    rows: usize,
    /// Origin offset so all coordinates map to non-negative cells.
    min_x: f64,
    /// Origin offset, y.
    min_y: f64,
    /// Node ids per cell, row-major (`cell = row * cols + col`),
    /// ascending within each cell.
    cells: Vec<Vec<u32>>,
}

impl SpatialIndex {
    /// Builds the index with cells of edge `cell_m` (the caller passes
    /// the interference radius, or anything at least as large as the
    /// radii it will query).
    pub fn build(points: &[Point], cell_m: f64) -> Self {
        assert!(cell_m > 0.0 && cell_m.is_finite(), "bad cell size {cell_m}");
        let (mut min_x, mut min_y) = (f64::INFINITY, f64::INFINITY);
        let (mut max_x, mut max_y) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        for p in points {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        if points.is_empty() {
            (min_x, min_y, max_x, max_y) = (0.0, 0.0, 0.0, 0.0);
        }
        let cols = (((max_x - min_x) / cell_m).floor() as usize + 1).max(1);
        let rows = (((max_y - min_y) / cell_m).floor() as usize + 1).max(1);
        let mut index = SpatialIndex {
            cell_m,
            cols,
            rows,
            min_x,
            min_y,
            cells: vec![Vec::new(); cols * rows],
        };
        for (id, p) in points.iter().enumerate() {
            let c = index.cell_of(p);
            index.cells[c].push(id as u32);
        }
        index
    }

    /// The row-major cell index of a point (clamped to the grid).
    pub fn cell_of(&self, p: &Point) -> usize {
        let col = (((p.x - self.min_x) / self.cell_m).floor() as isize)
            .clamp(0, self.cols as isize - 1) as usize;
        let row = (((p.y - self.min_y) / self.cell_m).floor() as isize)
            .clamp(0, self.rows as isize - 1) as usize;
        row * self.cols + col
    }

    /// Grid dimensions `(cols, rows)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    /// Total cells (the shard count the mesh report prints).
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// Appends every candidate node id in the 3 × 3 cell neighborhood of
    /// `p` to `out` — a superset of all nodes within `cell_m` of `p`
    /// (cells scanned row-major, ids ascending within a cell). The
    /// caller filters by exact link gain; this only prunes the
    /// geometrically impossible.
    pub fn candidates_into(&self, p: &Point, out: &mut Vec<u32>) {
        let col =
            (((p.x - self.min_x) / self.cell_m).floor() as isize).clamp(0, self.cols as isize - 1);
        let row =
            (((p.y - self.min_y) / self.cell_m).floor() as isize).clamp(0, self.rows as isize - 1);
        for dr in -1..=1isize {
            let r = row + dr;
            if r < 0 || r >= self.rows as isize {
                continue;
            }
            for dc in -1..=1isize {
                let c = col + dc;
                if c < 0 || c >= self.cols as isize {
                    continue;
                }
                out.extend_from_slice(&self.cells[r as usize * self.cols + c as usize]);
            }
        }
    }

    /// Convenience allocating form of [`Self::candidates_into`].
    pub fn candidates(&self, p: &Point) -> Vec<u32> {
        let mut out = Vec::new();
        self.candidates_into(p, &mut out);
        out
    }

    /// Mean nodes per non-empty cell — the candidate load one dispatch
    /// query sees.
    pub fn mean_occupancy(&self) -> f64 {
        let non_empty = self.cells.iter().filter(|c| !c.is_empty()).count();
        if non_empty == 0 {
            return 0.0;
        }
        let total: usize = self.cells.iter().map(|c| c.len()).sum();
        total as f64 / non_empty as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize, pitch: f64) -> Vec<Point> {
        (0..n * n)
            .map(|i| Point::new((i % n) as f64 * pitch, (i / n) as f64 * pitch))
            .collect()
    }

    #[test]
    fn candidates_cover_everything_within_cell_radius() {
        let pts = grid_points(12, 3.7);
        let radius = 9.0;
        let idx = SpatialIndex::build(&pts, radius);
        for (i, p) in pts.iter().enumerate() {
            let cands = idx.candidates(p);
            for (j, q) in pts.iter().enumerate() {
                if p.distance(q) <= radius {
                    assert!(
                        cands.contains(&(j as u32)),
                        "node {j} within {radius} m of {i} but not a candidate"
                    );
                }
            }
        }
    }

    #[test]
    fn candidates_prune_far_nodes() {
        // On a large sparse grid, most of the mesh must NOT be in any
        // single query's candidate set — that's the whole point.
        let pts = grid_points(30, 5.0);
        let idx = SpatialIndex::build(&pts, 10.0);
        let cands = idx.candidates(&pts[0]);
        assert!(
            cands.len() < pts.len() / 4,
            "{} of {} candidates — no pruning",
            cands.len(),
            pts.len()
        );
    }

    #[test]
    fn candidate_order_is_deterministic_and_sorted_per_cell() {
        let pts = grid_points(8, 2.0);
        let idx = SpatialIndex::build(&pts, 4.0);
        let a = idx.candidates(&pts[20]);
        let b = idx.candidates(&pts[20]);
        assert_eq!(a, b);
        // Ids ascend within each cell because nodes are inserted in id
        // order; the concatenation is the row-major cell scan.
        assert!(!a.is_empty());
    }

    #[test]
    fn handles_degenerate_inputs() {
        let idx = SpatialIndex::build(&[], 5.0);
        assert!(idx.candidates(&Point::new(1.0, 2.0)).is_empty());
        let one = [Point::new(3.0, 4.0)];
        let idx = SpatialIndex::build(&one, 5.0);
        assert_eq!(idx.candidates(&one[0]), vec![0]);
        assert_eq!(idx.shard_count(), 1);
        assert!(idx.mean_occupancy() > 0.0);
    }

    #[test]
    fn shard_count_tracks_area_over_radius() {
        let pts = grid_points(20, 4.0); // 76 m × 76 m
        let idx = SpatialIndex::build(&pts, 19.1);
        let (cols, rows) = idx.dims();
        assert_eq!((cols, rows), (4, 4));
        assert_eq!(idx.shard_count(), 16);
    }
}
