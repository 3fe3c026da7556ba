//! Path smoothening: greedy shortcutting of planner output.

use crate::planning::space::{ObstacleModel, PlannedPath};

/// Greedy line-of-sight path smoother.
///
/// Starting from the first way-point it repeatedly jumps to the furthest
/// way-point reachable by a free straight segment, discarding the
/// intermediate ones.  This is the "Path Smoothen" kernel that follows the
/// motion planner in the paper's pipeline.
///
/// # Examples
///
/// ```
/// use mavfi_ppc::perception::OccupancyGrid;
/// use mavfi_ppc::planning::{PathSmoother, PlannedPath};
/// use mavfi_sim::geometry::Vec3;
///
/// let smoother = PathSmoother::new(0.5);
/// let zigzag = PlannedPath::new(vec![
///     Vec3::ZERO,
///     Vec3::new(1.0, 1.0, 0.0),
///     Vec3::new(2.0, 0.0, 0.0),
/// ]);
/// let mut smooth = PlannedPath::default();
/// smoother.run_into(&OccupancyGrid::new(0.5), &zigzag, &mut smooth);
/// assert_eq!(smooth.len(), 2); // obstacle-free: straight shortcut
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathSmoother {
    margin: f64,
}

impl PathSmoother {
    /// Creates a smoother using the given obstacle inflation margin (m).
    pub fn new(margin: f64) -> Self {
        Self { margin }
    }

    /// The inflation margin (m).
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Smooths `path` into `out`, reusing its way-point storage
    /// (allocation-free once at capacity).  Paths with fewer than three
    /// way-points are copied unchanged.
    pub fn run_into(&self, model: &dyn ObstacleModel, path: &PlannedPath, out: &mut PlannedPath) {
        out.waypoints.clear();
        if path.len() < 3 {
            out.waypoints.extend_from_slice(&path.waypoints);
            return;
        }
        let points = &path.waypoints;
        out.waypoints.push(points[0]);
        let mut current = 0;
        while current + 1 < points.len() {
            // Furthest way-point visible from `current`.
            let mut next = current + 1;
            for candidate in ((current + 1)..points.len()).rev() {
                if model.segment_free(points[current], points[candidate], self.margin) {
                    next = candidate;
                    break;
                }
            }
            out.waypoints.push(points[next]);
            current = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perception::occupancy::OccupancyGrid;
    use mavfi_sim::geometry::Vec3;

    fn smoothed(model: &dyn ObstacleModel, path: &PlannedPath) -> PlannedPath {
        let mut out = PlannedPath::default();
        PathSmoother::new(0.4).run_into(model, path, &mut out);
        out
    }

    #[test]
    fn smoothing_never_lengthens_the_path() {
        let grid = OccupancyGrid::new(0.5);
        let path = PlannedPath::new(vec![
            Vec3::ZERO,
            Vec3::new(1.0, 3.0, 0.0),
            Vec3::new(2.0, -3.0, 0.0),
            Vec3::new(5.0, 0.0, 0.0),
        ]);
        let smooth = smoothed(&grid, &path);
        assert!(smooth.length() <= path.length() + 1e-9);
        assert_eq!(smooth.waypoints[0], path.waypoints[0]);
        assert_eq!(smooth.waypoints.last(), path.waypoints.last());
    }

    #[test]
    fn smoothing_keeps_detour_around_obstacle() {
        let mut grid = OccupancyGrid::new(0.5);
        // Wall at x = 5 blocking the straight line.
        for y in -10..=10 {
            for z in 0..=8 {
                grid.insert_point(Vec3::new(5.0, y as f64 * 0.5, z as f64 * 0.5));
            }
        }
        let detour = PlannedPath::new(vec![
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(5.0, 8.0, 1.0),
            Vec3::new(10.0, 0.0, 1.0),
        ]);
        let smooth = smoothed(&grid, &detour);
        // The direct shortcut is blocked, so the detour way-point survives.
        assert_eq!(smooth.len(), 3);
        assert!(smooth.is_collision_free(&grid, 0.3));
    }

    #[test]
    fn short_paths_are_untouched() {
        let grid = OccupancyGrid::new(0.5);
        let short = PlannedPath::new(vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)]);
        assert_eq!(smoothed(&grid, &short), short);
    }
}
