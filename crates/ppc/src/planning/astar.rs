//! Grid-based A* motion planning.
//!
//! The paper evaluates three sampling-based planners (RRT, RRT-Connect,
//! RRT*).  A deterministic lattice A* makes a useful fourth point in the
//! planner-sensitivity studies: it has no internal randomness, so any spread
//! in its quality-of-flight metrics under fault injection is attributable to
//! the fault alone.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;

use mavfi_sim::geometry::Vec3;

use crate::kernel::KernelId;
use crate::perception::occupancy::VoxelHasher;
use crate::planning::space::{MotionPlanner, ObstacleModel, PlannedPath, PlannerConfig};

/// Integer lattice coordinates of an A* node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Cell {
    x: i64,
    y: i64,
    z: i64,
}

/// Priority-queue entry ordered by ascending f-cost.
#[derive(Debug, Clone, Copy, PartialEq)]
struct QueueEntry {
    f_cost: f64,
    cell: Cell,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest f-cost pops first.
        other.f_cost.partial_cmp(&self.f_cost).unwrap_or(Ordering::Equal).then_with(|| {
            (self.cell.x, self.cell.y, self.cell.z).cmp(&(other.cell.x, other.cell.y, other.cell.z))
        })
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic lattice A* planner.
///
/// The lattice spacing is the planner's `step_size`, search is bounded by
/// the configured sampling bounds, and expansion stops after
/// `max_iterations` node pops.
///
/// The open list, bookkeeping maps and the reconstruction cell buffer are
/// pooled on the planner and reused across replans, so repeated planning
/// does not re-grow them from empty; with
/// [`plan_into`](MotionPlanner::plan_into) a replan touches no allocator at
/// all once every buffer is at capacity.
///
/// # Examples
///
/// ```
/// use mavfi_ppc::planning::astar::AStarPlanner;
/// use mavfi_ppc::planning::{MotionPlanner, PlannedPath, PlannerConfig};
/// use mavfi_ppc::perception::OccupancyGrid;
/// use mavfi_sim::geometry::{Aabb, Vec3};
///
/// let bounds = Aabb::new(Vec3::new(-5.0, -5.0, 0.0), Vec3::new(25.0, 25.0, 10.0));
/// let mut planner = AStarPlanner::new(PlannerConfig::for_bounds(bounds));
/// let grid = OccupancyGrid::new(0.5);
/// let mut path = PlannedPath::default();
/// let (start, goal) = (Vec3::new(0.0, 0.0, 2.0), Vec3::new(20.0, 20.0, 2.0));
/// assert!(planner.plan_into(&grid, start, goal, &mut path), "free space is trivially plannable");
/// assert!(path.length() >= 20.0);
/// ```
#[derive(Debug)]
pub struct AStarPlanner {
    config: PlannerConfig,
    // Search state pooled across `plan_into` calls.  The maps are lookup-only
    // (iteration order never observed), so they share the occupancy grid's
    // cheap deterministic hasher instead of SipHash — the keys have the
    // same three-i64 shape.
    open: BinaryHeap<QueueEntry>,
    g_cost: HashMap<Cell, f64, BuildHasherDefault<VoxelHasher>>,
    came_from: HashMap<Cell, Cell, BuildHasherDefault<VoxelHasher>>,
    cells: Vec<Cell>,
}

/// A clone gets fresh pooled search state: the search state never outlives
/// a `plan_into` call, so the clone plans exactly as the original would.
impl Clone for AStarPlanner {
    fn clone(&self) -> Self {
        Self::new(self.config)
    }

    fn clone_from(&mut self, source: &Self) {
        self.config = source.config;
    }
}

impl AStarPlanner {
    /// Creates an A* planner with the given configuration.
    pub fn new(config: PlannerConfig) -> Self {
        Self {
            config,
            open: BinaryHeap::new(),
            g_cost: HashMap::default(),
            came_from: HashMap::default(),
            cells: Vec::new(),
        }
    }

    /// The planner configuration.
    pub fn config(&self) -> PlannerConfig {
        self.config
    }

    fn spacing(&self) -> f64 {
        self.config.step_size.max(1e-3)
    }

    fn cell_of(&self, point: Vec3, origin: Vec3) -> Cell {
        let spacing = self.spacing();
        Cell {
            x: ((point.x - origin.x) / spacing).round() as i64,
            y: ((point.y - origin.y) / spacing).round() as i64,
            z: ((point.z - origin.z) / spacing).round() as i64,
        }
    }

    fn point_of(&self, cell: Cell, origin: Vec3) -> Vec3 {
        let spacing = self.spacing();
        Vec3::new(
            origin.x + cell.x as f64 * spacing,
            origin.y + cell.y as f64 * spacing,
            origin.z + cell.z as f64 * spacing,
        )
    }

    fn in_bounds(&self, point: Vec3) -> bool {
        let bounds = self.config.bounds;
        point.x >= bounds.min.x
            && point.x <= bounds.max.x
            && point.y >= bounds.min.y
            && point.y <= bounds.max.y
            && point.z >= bounds.min.z
            && point.z <= bounds.max.z
    }

    /// The 26-connected neighbourhood offsets, in the same (dx, dy, dz)
    /// lexicographic order the previous generated list used — expansion
    /// order is part of the deterministic search result.
    const NEIGHBOUR_OFFSETS: [(i64, i64, i64); 26] = [
        (-1, -1, -1),
        (-1, -1, 0),
        (-1, -1, 1),
        (-1, 0, -1),
        (-1, 0, 0),
        (-1, 0, 1),
        (-1, 1, -1),
        (-1, 1, 0),
        (-1, 1, 1),
        (0, -1, -1),
        (0, -1, 0),
        (0, -1, 1),
        (0, 0, -1),
        (0, 0, 1),
        (0, 1, -1),
        (0, 1, 0),
        (0, 1, 1),
        (1, -1, -1),
        (1, -1, 0),
        (1, -1, 1),
        (1, 0, -1),
        (1, 0, 0),
        (1, 0, 1),
        (1, 1, -1),
        (1, 1, 0),
        (1, 1, 1),
    ];

    fn reconstruct_into(
        &mut self,
        mut cell: Cell,
        origin: Vec3,
        start: Vec3,
        goal: Vec3,
        out: &mut PlannedPath,
    ) {
        self.cells.clear();
        self.cells.push(cell);
        while let Some(&parent) = self.came_from.get(&cell) {
            cell = parent;
            self.cells.push(cell);
        }
        self.cells.reverse();
        out.waypoints.clear();
        out.waypoints.extend(self.cells.iter().map(|&c| self.point_of(c, origin)));
        if let Some(first) = out.waypoints.first_mut() {
            *first = start;
        }
        out.waypoints.push(goal);
    }
}

impl MotionPlanner for AStarPlanner {
    fn kernel(&self) -> KernelId {
        KernelId::AStar
    }

    fn plan_into(
        &mut self,
        model: &dyn ObstacleModel,
        start: Vec3,
        goal: Vec3,
        out: &mut PlannedPath,
    ) -> bool {
        out.waypoints.clear();
        let margin = self.config.margin;
        if model.segment_free(start, goal, margin) {
            out.waypoints.push(start);
            out.waypoints.push(goal);
            return true;
        }

        let origin = start;
        let start_cell = self.cell_of(start, origin);
        let goal_tolerance = self.config.goal_tolerance.max(self.spacing());

        self.open.clear();
        self.g_cost.clear();
        self.came_from.clear();

        self.g_cost.insert(start_cell, 0.0);
        self.open.push(QueueEntry { f_cost: start.distance(goal), cell: start_cell });

        let mut expansions = 0;
        while let Some(QueueEntry { cell, .. }) = self.open.pop() {
            expansions += 1;
            if expansions > self.config.max_iterations {
                return false;
            }
            let point = self.point_of(cell, origin);
            if point.distance(goal) <= goal_tolerance && model.segment_free(point, goal, margin) {
                self.reconstruct_into(cell, origin, start, goal, out);
                return true;
            }

            let current_g = self.g_cost[&cell];
            for &(dx, dy, dz) in &Self::NEIGHBOUR_OFFSETS {
                let neighbour = Cell { x: cell.x + dx, y: cell.y + dy, z: cell.z + dz };
                let neighbour_point = self.point_of(neighbour, origin);
                if !self.in_bounds(neighbour_point) {
                    continue;
                }
                if !model.segment_free(point, neighbour_point, margin) {
                    continue;
                }
                let tentative_g = current_g + point.distance(neighbour_point);
                if tentative_g < *self.g_cost.get(&neighbour).unwrap_or(&f64::INFINITY) {
                    self.g_cost.insert(neighbour, tentative_g);
                    self.came_from.insert(neighbour, cell);
                    self.open.push(QueueEntry {
                        f_cost: tentative_g + neighbour_point.distance(goal),
                        cell: neighbour,
                    });
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perception::occupancy::OccupancyGrid;
    use crate::planning::space::plan;
    use mavfi_sim::env::EnvironmentKind;
    use mavfi_sim::geometry::Aabb;

    fn open_bounds() -> Aabb {
        Aabb::new(Vec3::new(-10.0, -10.0, 0.0), Vec3::new(60.0, 60.0, 12.0))
    }

    #[test]
    fn trivial_straight_line_when_free() {
        let mut planner = AStarPlanner::new(PlannerConfig::for_bounds(open_bounds()));
        let grid = OccupancyGrid::new(0.5);
        let path =
            plan(&mut planner, &grid, Vec3::new(0.0, 0.0, 2.0), Vec3::new(30.0, 0.0, 2.0)).unwrap();
        assert_eq!(path.len(), 2);
        assert!((path.length() - 30.0).abs() < 1e-9);
        assert_eq!(planner.kernel(), KernelId::AStar);
    }

    #[test]
    fn routes_around_a_wall() {
        // A wall of occupied voxels across the straight-line path.
        let mut grid = OccupancyGrid::new(0.5);
        for y in -20..=20 {
            for z in 0..=16 {
                grid.insert_point(Vec3::new(10.0, y as f64 * 0.5, z as f64 * 0.5));
            }
        }
        let mut planner = AStarPlanner::new(PlannerConfig::for_bounds(open_bounds()));
        let start = Vec3::new(0.0, 0.0, 2.0);
        let goal = Vec3::new(20.0, 0.0, 2.0);
        let path = plan(&mut planner, &grid, start, goal).expect("a detour exists");
        assert!(path.length() > start.distance(goal));
        assert!(path.is_collision_free(&grid, 0.4));
        assert_eq!(path.waypoints[0], start);
        assert_eq!(*path.waypoints.last().unwrap(), goal);
    }

    #[test]
    fn plans_in_a_generated_environment_against_ground_truth() {
        let env = EnvironmentKind::Sparse.build(7);
        let config = PlannerConfig::for_bounds(env.bounds());
        let mut planner = AStarPlanner::new(config);
        let path = plan(&mut planner, &env, env.start(), env.goal());
        let path = path.expect("sparse environments are plannable");
        assert!(path.is_collision_free(&env, config.margin * 0.9));
    }

    #[test]
    fn unreachable_goal_returns_none() {
        // Completely box in the start position.
        let mut grid = OccupancyGrid::new(0.5);
        for dx in -8i64..=8 {
            for dy in -8i64..=8 {
                for dz in -4i64..=8 {
                    let p = Vec3::new(dx as f64 * 0.5, dy as f64 * 0.5, 2.0 + dz as f64 * 0.5);
                    if dx.abs().max(dy.abs()) >= 6 || dz <= -3 || dz >= 7 {
                        grid.insert_point(p);
                    }
                }
            }
        }
        let config =
            PlannerConfig { max_iterations: 2000, ..PlannerConfig::for_bounds(open_bounds()) };
        let mut planner = AStarPlanner::new(config);
        let path = plan(&mut planner, &grid, Vec3::new(0.0, 0.0, 2.0), Vec3::new(40.0, 40.0, 2.0));
        assert!(path.is_none());
    }

    #[test]
    fn planning_is_deterministic() {
        let env = EnvironmentKind::Dense.build(3);
        let config = PlannerConfig::for_bounds(env.bounds());
        let a = plan(&mut AStarPlanner::new(config), &env, env.start(), env.goal());
        let b = plan(&mut AStarPlanner::new(config), &env, env.start(), env.goal());
        assert_eq!(a, b);
    }

    #[test]
    fn queue_entry_orders_by_ascending_cost() {
        let a = QueueEntry { f_cost: 1.0, cell: Cell { x: 0, y: 0, z: 0 } };
        let b = QueueEntry { f_cost: 2.0, cell: Cell { x: 1, y: 0, z: 0 } };
        let mut heap = BinaryHeap::new();
        heap.push(b);
        heap.push(a);
        assert_eq!(heap.pop().unwrap().f_cost, 1.0);
    }
}
