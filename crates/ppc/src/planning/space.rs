//! Planning-space abstractions shared by the sampling-based motion
//! planners: the obstacle model they query, their configuration and the
//! geometric path they produce.

use mavfi_sim::env::Environment;
use mavfi_sim::geometry::{Aabb, Vec3};
use serde::{Deserialize, Serialize};

use crate::kernel::KernelId;
use crate::perception::occupancy::OccupancyGrid;
use crate::planning::{Rrt, RrtConnect, RrtStar};

/// Anything the planners can ask "is this point / segment free?".
///
/// During missions the planners query the incrementally built
/// [`OccupancyGrid`]; tests and oracles may plan directly against the ground
/// truth [`Environment`].
pub trait ObstacleModel {
    /// Returns `true` if `point`, inflated by `margin`, is collision free.
    fn point_free(&self, point: Vec3, margin: f64) -> bool;

    /// Returns `true` if the straight segment between `a` and `b`, inflated
    /// by `margin`, is collision free.
    fn segment_free(&self, a: Vec3, b: Vec3, margin: f64) -> bool;
}

impl ObstacleModel for OccupancyGrid {
    fn point_free(&self, point: Vec3, margin: f64) -> bool {
        !self.is_occupied_near(point, margin)
    }

    fn segment_free(&self, a: Vec3, b: Vec3, margin: f64) -> bool {
        OccupancyGrid::segment_free(self, a, b, margin)
    }
}

impl ObstacleModel for Environment {
    fn point_free(&self, point: Vec3, margin: f64) -> bool {
        self.is_free(point, margin)
    }

    fn segment_free(&self, a: Vec3, b: Vec3, margin: f64) -> bool {
        self.segment_clear(a, b, margin)
    }
}

/// Configuration shared by the RRT-family planners.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// Sampling bounds.
    pub bounds: Aabb,
    /// Maximum number of sampling iterations before giving up.
    pub max_iterations: usize,
    /// Extension step size (m).
    pub step_size: f64,
    /// Probability of sampling the goal instead of a random point.
    pub goal_bias: f64,
    /// Distance at which the goal counts as reached (m).
    pub goal_tolerance: f64,
    /// Obstacle inflation margin used for collision queries (m).
    pub margin: f64,
    /// Neighbourhood radius used by RRT* rewiring (m).
    pub rewire_radius: f64,
    /// RNG seed; planning is fully deterministic given the seed.
    pub seed: u64,
}

impl PlannerConfig {
    /// A reasonable configuration for the generated environments.
    pub fn for_bounds(bounds: Aabb) -> Self {
        Self {
            bounds,
            max_iterations: 4000,
            step_size: 2.5,
            goal_bias: 0.15,
            goal_tolerance: 1.5,
            margin: 0.7,
            rewire_radius: 5.0,
            seed: 0,
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A geometric path produced by a motion planner (before smoothing and
/// trajectory generation).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlannedPath {
    /// Way-points from start to goal inclusive.
    pub waypoints: Vec<Vec3>,
}

impl PlannedPath {
    /// Creates a path from way-points.
    pub fn new(waypoints: Vec<Vec3>) -> Self {
        Self { waypoints }
    }

    /// Number of way-points.
    pub fn len(&self) -> usize {
        self.waypoints.len()
    }

    /// Returns `true` when the path has no way-points.
    pub fn is_empty(&self) -> bool {
        self.waypoints.is_empty()
    }

    /// Total Euclidean length (m).
    pub fn length(&self) -> f64 {
        self.waypoints.windows(2).map(|pair| pair[0].distance(pair[1])).sum()
    }

    /// Returns `true` if every consecutive segment is free in `model`.
    pub fn is_collision_free(&self, model: &dyn ObstacleModel, margin: f64) -> bool {
        self.waypoints.windows(2).all(|pair| model.segment_free(pair[0], pair[1], margin))
    }
}

/// Common interface of the three sampling-based planners.
pub trait MotionPlanner {
    /// The kernel identity of this planner (for reports and timing).
    fn kernel(&self) -> KernelId;

    /// Attempts to plan a collision-free path from `start` to `goal` into a
    /// caller-owned path, reusing its way-point storage (allocation-free
    /// once at capacity).
    ///
    /// Returns `true` when a path was found, in which case `out` holds the
    /// way-points from `start` to `goal` inclusive; on `false` (the
    /// iteration budget ran out without reaching the goal) `out` is left
    /// empty.  Either way any previous content of `out` is discarded
    /// (clear-then-fill, like every `_into` API — see
    /// `docs/PERFORMANCE.md`).
    fn plan_into(
        &mut self,
        model: &dyn ObstacleModel,
        start: Vec3,
        goal: Vec3,
        out: &mut PlannedPath,
    ) -> bool;

    /// Enables or disables the planner's pooled spatial index
    /// ([`NnIndex`](crate::planning::NnIndex)) for nearest-neighbour and
    /// rewiring-radius queries.
    ///
    /// The index is on by default and **inert**: indexed queries are
    /// bit-identical to the O(n) linear scans they replace (same distances,
    /// same lowest-index tie-breaks), so toggling it never changes a planned
    /// path — only how fast it is found.  Disabling it is the verification
    /// knob used by the equivalence tests and the `replan_micro` bench's
    /// indexed-vs-linear timings.  Takes effect at the next `plan_into`
    /// call.
    fn set_spatial_index_enabled(&mut self, enabled: bool);
}

/// One of the paper's three planners, held by value: the crate's one
/// planner dispatch, a static `match` per call.  Being `Clone`, it lets the
/// pipeline that holds it — and a mid-mission checkpoint of that pipeline —
/// clone by value.
#[derive(Debug)]
pub enum Planner {
    /// Baseline RRT.
    Rrt(Rrt),
    /// Bidirectional RRT-Connect.
    RrtConnect(RrtConnect),
    /// Asymptotically optimal RRT*.
    RrtStar(RrtStar),
}

impl MotionPlanner for Planner {
    fn kernel(&self) -> KernelId {
        match self {
            Self::Rrt(planner) => planner.kernel(),
            Self::RrtConnect(planner) => planner.kernel(),
            Self::RrtStar(planner) => planner.kernel(),
        }
    }

    fn plan_into(
        &mut self,
        model: &dyn ObstacleModel,
        start: Vec3,
        goal: Vec3,
        out: &mut PlannedPath,
    ) -> bool {
        match self {
            Self::Rrt(planner) => planner.plan_into(model, start, goal, out),
            Self::RrtConnect(planner) => planner.plan_into(model, start, goal, out),
            Self::RrtStar(planner) => planner.plan_into(model, start, goal, out),
        }
    }

    fn set_spatial_index_enabled(&mut self, enabled: bool) {
        match self {
            Self::Rrt(planner) => planner.set_spatial_index_enabled(enabled),
            Self::RrtConnect(planner) => planner.set_spatial_index_enabled(enabled),
            Self::RrtStar(planner) => planner.set_spatial_index_enabled(enabled),
        }
    }
}

impl Clone for Planner {
    fn clone(&self) -> Self {
        match self {
            Self::Rrt(planner) => Self::Rrt(planner.clone()),
            Self::RrtConnect(planner) => Self::RrtConnect(planner.clone()),
            Self::RrtStar(planner) => Self::RrtStar(planner.clone()),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Self::Rrt(to), Self::Rrt(from)) => to.clone_from(from),
            (Self::RrtConnect(to), Self::RrtConnect(from)) => to.clone_from(from),
            (Self::RrtStar(to), Self::RrtStar(from)) => to.clone_from(from),
            (to, from) => *to = from.clone(),
        }
    }
}

/// [`MotionPlanner::plan_into`] a fresh path: `None` when no path was
/// found.  The planners' unit tests use it as shorthand.
#[cfg(test)]
pub(crate) fn plan(
    planner: &mut dyn MotionPlanner,
    model: &dyn ObstacleModel,
    start: Vec3,
    goal: Vec3,
) -> Option<PlannedPath> {
    let mut out = PlannedPath::default();
    planner.plan_into(model, start, goal, &mut out).then_some(out)
}

/// The planner algorithms evaluated by the paper (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PlannerAlgorithm {
    /// Baseline RRT.
    Rrt,
    /// Bidirectional RRT-Connect.
    RrtConnect,
    /// Asymptotically optimal RRT*.
    RrtStar,
}

impl PlannerAlgorithm {
    /// The three planner algorithms the paper evaluates (Fig. 3).
    pub const ALL: [Self; 3] = [Self::Rrt, Self::RrtConnect, Self::RrtStar];

    /// The corresponding kernel identity.
    pub fn kernel(self) -> KernelId {
        match self {
            Self::Rrt => KernelId::Rrt,
            Self::RrtConnect => KernelId::RrtConnect,
            Self::RrtStar => KernelId::RrtStar,
        }
    }

    /// Instantiates the planner.
    pub fn instantiate(self, config: PlannerConfig) -> Planner {
        match self {
            Self::Rrt => Planner::Rrt(Rrt::new(config)),
            Self::RrtConnect => Planner::RrtConnect(RrtConnect::new(config)),
            Self::RrtStar => Planner::RrtStar(RrtStar::new(config)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavfi_sim::env::EnvironmentKind;

    #[test]
    fn environment_and_grid_agree_on_empty_space() {
        let env = EnvironmentKind::Farm.build(1);
        let grid = OccupancyGrid::new(0.5);
        let a = Vec3::new(0.0, 0.0, 2.0);
        let b = Vec3::new(5.0, 5.0, 2.0);
        assert!(ObstacleModel::point_free(&grid, a, 0.5));
        assert!(ObstacleModel::segment_free(&grid, a, b, 0.5));
        assert!(env.is_free(a, 0.5) == ObstacleModel::point_free(&env, a, 0.5));
    }

    #[test]
    fn planned_path_length_and_freedom() {
        let path = PlannedPath::new(vec![Vec3::ZERO, Vec3::new(3.0, 4.0, 0.0)]);
        assert_eq!(path.len(), 2);
        assert!((path.length() - 5.0).abs() < 1e-12);
        let grid = OccupancyGrid::new(0.5);
        assert!(path.is_collision_free(&grid, 0.5));
    }

    #[test]
    fn planner_algorithm_kernels_are_distinct() {
        let kernels: std::collections::HashSet<_> =
            PlannerAlgorithm::ALL.iter().map(|p| p.kernel()).collect();
        assert_eq!(kernels.len(), 3);
    }

    #[test]
    fn config_builder_sets_seed() {
        let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(10.0));
        let config = PlannerConfig::for_bounds(bounds).with_seed(99);
        assert_eq!(config.seed, 99);
        assert_eq!(config.bounds, bounds);
    }
}
