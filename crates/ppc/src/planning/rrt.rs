//! Baseline rapidly-exploring random tree (RRT) planner.

use mavfi_sim::geometry::Vec3;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::kernel::KernelId;
use crate::planning::nn_index::NnIndex;
use crate::planning::space::{MotionPlanner, ObstacleModel, PlannedPath, PlannerConfig};

#[derive(Debug, Clone, Copy)]
pub(crate) struct TreeNode {
    pub(crate) position: Vec3,
    pub(crate) parent: Option<usize>,
}

/// A tree node addressable by the shared path-tracing helpers: every
/// RRT-family node type is a position plus an optional parent index
/// (RRT* adds a cost, which tracing does not need).
pub(crate) trait ParentLinked {
    /// The node's position.
    fn position(&self) -> Vec3;
    /// Index of the parent node; `None` for the root.
    fn parent(&self) -> Option<usize>;
}

impl ParentLinked for TreeNode {
    fn position(&self) -> Vec3 {
        self.position
    }

    fn parent(&self) -> Option<usize> {
        self.parent
    }
}

/// Samples a point in the configuration-space bounds, with goal biasing.
pub(crate) fn sample_point(rng: &mut StdRng, config: &PlannerConfig, goal: Vec3) -> Vec3 {
    if rng.gen_bool(config.goal_bias.clamp(0.0, 1.0)) {
        return goal;
    }
    let bounds = config.bounds;
    Vec3::new(
        rng.gen_range(bounds.min.x..=bounds.max.x),
        rng.gen_range(bounds.min.y..=bounds.max.y),
        rng.gen_range(bounds.min.z..=bounds.max.z),
    )
}

/// Index of the tree node nearest to `point`.
pub(crate) fn nearest(nodes: &[TreeNode], point: Vec3) -> usize {
    nodes
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.position
                .distance(point)
                .partial_cmp(&b.position.distance(point))
                .expect("distances are finite")
        })
        .map(|(index, _)| index)
        .expect("tree is never empty")
}

/// Moves from `from` towards `to` by at most `step`.
pub(crate) fn steer(from: Vec3, to: Vec3, step: f64) -> Vec3 {
    let delta = to - from;
    let distance = delta.norm();
    if distance <= step || distance <= f64::EPSILON {
        to
    } else {
        from + delta * (step / distance)
    }
}

/// Appends the `index`-to-root path to `out`, leaf first (the raw parent
/// walk; RRT-Connect wants its goal-tree half exactly in this order).
pub(crate) fn trace_leafward_into<N: ParentLinked>(
    nodes: &[N],
    mut index: usize,
    out: &mut Vec<Vec3>,
) {
    out.push(nodes[index].position());
    while let Some(parent) = nodes[index].parent() {
        out.push(nodes[parent].position());
        index = parent;
    }
}

/// Appends the root-to-`index` path to `out` (the in-place counterpart of
/// the old allocating `trace_path`): positions are pushed leaf-to-root and
/// the appended tail is then reversed, so the result is identical while the
/// caller's buffer is reused.
pub(crate) fn trace_path_into<N: ParentLinked>(nodes: &[N], index: usize, out: &mut Vec<Vec3>) {
    let base = out.len();
    trace_leafward_into(nodes, index, out);
    out[base..].reverse();
}

/// The baseline RRT planner.
///
/// # Examples
///
/// ```
/// use mavfi_ppc::planning::{MotionPlanner, PlannedPath, PlannerConfig, Rrt};
/// use mavfi_sim::env::EnvironmentKind;
///
/// let env = EnvironmentKind::Sparse.build(3);
/// let mut planner = Rrt::new(PlannerConfig::for_bounds(env.bounds()).with_seed(1));
/// let mut path = PlannedPath::default();
/// assert!(planner.plan_into(&env, env.start(), env.goal(), &mut path), "sparse world is solvable");
/// assert!(path.len() >= 2);
/// ```
#[derive(Debug)]
pub struct Rrt {
    config: PlannerConfig,
    rng: StdRng,
    // Tree storage pooled across `plan_into` calls (replans reuse the capacity).
    nodes: Vec<TreeNode>,
    // Pooled spatial index over the tree (bit-identical to the linear
    // `nearest` scan; `use_index` is the verification knob).
    index: NnIndex,
    use_index: bool,
}

/// A clone continues the planner's random stream with fresh pooled scratch.
/// The scratch never outlives a `plan_into` call, so the clone plans
/// exactly as the original would from here on.
impl Clone for Rrt {
    fn clone(&self) -> Self {
        Self { rng: self.rng.clone(), use_index: self.use_index, ..Self::new(self.config) }
    }

    fn clone_from(&mut self, source: &Self) {
        self.config = source.config;
        self.rng.clone_from(&source.rng);
        self.use_index = source.use_index;
    }
}

impl Rrt {
    /// Creates an RRT planner.
    pub fn new(config: PlannerConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self { config, rng, nodes: Vec::new(), index: NnIndex::new(), use_index: true }
    }

    /// The planner configuration.
    pub fn config(&self) -> PlannerConfig {
        self.config
    }
}

impl MotionPlanner for Rrt {
    fn kernel(&self) -> KernelId {
        KernelId::Rrt
    }

    fn set_spatial_index_enabled(&mut self, enabled: bool) {
        self.use_index = enabled;
    }

    fn plan_into(
        &mut self,
        model: &dyn ObstacleModel,
        start: Vec3,
        goal: Vec3,
        out: &mut PlannedPath,
    ) -> bool {
        out.waypoints.clear();
        if !model.point_free(goal, self.config.margin) {
            return false;
        }
        // Direct connection shortcut.
        if model.segment_free(start, goal, self.config.margin) {
            out.waypoints.push(start);
            out.waypoints.push(goal);
            return true;
        }

        self.nodes.clear();
        self.nodes.push(TreeNode { position: start, parent: None });
        if self.use_index {
            self.index.reset(self.config.step_size, self.config.bounds);
            self.index.insert(start);
        }
        for _ in 0..self.config.max_iterations {
            let sample = sample_point(&mut self.rng, &self.config, goal);
            let nearest_index = if self.use_index {
                self.index.nearest(sample)
            } else {
                nearest(&self.nodes, sample)
            };
            let new_position =
                steer(self.nodes[nearest_index].position, sample, self.config.step_size);
            if !model.point_free(new_position, self.config.margin)
                || !model.segment_free(
                    self.nodes[nearest_index].position,
                    new_position,
                    self.config.margin,
                )
            {
                continue;
            }
            self.nodes.push(TreeNode { position: new_position, parent: Some(nearest_index) });
            if self.use_index {
                self.index.insert(new_position);
            }
            let new_index = self.nodes.len() - 1;

            if new_position.distance(goal) <= self.config.goal_tolerance
                && model.segment_free(new_position, goal, self.config.margin)
            {
                trace_path_into(&self.nodes, new_index, &mut out.waypoints);
                out.waypoints.push(goal);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::space::plan;
    use mavfi_sim::env::EnvironmentKind;

    #[test]
    fn steer_respects_step_size() {
        let stepped = steer(Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0), 2.0);
        assert_eq!(stepped, Vec3::new(2.0, 0.0, 0.0));
        let reached = steer(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0), 2.0);
        assert_eq!(reached, Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn plans_through_sparse_environment() {
        let env = EnvironmentKind::Sparse.build(11);
        let mut planner = Rrt::new(PlannerConfig::for_bounds(env.bounds()).with_seed(4));
        let path = plan(&mut planner, &env, env.start(), env.goal()).expect("path exists");
        assert_eq!(path.waypoints[0], env.start());
        assert_eq!(*path.waypoints.last().unwrap(), env.goal());
        assert!(path.is_collision_free(&env, planner.config().margin * 0.9));
    }

    #[test]
    fn direct_shortcut_when_line_of_sight_exists() {
        let env = EnvironmentKind::Farm.build(0);
        let mut planner = Rrt::new(PlannerConfig::for_bounds(env.bounds()).with_seed(0));
        // Farm hedges are low; fly above them by planning at altitude 2.5 m,
        // but the start-goal diagonal crosses hedges laterally, so just check
        // that a short unobstructed segment takes the shortcut.
        let start = env.start();
        let nearby = start + Vec3::new(3.0, 0.0, 0.0);
        let path = plan(&mut planner, &env, start, nearby).unwrap();
        assert_eq!(path.len(), 2);
    }

    #[test]
    fn planning_is_deterministic_for_a_seed() {
        let env = EnvironmentKind::Sparse.build(7);
        let config = PlannerConfig::for_bounds(env.bounds()).with_seed(21);
        let a = plan(&mut Rrt::new(config), &env, env.start(), env.goal());
        let b = plan(&mut Rrt::new(config), &env, env.start(), env.goal());
        assert_eq!(a, b);
    }

    #[test]
    fn impossible_problem_returns_none() {
        let env = EnvironmentKind::Sparse.build(1);
        let mut config = PlannerConfig::for_bounds(env.bounds()).with_seed(1);
        config.max_iterations = 5;
        // Ask for a goal outside the bounds with a tiny budget: unreachable.
        let outside = env.bounds().max + Vec3::splat(100.0);
        let mut planner = Rrt::new(config);
        assert!(plan(&mut planner, &env, env.start(), outside).is_none());
    }
}
