//! Bidirectional RRT-Connect planner.

use mavfi_sim::geometry::Vec3;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernel::KernelId;
use crate::planning::nn_index::NnIndex;
use crate::planning::rrt::{
    nearest, sample_point, steer, trace_leafward_into, trace_path_into, TreeNode,
};
use crate::planning::space::{MotionPlanner, ObstacleModel, PlannedPath, PlannerConfig};

/// RRT-Connect: two trees grown from start and goal that greedily connect
/// towards each other.
///
/// # Examples
///
/// ```
/// use mavfi_ppc::planning::{MotionPlanner, PlannedPath, PlannerConfig, RrtConnect};
/// use mavfi_sim::env::EnvironmentKind;
///
/// let env = EnvironmentKind::Sparse.build(5);
/// let mut planner = RrtConnect::new(PlannerConfig::for_bounds(env.bounds()).with_seed(2));
/// assert!(planner.plan_into(&env, env.start(), env.goal(), &mut PlannedPath::default()));
/// ```
#[derive(Debug)]
pub struct RrtConnect {
    config: PlannerConfig,
    rng: StdRng,
    // Both trees pooled across `plan_into` calls (replans reuse the capacity),
    // each paired with its own pooled spatial index (bit-identical to the
    // linear `nearest` scan; `use_index` is the verification knob).
    start_tree: Vec<TreeNode>,
    goal_tree: Vec<TreeNode>,
    start_index: NnIndex,
    goal_index: NnIndex,
    use_index: bool,
}

enum ExtendResult {
    Trapped,
    Advanced(usize),
    Reached(usize),
}

/// A clone continues the planner's random stream with fresh pooled scratch.
/// The scratch never outlives a `plan_into` call, so the clone plans
/// exactly as the original would from here on.
impl Clone for RrtConnect {
    fn clone(&self) -> Self {
        Self { rng: self.rng.clone(), use_index: self.use_index, ..Self::new(self.config) }
    }

    fn clone_from(&mut self, source: &Self) {
        self.config = source.config;
        self.rng.clone_from(&source.rng);
        self.use_index = source.use_index;
    }
}

impl RrtConnect {
    /// Creates an RRT-Connect planner.
    pub fn new(config: PlannerConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            config,
            rng,
            start_tree: Vec::new(),
            goal_tree: Vec::new(),
            start_index: NnIndex::new(),
            goal_index: NnIndex::new(),
            use_index: true,
        }
    }

    /// The planner configuration.
    pub fn config(&self) -> PlannerConfig {
        self.config
    }

    fn extend(
        config: &PlannerConfig,
        model: &dyn ObstacleModel,
        nodes: &mut Vec<TreeNode>,
        index: Option<&mut NnIndex>,
        target: Vec3,
    ) -> ExtendResult {
        let nearest_index = match &index {
            Some(index) => index.nearest(target),
            None => nearest(nodes, target),
        };
        let new_position = steer(nodes[nearest_index].position, target, config.step_size);
        if !model.point_free(new_position, config.margin)
            || !model.segment_free(nodes[nearest_index].position, new_position, config.margin)
        {
            return ExtendResult::Trapped;
        }
        nodes.push(TreeNode { position: new_position, parent: Some(nearest_index) });
        if let Some(index) = index {
            index.insert(new_position);
        }
        let new_index = nodes.len() - 1;
        if new_position.distance(target) <= config.goal_tolerance {
            ExtendResult::Reached(new_index)
        } else {
            ExtendResult::Advanced(new_index)
        }
    }

    fn connect(
        config: &PlannerConfig,
        model: &dyn ObstacleModel,
        nodes: &mut Vec<TreeNode>,
        mut index: Option<&mut NnIndex>,
        target: Vec3,
    ) -> ExtendResult {
        // Keep growing towards the target until trapped or reached.
        loop {
            match Self::extend(config, model, nodes, index.as_deref_mut(), target) {
                ExtendResult::Advanced(_) => continue,
                other => return other,
            }
        }
    }
}

impl MotionPlanner for RrtConnect {
    fn kernel(&self) -> KernelId {
        KernelId::RrtConnect
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
        if model.segment_free(start, goal, self.config.margin) {
            out.waypoints.push(start);
            out.waypoints.push(goal);
            return true;
        }

        let config = self.config;
        self.start_tree.clear();
        self.start_tree.push(TreeNode { position: start, parent: None });
        self.goal_tree.clear();
        self.goal_tree.push(TreeNode { position: goal, parent: None });
        if self.use_index {
            self.start_index.reset(config.step_size, config.bounds);
            self.start_index.insert(start);
            self.goal_index.reset(config.step_size, config.bounds);
            self.goal_index.insert(goal);
        }
        let start_tree = &mut self.start_tree;
        let goal_tree = &mut self.goal_tree;
        let mut start_is_a = true;

        for _ in 0..config.max_iterations {
            let sample = sample_point(&mut self.rng, &config, goal);
            let (tree_a, index_a, tree_b, index_b) = if start_is_a {
                (&mut *start_tree, &mut self.start_index, &mut *goal_tree, &mut self.goal_index)
            } else {
                (&mut *goal_tree, &mut self.goal_index, &mut *start_tree, &mut self.start_index)
            };

            let extended = match Self::extend(
                &config,
                model,
                tree_a,
                self.use_index.then_some(index_a),
                sample,
            ) {
                ExtendResult::Trapped => {
                    start_is_a = !start_is_a;
                    continue;
                }
                ExtendResult::Advanced(index) | ExtendResult::Reached(index) => index,
            };
            let new_position = tree_a[extended].position;

            if let ExtendResult::Reached(meet_index) = Self::connect(
                &config,
                model,
                tree_b,
                self.use_index.then_some(index_b),
                new_position,
            ) {
                // Join: path through tree A to `extended`, then through tree
                // B from `meet_index` back to its root.
                let (start_nodes, start_index, goal_nodes, goal_index) = if start_is_a {
                    (&*start_tree, extended, &*goal_tree, meet_index)
                } else {
                    (&*start_tree, meet_index, &*goal_tree, extended)
                };
                trace_path_into(start_nodes, start_index, &mut out.waypoints);
                // The goal-tree half is wanted meeting-point-first, which is
                // exactly the leaf-to-root walk order, so it appends without
                // the reverse step the allocating path needed.
                trace_leafward_into(goal_nodes, goal_index, &mut out.waypoints);
                return true;
            }
            start_is_a = !start_is_a;
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
    fn plans_through_sparse_and_dense_environments() {
        for (kind, seed) in [(EnvironmentKind::Sparse, 3_u64), (EnvironmentKind::Dense, 8_u64)] {
            let env = kind.build(seed);
            let mut planner =
                RrtConnect::new(PlannerConfig::for_bounds(env.bounds()).with_seed(17));
            let path = plan(&mut planner, &env, env.start(), env.goal())
                .unwrap_or_else(|| panic!("{} should be solvable", env.name()));
            assert_eq!(path.waypoints.first().copied(), Some(env.start()));
            assert_eq!(path.waypoints.last().copied(), Some(env.goal()));
            assert!(path.is_collision_free(&env, planner.config().margin * 0.9));
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let env = EnvironmentKind::Sparse.build(9);
        let config = PlannerConfig::for_bounds(env.bounds()).with_seed(5);
        let a = plan(&mut RrtConnect::new(config), &env, env.start(), env.goal());
        let b = plan(&mut RrtConnect::new(config), &env, env.start(), env.goal());
        assert_eq!(a, b);
    }

    #[test]
    fn path_endpoints_are_exact() {
        let env = EnvironmentKind::Factory.build(0);
        let mut planner = RrtConnect::new(PlannerConfig::for_bounds(env.bounds()).with_seed(31));
        if let Some(path) = plan(&mut planner, &env, env.start(), env.goal()) {
            assert_eq!(path.waypoints[0], env.start());
            assert_eq!(*path.waypoints.last().unwrap(), env.goal());
        }
    }
}
