//! RRT* planner: RRT with optimal parent selection and rewiring.

use mavfi_sim::geometry::Vec3;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::kernel::KernelId;
use crate::planning::nn_index::NnIndex;
use crate::planning::rrt::{sample_point, steer, trace_path_into, ParentLinked};
use crate::planning::space::{MotionPlanner, ObstacleModel, PlannedPath, PlannerConfig};

/// Sentinel for "no node" in the pooled child-link arrays.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct StarNode {
    position: Vec3,
    parent: Option<usize>,
    cost: f64,
}

impl ParentLinked for StarNode {
    fn position(&self) -> Vec3 {
        self.position
    }

    fn parent(&self) -> Option<usize> {
        self.parent
    }
}

/// Pooled first-child/next-sibling adjacency mirroring the parent links of
/// the tree, so a rewire can reach a node's *descendants* without scanning
/// the whole node array.
///
/// Karaman & Frazzoli's rewiring step lowers a neighbour's cost-to-come;
/// the asymptotic-optimality argument needs that reduction to reach every
/// node routed *through* the neighbour, because later best-parent choices
/// and the final goal selection compare those costs.  The sibling list is
/// doubly linked so moving a node to a new parent (the rewire itself) is
/// O(1).
#[derive(Debug, Default)]
struct ChildLinks {
    first_child: Vec<u32>,
    next_sibling: Vec<u32>,
    prev_sibling: Vec<u32>,
}

impl ChildLinks {
    fn clear(&mut self) {
        self.first_child.clear();
        self.next_sibling.clear();
        self.prev_sibling.clear();
    }

    /// Registers the next node (index = current length), not yet linked
    /// under any parent.
    fn push_node(&mut self) {
        self.first_child.push(NONE);
        self.next_sibling.push(NONE);
        self.prev_sibling.push(NONE);
    }

    /// Links `child` at the head of `parent`'s child list.
    fn link(&mut self, child: usize, parent: usize) {
        let head = self.first_child[parent];
        self.next_sibling[child] = head;
        self.prev_sibling[child] = NONE;
        if head != NONE {
            self.prev_sibling[head as usize] = child as u32;
        }
        self.first_child[parent] = child as u32;
    }

    /// Unlinks `child` from `parent`'s child list.
    fn unlink(&mut self, child: usize, parent: usize) {
        let prev = self.prev_sibling[child];
        let next = self.next_sibling[child];
        if prev == NONE {
            self.first_child[parent] = next;
        } else {
            self.next_sibling[prev as usize] = next;
        }
        if next != NONE {
            self.prev_sibling[next as usize] = prev;
        }
    }
}

/// Re-derives the cost of every descendant of `root` from its parent's
/// (already updated) cost, breadth-first in a pooled worklist.
///
/// Costs are recomputed as `parent.cost + edge length` — the exact
/// expression node creation and rewiring use — rather than by adding a
/// delta, so the `cost = Σ edge lengths along the parent chain` invariant
/// holds bit-exactly and float error cannot accumulate across successive
/// rewires.  Traversal order (breadth-first, siblings in child-list order)
/// is deterministic: it depends only on the tree's edit history, never on
/// hashing or memory layout — and the costs it writes are order-independent
/// anyway (each descendant's cost is a pure function of its parent chain).
fn propagate_subtree_costs(
    nodes: &mut [StarNode],
    children: &ChildLinks,
    root: usize,
    worklist: &mut Vec<u32>,
) {
    worklist.clear();
    worklist.push(root as u32);
    let mut cursor = 0;
    while cursor < worklist.len() {
        let parent = worklist[cursor] as usize;
        cursor += 1;
        let mut child = children.first_child[parent];
        while child != NONE {
            let index = child as usize;
            nodes[index].cost =
                nodes[parent].cost + nodes[parent].position.distance(nodes[index].position);
            worklist.push(child);
            child = children.next_sibling[index];
        }
    }
}

/// Picks the goal connection with the lowest total cost (node cost-to-come
/// plus the final hop to the goal), evaluated on **final** node costs.
///
/// Candidacy is geometric (within goal tolerance, collision-free hop) and
/// so fixed at node creation; the *cost* of a candidate keeps dropping as
/// later rewires shorten its parent chain, which is why the total must be
/// recomputed here rather than captured when the candidate was created.
/// Ties resolve to the lowest node index (candidates are recorded in
/// creation order and the comparison is strict).
fn select_best_goal(nodes: &[StarNode], candidates: &[usize], goal: Vec3) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for &candidate in candidates {
        let total = nodes[candidate].cost + nodes[candidate].position.distance(goal);
        if best.map_or(true, |(_, cost)| total < cost) {
            best = Some((candidate, total));
        }
    }
    best
}

/// Picks RRT*'s parent among `candidates` (`(prospective cost, sequence
/// position)` pairs): the free candidate minimising `(cost, sequence)`, where
/// `is_free(sequence)` marches the candidate's `segment_free`.
///
/// This is exactly the candidate a full scan keeping the strict-`<` minimum
/// over the free candidates returns, but the march — the dominant cost of
/// the search, with ~50 candidates per accepted node on dense grids — runs
/// only until the winner is found: the cheapest remaining candidate is
/// marched, and if it is blocked it is `swap_remove`d and the next cheapest
/// tried.  About one march per accepted node suffices in practice, so no
/// sort of the whole set is paid for.  Blocked candidates are removed from
/// `candidates`; `None` when every candidate is blocked.
fn pick_parent(
    candidates: &mut Vec<(f64, u32)>,
    mut is_free: impl FnMut(u32) -> bool,
) -> Option<(f64, u32)> {
    loop {
        let (position, &(cost, sequence)) = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))?;
        if is_free(sequence) {
            return Some((cost, sequence));
        }
        candidates.swap_remove(position);
    }
}

/// RRT*: the default motion planner of the paper's PPC pipeline.
///
/// Compared to plain RRT it selects the lowest-cost parent within a
/// neighbourhood and rewires neighbours through new nodes, producing shorter
/// and smoother paths at a higher planning cost (the paper charges 83 ms per
/// trajectory generation on the i9).
///
/// # Examples
///
/// ```
/// use mavfi_ppc::planning::{MotionPlanner, PlannedPath, PlannerConfig, RrtStar};
/// use mavfi_sim::env::EnvironmentKind;
///
/// let env = EnvironmentKind::Sparse.build(2);
/// let mut planner = RrtStar::new(PlannerConfig::for_bounds(env.bounds()).with_seed(3));
/// assert!(planner.plan_into(&env, env.start(), env.goal(), &mut PlannedPath::default()));
/// ```
#[derive(Debug)]
pub struct RrtStar {
    config: PlannerConfig,
    rng: StdRng,
    // Everything below is pooled across `plan_into` calls per the scratch-buffer
    // convention (docs/PERFORMANCE.md): cleared, never shrunk.
    nodes: Vec<StarNode>,
    neighbours: Vec<usize>,
    // Spatial index over tree nodes for `nearest` and the rewiring-radius
    // query (bit-identical to the linear scans; `use_index` is the
    // verification knob).
    index: NnIndex,
    use_index: bool,
    // Child adjacency + worklist for propagating rewired cost reductions.
    children: ChildLinks,
    worklist: Vec<u32>,
    // Nodes with a verified collision-free hop to the goal.
    goal_candidates: Vec<usize>,
    // Parent candidates as `(prospective cost, sequence position)`, consumed
    // cheapest-first by `pick_parent`.
    parent_candidates: Vec<(f64, u32)>,
    // `neighbours[i].position.distance(new_position)`, filled by the radius
    // query alongside `neighbours` and used by both the parent pick and the
    // rewire pass (positions never move, so the values stay exact;
    // `Vec3::distance` is symmetric bit-for-bit — negation is exact, the
    // squares are identical).
    neighbour_distances: Vec<f64>,
}

/// A clone continues the planner's random stream with fresh pooled scratch.
/// The scratch never outlives a `plan_into` call, so the clone plans
/// exactly as the original would from here on.
impl Clone for RrtStar {
    fn clone(&self) -> Self {
        Self { rng: self.rng.clone(), use_index: self.use_index, ..Self::new(self.config) }
    }

    fn clone_from(&mut self, source: &Self) {
        self.config = source.config;
        self.rng.clone_from(&source.rng);
        self.use_index = source.use_index;
    }
}

impl RrtStar {
    /// Creates an RRT* planner.
    pub fn new(config: PlannerConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            config,
            rng,
            nodes: Vec::new(),
            neighbours: Vec::new(),
            index: NnIndex::new(),
            use_index: true,
            children: ChildLinks::default(),
            worklist: Vec::new(),
            goal_candidates: Vec::new(),
            parent_candidates: Vec::new(),
            neighbour_distances: Vec::new(),
        }
    }

    /// The planner configuration.
    pub fn config(&self) -> PlannerConfig {
        self.config
    }
}

impl MotionPlanner for RrtStar {
    fn kernel(&self) -> KernelId {
        KernelId::RrtStar
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

        self.nodes.clear();
        self.nodes.push(StarNode { position: start, parent: None, cost: 0.0 });
        self.children.clear();
        self.children.push_node();
        self.goal_candidates.clear();
        if self.use_index {
            // Cells as wide as the rewiring radius: the neighbourhood query
            // then spans 3 × 3 × 3 cells instead of 5 × 5 × 5 at `step_size`
            // (a radius below the step, down to zero, keeps step-sized cells).
            let cell_size = self.config.rewire_radius.max(self.config.step_size);
            self.index.reset(cell_size, self.config.bounds);
            self.index.insert(start);
        }
        let nodes = &mut self.nodes;
        let neighbours = &mut self.neighbours;

        for _ in 0..self.config.max_iterations {
            let sample = sample_point(&mut self.rng, &self.config, goal);
            let nearest_index = if self.use_index {
                self.index.nearest(sample)
            } else {
                nodes
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        a.position
                            .distance(sample)
                            .partial_cmp(&b.position.distance(sample))
                            .expect("finite distances")
                    })
                    .map(|(index, _)| index)
                    .expect("tree non-empty")
            };
            let new_position = steer(nodes[nearest_index].position, sample, self.config.step_size);
            if !model.point_free(new_position, self.config.margin) {
                continue;
            }

            // The rewiring neighbourhood with each member's distance to the
            // new node, in ascending node-index order (the linear filter's
            // natural order, which the index reproduces).
            let neighbour_distances = &mut self.neighbour_distances;
            if self.use_index {
                self.index.within_radius_with_distances(
                    new_position,
                    self.config.rewire_radius,
                    neighbours,
                    neighbour_distances,
                );
            } else {
                neighbours.clear();
                neighbour_distances.clear();
                for (index, node) in nodes.iter().enumerate() {
                    let distance = node.position.distance(new_position);
                    if distance <= self.config.rewire_radius {
                        neighbours.push(index);
                        neighbour_distances.push(distance);
                    }
                }
            }

            // Choose the best parent within the rewiring radius; the
            // steering node is chained in only when it lies *outside* the
            // radius (when inside it is already in `neighbours`, and
            // re-marching `segment_free` for it would double the most
            // expensive query of the loop for no behavioural difference).
            self.parent_candidates.clear();
            self.parent_candidates.extend(
                neighbours.iter().zip(neighbour_distances.iter()).enumerate().map(
                    |(sequence, (&candidate, &distance))| {
                        (nodes[candidate].cost + distance, sequence as u32)
                    },
                ),
            );
            if neighbours.binary_search(&nearest_index).is_err() {
                let parent = &nodes[nearest_index];
                let distance = parent.position.distance(new_position);
                self.parent_candidates.push((parent.cost + distance, neighbours.len() as u32));
            }
            let candidate_at =
                |sequence: u32| neighbours.get(sequence as usize).copied().unwrap_or(nearest_index);
            let picked = pick_parent(&mut self.parent_candidates, |sequence| {
                model.segment_free(
                    nodes[candidate_at(sequence)].position,
                    new_position,
                    self.config.margin,
                )
            });
            let Some((best_cost, sequence)) = picked else { continue };
            let parent_index = candidate_at(sequence);
            nodes.push(StarNode {
                position: new_position,
                parent: Some(parent_index),
                cost: best_cost,
            });
            let new_index = nodes.len() - 1;
            self.children.push_node();
            self.children.link(new_index, parent_index);
            if self.use_index {
                self.index.insert(new_position);
            }

            // Rewire neighbours through the new node when cheaper, and
            // propagate each reduction to the rewired node's descendants:
            // their costs are sums over parent chains that now include the
            // cheaper edge, and stale descendant costs would corrupt every
            // later best-parent choice, rewire decision and the final goal
            // selection.
            // Ascending neighbour order, matching the pre-index linear scan:
            // a rewire's propagation can lower a *later* neighbour's cost
            // mid-loop, so iteration order is observable.  Costs are read
            // fresh for the same reason; only the distances are cached.
            for (position, &neighbour) in neighbours.iter().enumerate() {
                let through_new = best_cost + self.neighbour_distances[position];
                if through_new + 1e-9 < nodes[neighbour].cost
                    && model.segment_free(
                        new_position,
                        nodes[neighbour].position,
                        self.config.margin,
                    )
                {
                    let old_parent =
                        nodes[neighbour].parent.expect("only the root has cost 0 and no parent");
                    self.children.unlink(neighbour, old_parent);
                    self.children.link(neighbour, new_index);
                    nodes[neighbour].parent = Some(new_index);
                    nodes[neighbour].cost = through_new;
                    propagate_subtree_costs(nodes, &self.children, neighbour, &mut self.worklist);
                }
            }

            // Record goal candidacy (geometric, so decided once per node);
            // totals are compared after the iteration budget, on final costs.
            if new_position.distance(goal) <= self.config.goal_tolerance
                && model.segment_free(new_position, goal, self.config.margin)
            {
                self.goal_candidates.push(new_index);
            }
        }

        match select_best_goal(nodes, &self.goal_candidates, goal) {
            Some((index, _)) => {
                trace_path_into(nodes, index, &mut out.waypoints);
                out.waypoints.push(goal);
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planning::rrt::Rrt;
    use crate::planning::space::plan;
    use mavfi_sim::env::EnvironmentKind;
    use mavfi_sim::geometry::Aabb;

    #[test]
    fn plans_collision_free_paths() {
        let env = EnvironmentKind::Sparse.build(13);
        let mut planner = RrtStar::new(PlannerConfig::for_bounds(env.bounds()).with_seed(6));
        let path = plan(&mut planner, &env, env.start(), env.goal()).expect("solvable");
        assert!(path.is_collision_free(&env, planner.config().margin * 0.9));
        assert_eq!(path.waypoints[0], env.start());
        assert_eq!(*path.waypoints.last().unwrap(), env.goal());
    }

    #[test]
    fn deterministic_per_seed() {
        let env = EnvironmentKind::Sparse.build(4);
        let config = PlannerConfig::for_bounds(env.bounds()).with_seed(12);
        let a = plan(&mut RrtStar::new(config), &env, env.start(), env.goal());
        let b = plan(&mut RrtStar::new(config), &env, env.start(), env.goal());
        assert_eq!(a, b);
    }

    /// Sampling bounds that leave `start` and `goal` outside along x by more
    /// than one spatial-index cell, so the index keeps them — and the nodes
    /// steered from them — on its overflow chain.
    fn bounds_excluding(bounds: Aabb, start: Vec3, goal: Vec3) -> Aabb {
        let inset = 1.2 * PlannerConfig::for_bounds(bounds).rewire_radius;
        let sampled = Aabb::new(
            Vec3::new(start.x.min(goal.x) + inset, bounds.min.y, bounds.min.z),
            Vec3::new(start.x.max(goal.x) - inset, bounds.max.y, bounds.max.z),
        );
        assert!(!sampled.contains(start) && !sampled.contains(goal), "start and goal lie outside");
        sampled
    }

    #[test]
    fn indexed_and_linear_queries_plan_identical_paths() {
        let mut solved = 0;
        for (kind, env_seed) in [
            (EnvironmentKind::Sparse, 13_u64),
            (EnvironmentKind::Farm, 2),
            (EnvironmentKind::Dense, 8),
        ] {
            let env = kind.build(env_seed);
            let config = PlannerConfig::for_bounds(env.bounds()).with_seed(6);
            // Start and goal inside the sampling bounds, then outside them
            // (the index keeps those nodes on its overflow chain).
            let outside = PlannerConfig {
                bounds: bounds_excluding(env.bounds(), env.start(), env.goal()),
                ..config
            };
            for config in [config, outside] {
                let mut indexed = RrtStar::new(config);
                let mut linear = RrtStar::new(config);
                linear.set_spatial_index_enabled(false);
                // Two plans per instance: the second runs over warm pooled
                // buffers and a stepped RNG.
                for (start, goal) in [(env.start(), env.goal()), (env.goal(), env.start())] {
                    let path = plan(&mut indexed, &env, start, goal);
                    assert_eq!(
                        path,
                        plan(&mut linear, &env, start, goal),
                        "{} seed {env_seed} diverged",
                        env.name()
                    );
                    solved += usize::from(path.is_some());
                }
            }
        }
        assert!(solved >= 6, "most problems must be solved, not fail alike ({solved}/12)");
    }

    /// The reference `pick_parent` replaced: sort every candidate by
    /// `(cost, sequence)` and take the first free one.
    fn sorted_first_free(candidates: &[(f64, u32)], blocked: &[bool]) -> Option<(f64, u32)> {
        let mut sorted = candidates.to_vec();
        sorted.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        sorted.into_iter().find(|&(_, sequence)| !blocked[sequence as usize])
    }

    #[test]
    fn lazy_parent_pick_matches_sorted_first_free() {
        use rand::Rng;

        let mut rng = StdRng::seed_from_u64(41);
        let mut candidates = Vec::new();
        let mut outcomes = [0_usize; 3];
        for case in 0..4_000 {
            let count = rng.gen_range(0..60_usize);
            // Costs from a small set, so equal costs are common and must
            // break by sequence position.
            let original: Vec<(f64, u32)> = (0..count)
                .map(|sequence| (f64::from(rng.gen_range(0..8_u32)) * 0.5, sequence as u32))
                .collect();
            let blocked_share = [0.0, 0.5, 0.9, 1.0][case % 4];
            let blocked: Vec<bool> = (0..count).map(|_| rng.gen_bool(blocked_share)).collect();
            candidates.clear();
            candidates.extend_from_slice(&original);
            let mut marched = 0;
            let picked = pick_parent(&mut candidates, |sequence| {
                marched += 1;
                !blocked[sequence as usize]
            });
            assert_eq!(picked, sorted_first_free(&original, &blocked), "case {case}");
            // Only blocked candidates are marched before the winner.
            let cheaper_blocked = match picked {
                Some(winner) => original
                    .iter()
                    .filter(|c| {
                        blocked[c.1 as usize]
                            && c.0.total_cmp(&winner.0).then(c.1.cmp(&winner.1)).is_lt()
                    })
                    .count(),
                None => count,
            };
            assert_eq!(marched, cheaper_blocked + usize::from(picked.is_some()), "case {case}");
            outcomes[match picked {
                None => 0,
                Some(_) if marched > 1 => 1,
                Some(_) => 2,
            }] += 1;
        }
        assert!(
            outcomes.iter().all(|&n| n > 100),
            "all-blocked, blocked-cheapest and first-free cases: {outcomes:?}"
        );
    }

    /// Regression for the stale-cost rewiring bug: a hand-built tree where
    /// the old code (update the rewired neighbour only) provably selects a
    /// non-optimal goal connection.
    ///
    /// Layout (z = 0 everywhere): the root's path to `via` detours through
    /// `detour`, and `leaf` (the goal candidate) hangs off `via`:
    ///
    /// ```text
    /// root (0,0) ── detour (0,10) ── via (6,8) ── leaf (12,8)   [goal hop]
    ///          └── cheap (6,4)   ← new node that rewires `via`
    /// ```
    #[test]
    fn rewiring_propagates_cost_reductions_to_descendants() {
        let root = Vec3::ZERO;
        let detour = Vec3::new(0.0, 10.0, 0.0);
        let via = Vec3::new(6.0, 8.0, 0.0);
        let leaf = Vec3::new(12.0, 8.0, 0.0);
        let cheap = Vec3::new(6.0, 4.0, 0.0);

        let mut nodes = vec![
            StarNode { position: root, parent: None, cost: 0.0 },
            StarNode { position: detour, parent: Some(0), cost: root.distance(detour) },
            StarNode {
                position: via,
                parent: Some(1),
                cost: root.distance(detour) + detour.distance(via),
            },
        ];
        nodes.push(StarNode {
            position: leaf,
            parent: Some(2),
            cost: nodes[2].cost + via.distance(leaf),
        });
        let mut children = ChildLinks::default();
        for _ in 0..nodes.len() {
            children.push_node();
        }
        children.link(1, 0);
        children.link(2, 1);
        children.link(3, 2);
        let stale_leaf_cost = nodes[3].cost;

        // The new node, wired straight to the root, rewires `via` exactly
        // as the planner's rewire step does.
        nodes.push(StarNode { position: cheap, parent: Some(0), cost: root.distance(cheap) });
        children.push_node();
        children.link(4, 0);
        let through_new = nodes[4].cost + cheap.distance(via);
        assert!(through_new + 1e-9 < nodes[2].cost, "the rewire must be profitable");
        children.unlink(2, 1);
        children.link(2, 4);
        nodes[2].parent = Some(4);
        nodes[2].cost = through_new;
        let mut worklist = Vec::new();
        propagate_subtree_costs(&mut nodes, &children, 2, &mut worklist);

        // The descendant's cost must reflect the rewired chain exactly.
        let expected_leaf_cost = nodes[2].cost + via.distance(leaf);
        assert_eq!(nodes[3].cost, expected_leaf_cost, "leaf cost must be re-derived");
        assert!(
            nodes[3].cost < stale_leaf_cost,
            "the reduction must reach the descendant (old code left {stale_leaf_cost})"
        );

        // And the goal selection must see the reduction: with the stale
        // leaf cost the old code would report a provably non-optimal total.
        let goal = Vec3::new(13.0, 8.0, 0.0);
        let (best, total) =
            select_best_goal(&nodes, &[3], goal).expect("candidate recorded at creation");
        assert_eq!(best, 3);
        assert_eq!(total, expected_leaf_cost + leaf.distance(goal));
        assert!(total < stale_leaf_cost + leaf.distance(goal));
    }

    /// The cost invariant the old rewiring code violated on real plans:
    /// after planning, every node's stored cost must equal its parent's
    /// cost plus the connecting edge length, bit-exactly.  (Any rewire
    /// above a node with descendants broke this before the fix.)
    #[test]
    fn final_tree_costs_satisfy_the_parent_edge_invariant() {
        for (kind, env_seed, planner_seed) in [
            (EnvironmentKind::Sparse, 13_u64, 6_u64),
            (EnvironmentKind::Sparse, 21, 1),
            (EnvironmentKind::Dense, 8, 9),
        ] {
            let env = kind.build(env_seed);
            let mut planner =
                RrtStar::new(PlannerConfig::for_bounds(env.bounds()).with_seed(planner_seed));
            plan(&mut planner, &env, env.start(), env.goal());
            assert!(planner.nodes.len() > 50, "the search must have built a real tree");
            for (index, node) in planner.nodes.iter().enumerate() {
                let Some(parent) = node.parent else {
                    assert_eq!(node.cost, 0.0, "root cost");
                    continue;
                };
                let parent_node = &planner.nodes[parent];
                assert_eq!(
                    node.cost,
                    parent_node.cost + parent_node.position.distance(node.position),
                    "stale cost at node {index} of {}/{env_seed}",
                    env.name()
                );
            }
        }
    }

    /// `select_best_goal` evaluates totals on final costs: a candidate whose
    /// cost dropped after its goal connection was discovered must win over a
    /// candidate that looked better at discovery time (the old `best_goal`
    /// captured totals at creation and never revisited them).
    #[test]
    fn goal_selection_recomputes_totals_from_final_costs() {
        let goal = Vec3::new(20.0, 0.0, 0.0);
        let near = Vec3::new(19.0, 0.0, 0.0);
        let far = Vec3::new(19.0, 1.0, 0.0);
        let nodes = vec![
            StarNode { position: Vec3::ZERO, parent: None, cost: 0.0 },
            // Discovered first with an (initially) terrible cost that a
            // later rewire reduced to 19.0 — the state after propagation.
            StarNode { position: near, parent: Some(0), cost: 19.0 },
            // Discovered second; never rewired.
            StarNode { position: far, parent: Some(0), cost: 19.5 },
        ];
        let (best, total) = select_best_goal(&nodes, &[1, 2], goal).expect("two candidates");
        assert_eq!(best, 1, "the rewired candidate must win on its final cost");
        assert_eq!(total, 19.0 + near.distance(goal));
    }

    #[test]
    fn rrt_star_paths_are_not_longer_than_rrt_on_average() {
        // Averaged over a few seeds, RRT* should produce shorter paths than
        // plain RRT thanks to rewiring.  Use the same iteration budget.
        let env = EnvironmentKind::Sparse.build(20);
        let mut star_total = 0.0;
        let mut rrt_total = 0.0;
        let mut solved = 0;
        for seed in 0..4_u64 {
            let config = PlannerConfig::for_bounds(env.bounds()).with_seed(seed);
            let star = plan(&mut RrtStar::new(config), &env, env.start(), env.goal());
            let plain = plan(&mut Rrt::new(config), &env, env.start(), env.goal());
            if let (Some(star), Some(plain)) = (star, plain) {
                star_total += star.length();
                rrt_total += plain.length();
                solved += 1;
            }
        }
        assert!(solved >= 2, "expected most seeds to solve the sparse world");
        assert!(
            star_total <= rrt_total * 1.05,
            "RRT* ({star_total:.1} m) should not be materially longer than RRT ({rrt_total:.1} m)"
        );
    }
}
