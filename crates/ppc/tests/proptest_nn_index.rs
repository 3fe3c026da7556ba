//! Property tests for the pooled flat-grid spatial index
//! ([`NnIndex`]): random insert sequences and queries must agree **exactly**
//! — on index *and* tie-break — with the O(n) linear scans the RRT-family
//! planners used before, across bounds scales, cell (step-size) configs and
//! boxes that leave points outside (the overflow chain); and the three
//! planners themselves must produce bit-identical paths with the index on
//! and off.

use mavfi_ppc::planning::{
    MotionPlanner, NnIndex, ObstacleModel, PlannedPath, PlannerAlgorithm, PlannerConfig,
};
use mavfi_sim::env::EnvironmentKind;
use mavfi_sim::geometry::{Aabb, Vec3};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Plans into a fresh path: `None` when no path was found.
fn plan(
    planner: &mut dyn MotionPlanner,
    model: &dyn ObstacleModel,
    start: Vec3,
    goal: Vec3,
) -> Option<PlannedPath> {
    let mut out = PlannedPath::default();
    planner.plan_into(model, start, goal, &mut out).then_some(out)
}

/// The linear `nearest` the planners used: `min_by` over distances in index
/// order, first minimum (= lowest index) winning ties.
fn linear_nearest(points: &[Vec3], query: Vec3) -> usize {
    points
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            a.distance(query).partial_cmp(&b.distance(query)).expect("finite distances")
        })
        .map(|(index, _)| index)
        .expect("non-empty")
}

/// The linear neighbourhood filter RRT* used: inclusive radius comparison,
/// ascending index order.
fn linear_within(points: &[Vec3], query: Vec3, radius: f64) -> Vec<usize> {
    points
        .iter()
        .enumerate()
        .filter(|(_, point)| point.distance(query) <= radius)
        .map(|(index, _)| index)
        .collect()
}

/// Deterministic point inside a cube of half-extent `scale`; every ~8th
/// point duplicates an earlier one so exact-distance ties actually occur.
fn random_point(rng: &mut StdRng, scale: f64, existing: &[Vec3]) -> Vec3 {
    if !existing.is_empty() && rng.gen_range(0..8) == 0 {
        return existing[rng.gen_range(0..existing.len())];
    }
    Vec3::new(
        rng.gen_range(-scale..scale),
        rng.gen_range(-scale..scale),
        rng.gen_range(-scale..scale),
    )
}

/// Queries `index` at `query` and checks both answers against the linear
/// references over `points`.
fn check_queries(
    index: &NnIndex,
    points: &[Vec3],
    query: Vec3,
    radius: f64,
    out: &mut Vec<usize>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(index.nearest(query), linear_nearest(points, query), "nearest diverged");
    index.within_radius(query, radius, out);
    prop_assert_eq!(&*out, &linear_within(points, query, radius), "radius query diverged");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random insert sequences interleaved with nearest/radius queries: the
    /// index agrees with the linear references after every insert, across
    /// bounds scales, cell sizes and boxes that leave some points (and
    /// queries) outside — the overflow chain — or cover them all.  Trees
    /// grow past the linear-scan cutoff, so the shell walk is exercised.
    /// The same `NnIndex` instance is then reset with a different cell size
    /// and box and refilled for a second round (the pooled-reuse path).
    #[test]
    fn index_queries_match_linear_scans(
        point_seed in 0u64..10_000,
        cell_size in 0.4f64..6.0,
        scale in 4.0f64..60.0,
        box_share in 0.3f64..1.3,
        count in 1usize..600,
    ) {
        let mut rng = StdRng::seed_from_u64(point_seed);
        let mut index = NnIndex::new();
        let mut out = Vec::new();
        for round in 0..2 {
            let half = Vec3::splat(scale * box_share);
            let shift = random_point(&mut rng, scale * 0.3, &[]);
            let cell = if round == 0 { cell_size } else { cell_size * 1.7 };
            index.reset(cell, Aabb::new(shift - half, shift + half));
            let mut points: Vec<Vec3> = Vec::new();
            for _ in 0..count {
                let point = random_point(&mut rng, scale, &points);
                prop_assert_eq!(index.insert(point), points.len());
                points.push(point);
                // Query near the newest point (dense neighbourhoods) and at
                // an unrelated location (possibly far from every node).
                let near = point + Vec3::new(0.3, -0.6, 0.2);
                let far = random_point(&mut rng, scale * 1.5, &[]);
                for query in [near, far] {
                    let radius = rng.gen_range(0.0..scale * 0.4);
                    check_queries(&index, &points, query, radius, &mut out)?;
                }
            }
        }
    }

    /// Exact distance ties across the box edge: points and queries on the
    /// integer lattice (every distance computation is exact, so equal
    /// distances abound) straddle a box whose grid ends at x = -8 and
    /// x = 10, so equidistant nodes sit both in edge cells and on the
    /// overflow chain.  The lowest index must win `nearest` whichever side
    /// it is on, and inclusive radius ties must be kept on both sides.
    #[test]
    fn lattice_ties_across_the_box_edge_match_linear_scans(
        point_seed in 0u64..10_000,
        count in 200usize..500,
    ) {
        let mut rng = StdRng::seed_from_u64(point_seed);
        let lattice = |rng: &mut StdRng, x: std::ops::Range<i32>| {
            Vec3::new(
                f64::from(rng.gen_range(x)),
                f64::from(rng.gen_range(-4..5)),
                f64::from(rng.gen_range(-4..5)),
            )
        };
        let mut index = NnIndex::new();
        // Cell 2 m over [-8, 8]³: cells -4..=4, so the grid spans
        // x ∈ [-8, 10) and everything from x = 10 (or below -8) overflows.
        index.reset(2.0, Aabb::new(Vec3::splat(-8.0), Vec3::splat(8.0)));
        let mut points = Vec::new();
        let mut out = Vec::new();
        for _ in 0..count {
            let point = lattice(&mut rng, -13..16);
            index.insert(point);
            points.push(point);
        }
        for _ in 0..64 {
            let edge = if rng.gen_bool(0.5) { -8 } else { 10 };
            let query = lattice(&mut rng, edge - 2..edge + 3);
            let radius = f64::from(rng.gen_range(0..5));
            check_queries(&index, &points, query, radius, &mut out)?;
        }
    }
}

/// The environments the planner equivalence sweep draws from (Dense is
/// covered by the deterministic test below; linear RRT* on Dense costs
/// hundreds of milliseconds per case).
const KINDS: [EnvironmentKind; 3] =
    [EnvironmentKind::Sparse, EnvironmentKind::Farm, EnvironmentKind::Factory];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The spatial index is inert: every RRT-family planner plans
    /// bit-identical paths with the index enabled and disabled, including
    /// on the second plan from the same instance (warm pooled index, stepped
    /// RNG) — independent of the RRT* cost-propagation fix, which is active
    /// on both sides.  Each problem is planned twice: with the start and
    /// goal inside `PlannerConfig::bounds`, and with sampling bounds that
    /// leave both more than one index cell outside along x, so the index
    /// keeps them, and the nodes steered from them, on its overflow chain.
    #[test]
    fn indexed_planners_match_linear_planners(
        kind_index in 0usize..KINDS.len(),
        env_seed in 0u64..50,
        planner_seed in 0u64..1000,
    ) {
        let env = KINDS[kind_index].build(env_seed);
        let inside = PlannerConfig::for_bounds(env.bounds()).with_seed(planner_seed);
        let (bounds, start, goal) = (env.bounds(), env.start(), env.goal());
        let inset = 1.2 * inside.rewire_radius;
        let outside = PlannerConfig {
            bounds: Aabb::new(
                Vec3::new(start.x.min(goal.x) + inset, bounds.min.y, bounds.min.z),
                Vec3::new(start.x.max(goal.x) - inset, bounds.max.y, bounds.max.z),
            ),
            ..inside
        };
        prop_assert!(!outside.bounds.contains(start) && !outside.bounds.contains(goal));
        for config in [inside, outside] {
            for algorithm in PlannerAlgorithm::ALL {
                let mut indexed = algorithm.instantiate(config);
                let mut linear = algorithm.instantiate(config);
                linear.set_spatial_index_enabled(false);
                for (start, goal) in [(start, goal), (goal, start)] {
                    prop_assert_eq!(
                        plan(&mut *indexed, &env, start, goal),
                        plan(&mut *linear, &env, start, goal),
                        "{:?} diverged on {}/{} (bounds {:?})",
                        algorithm,
                        env.name(),
                        planner_seed,
                        config.bounds
                    );
                }
            }
        }
    }
}
