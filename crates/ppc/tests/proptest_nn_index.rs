//! Property tests for the pooled flat-grid spatial index
//! ([`NnIndex`]): random insert sequences and queries must agree **exactly**
//! — on index *and* tie-break, and on every radius hit's distance bit for
//! bit — with the O(n) linear scans the RRT-family planners used before,
//! across bounds scales, cell (step-size) configs, boxes that leave points
//! outside (the overflow chain), points on cell faces and exact ties; and
//! the three planners themselves must produce bit-identical paths with the
//! index on and off, on ground-truth worlds and on the occupancy grids
//! missions actually plan on.

use mavfi_ppc::perception::occupancy::OccupancyGrid;
use mavfi_ppc::pipeline::{PpcConfig, PpcPipeline};
use mavfi_ppc::planning::{
    MotionPlanner, NnIndex, ObstacleModel, PlannedPath, PlannerAlgorithm, PlannerConfig,
};
use mavfi_ppc::tap::NoopTap;
use mavfi_sim::energy::PowerModel;
use mavfi_sim::env::EnvironmentKind;
use mavfi_sim::geometry::{Aabb, Vec3};
use mavfi_sim::sensors::{CaptureScratch, DepthCamera, DepthFrame};
use mavfi_sim::vehicle::QuadrotorParams;
use mavfi_sim::world::{MissionConfig, World};
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
    index: &mut NnIndex,
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

/// Radius query with distances, checked against the linear filter: the
/// same nodes, strictly ascending, each with exactly `Vec3::distance`'s
/// bits.
fn check_radius_hits(
    index: &mut NnIndex,
    points: &[Vec3],
    query: Vec3,
    radius: f64,
    nodes: &mut Vec<usize>,
    distances: &mut Vec<f64>,
) -> Result<(), TestCaseError> {
    index.within_radius_with_distances(query, radius, nodes, distances);
    prop_assert!(nodes.windows(2).all(|pair| pair[0] < pair[1]), "hits not ascending: {:?}", nodes);
    prop_assert_eq!(&*nodes, &linear_within(points, query, radius), "radius query diverged");
    prop_assert_eq!(distances.len(), nodes.len());
    for (&node, &distance) in nodes.iter().zip(distances.iter()) {
        prop_assert_eq!(
            distance.to_bits(),
            points[node].distance(query).to_bits(),
            "distance of node {} to {:?}",
            node,
            query
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Radius hits come back in ascending index order with bit-exact
    /// distances, and nothing carries over from one query to the next: a
    /// sequence of queries on one index alternates wide and narrow radii
    /// (zero included) and moves the query point, so a member or distance
    /// left over from a wider query would show up in a narrower one.
    #[test]
    fn radius_hits_ascend_with_exact_distances_and_no_carry_over(
        point_seed in 0u64..10_000,
        cell_size in 0.4f64..6.0,
        scale in 4.0f64..40.0,
        count in 1usize..500,
    ) {
        let mut rng = StdRng::seed_from_u64(point_seed);
        let mut index = NnIndex::new();
        index.reset(cell_size, Aabb::new(Vec3::splat(-scale), Vec3::splat(scale)));
        let mut points: Vec<Vec3> = Vec::new();
        for _ in 0..count {
            let point = random_point(&mut rng, scale * 1.2, &points);
            index.insert(point);
            points.push(point);
        }
        let (mut nodes, mut distances) = (Vec::new(), Vec::new());
        let mut indices_only = Vec::new();
        for _ in 0..24 {
            let query = if rng.gen_bool(0.5) {
                points[rng.gen_range(0..points.len())]
            } else {
                random_point(&mut rng, scale * 1.3, &[])
            };
            for radius in [scale, 0.0, rng.gen_range(0.0..scale * 0.5), scale * 0.1] {
                check_radius_hits(&mut index, &points, query, radius, &mut nodes, &mut distances)?;
                // The indices-only form agrees with the hits just returned.
                index.within_radius(query, radius, &mut indices_only);
                prop_assert_eq!(&indices_only, &nodes);
            }
        }
    }

    /// `nearest` and the radius queries on cell faces: points sit on the
    /// multiples `k * cell_size` or a few ulps off them, where
    /// `floor(p / cell_size)` can round a point into the neighbouring cell
    /// (just below a face at large negative `k`, or at `-5e-324`), so the
    /// cell bounds the queries prune with miss it by an ulp.  Every point
    /// is duplicated (exact ties, lowest index first), and queries sit
    /// exactly on points (zero distance), within 1e-9 of them, and on
    /// unoccupied lattice sites.  Trees pass the index's linear-scan cutoff,
    /// so the cell walk answers.
    #[test]
    fn cell_face_points_duplicates_and_tiny_distances_match_linear_scans(
        point_seed in 0u64..10_000,
        cell_index in 0usize..6,
        count in 150usize..300,
    ) {
        let cell_size = [0.1, 0.3, 0.7, 1.1, 2.5, 5.0][cell_index];
        let mut rng = StdRng::seed_from_u64(point_seed);
        let lattice = |rng: &mut StdRng| {
            let mut face = |cells: i32| {
                let multiple = f64::from(rng.gen_range(-cells..=cells)) * cell_size;
                // Up to four ulps either way (through zero, into subnormals).
                match rng.gen_range(-4..=4_i32) {
                    0 => multiple,
                    ulps if multiple == 0.0 => f64::from_bits(ulps.unsigned_abs().into())
                        .copysign(f64::from(ulps)),
                    ulps => f64::from_bits(multiple.to_bits().wrapping_add_signed(ulps.into())),
                }
            };
            Vec3::new(face(300), face(12), face(12))
        };
        let mut index = NnIndex::new();
        let half = Vec3::new(310.0, 13.0, 13.0) * cell_size;
        index.reset(cell_size, Aabb::new(-half, half));
        let mut points = Vec::new();
        for _ in 0..count {
            let point = lattice(&mut rng);
            for _ in 0..2 {
                index.insert(point);
                points.push(point);
            }
        }
        let (mut nodes, mut distances) = (Vec::new(), Vec::new());
        for _ in 0..48 {
            let on_point = points[rng.gen_range(0..points.len())];
            let nudge = Vec3::new(
                rng.gen_range(-1e-9..=1e-9),
                rng.gen_range(-1e-9..=1e-9),
                rng.gen_range(-1e-9..=1e-9),
            );
            for query in [on_point, on_point + nudge, lattice(&mut rng)] {
                prop_assert_eq!(
                    index.nearest(query),
                    linear_nearest(&points, query),
                    "nearest diverged at {:?} (cell {})",
                    query,
                    cell_size
                );
                for radius in [0.0, 1e-9, cell_size] {
                    check_radius_hits(
                        &mut index, &points, query, radius, &mut nodes, &mut distances,
                    )?;
                }
            }
        }
    }

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
                    check_queries(&mut index, &points, query, radius, &mut out)?;
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
            check_queries(&mut index, &points, query, radius, &mut out)?;
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
                        plan(&mut indexed, &env, start, goal),
                        plan(&mut linear, &env, start, goal),
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

/// Flies `ticks` ticks of a `kind` mission (seed `seed`) with the RRT*
/// pipeline and returns the occupancy grid the vehicle observed, its
/// position and the goal: a replan problem as a mission meets it.
fn observed_problem(kind: EnvironmentKind, seed: u64, ticks: u32) -> (OccupancyGrid, Vec3, Vec3) {
    let env = kind.build(seed);
    let goal = env.goal();
    let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), seed);
    let mut pipeline = PpcPipeline::new(config, env.start(), goal);
    let camera = DepthCamera::default();
    let mut world = World::new(
        env,
        QuadrotorParams::default(),
        PowerModel::default(),
        MissionConfig::default(),
    );
    let mut frame = DepthFrame::default();
    let mut scratch = CaptureScratch::new();
    for _ in 0..ticks {
        camera.capture_into(world.environment(), &world.vehicle().pose(), &mut scratch, &mut frame);
        let tick = pipeline.tick(&frame, &world.vehicle().state(), 0.1, &mut NoopTap);
        world.step(&tick.command, 0.1);
    }
    (pipeline.occupancy().clone(), world.vehicle().state().position, goal)
}

/// The spatial index is inert on the maps flights plan on: on occupancy
/// grids observed by Dense and Farm mission prefixes (each with the straight
/// line to the goal blocked, so every planner searches), indexed and linear
/// RRT, RRT-Connect and RRT* plan bit-identical paths over five consecutive
/// `plan_into` calls on one warm instance each.
#[test]
fn indexed_and_linear_planners_agree_on_observed_grids() {
    let mut solved = 0;
    for (kind, seed, ticks) in [
        (EnvironmentKind::Dense, 8_u64, 150),
        (EnvironmentKind::Dense, 12, 60),
        (EnvironmentKind::Farm, 2, 80),
    ] {
        let (grid, start, goal) = observed_problem(kind, seed, ticks);
        let config = PlannerConfig::for_bounds(kind.build(seed).bounds()).with_seed(seed);
        assert!(
            !ObstacleModel::segment_free(&grid, start, goal, config.margin),
            "{kind:?} seed {seed}: the observed straight line must be blocked"
        );
        for algorithm in PlannerAlgorithm::ALL {
            let mut indexed = algorithm.instantiate(config);
            let mut linear = algorithm.instantiate(config);
            linear.set_spatial_index_enabled(false);
            let (mut indexed_path, mut linear_path) =
                (PlannedPath::default(), PlannedPath::default());
            for call in 0..5 {
                let found = indexed.plan_into(&grid, start, goal, &mut indexed_path);
                assert_eq!(found, linear.plan_into(&grid, start, goal, &mut linear_path));
                let bits = |path: &PlannedPath| -> Vec<[u64; 3]> {
                    path.waypoints.iter().map(|p| [p.x, p.y, p.z].map(f64::to_bits)).collect()
                };
                assert_eq!(
                    bits(&indexed_path),
                    bits(&linear_path),
                    "{algorithm:?} diverged on {kind:?} seed {seed}, call {call}"
                );
                solved += usize::from(found);
            }
        }
    }
    assert!(solved >= 30, "most plans must succeed, not fail alike ({solved}/45)");
}
