//! Property tests for the allocation-free replanning path
//! ([`MotionPlanner::plan_into`](mavfi_ppc::planning::MotionPlanner::plan_into)):
//! planning into a reused, dirty path is bit-identical to planning into a
//! fresh one across all three planners on randomized environments and
//! seeds, and equivalence of the revision-keyed collision-check cache with the uncached
//! kernel under arbitrary grid / trajectory mutation sequences.

use mavfi_ppc::perception::collision_check::CollisionChecker;
use mavfi_ppc::perception::occupancy::OccupancyGrid;
use mavfi_ppc::planning::{MotionPlanner, PlannedPath, PlannerAlgorithm, PlannerConfig};
use mavfi_ppc::states::{Trajectory, Waypoint};
use mavfi_sim::env::EnvironmentKind;
use mavfi_sim::geometry::Vec3;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The environments the equality sweep draws from (kept to the cheap kinds;
/// Dense planning costs tens of milliseconds per case).
const KINDS: [EnvironmentKind; 3] =
    [EnvironmentKind::Sparse, EnvironmentKind::Farm, EnvironmentKind::Factory];

proptest! {
    // Each case plans 3 planners × 2 problems twice; keep the suite fast on
    // one-core machines.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every planner, `plan_into` a reused, dirty path is bit-identical
    /// to `plan_into` a fresh path from a second instance — including on the
    /// *second* plan from the same instance, which exercises the pooled
    /// tree buffers and the clear-then-fill contract of the
    /// reused output path.
    #[test]
    fn plan_into_a_reused_path_matches_a_fresh_path(
        kind_index in 0usize..KINDS.len(),
        env_seed in 0u64..50,
        planner_seed in 0u64..1000,
    ) {
        let env = KINDS[kind_index].build(env_seed);
        let config = PlannerConfig::for_bounds(env.bounds()).with_seed(planner_seed);
        for algorithm in PlannerAlgorithm::ALL {
            let mut fresh = algorithm.instantiate(config);
            let mut pooled = algorithm.instantiate(config);
            // A dirty output buffer: stale content must never leak through.
            let mut out = PlannedPath::new(vec![Vec3::splat(77.0); 5]);

            // Two problems in sequence on the *same* instances: forward,
            // then backward (the backward one replans over warm buffers and
            // a stepped RNG, exactly like an in-mission replan).
            for (start, goal) in [(env.start(), env.goal()), (env.goal(), env.start())] {
                let mut reference = PlannedPath::default();
                let reference_found = fresh.plan_into(&env, start, goal, &mut reference);
                let found = pooled.plan_into(&env, start, goal, &mut out);
                prop_assert_eq!(
                    reference_found,
                    found,
                    "{:?} success diverged on {}/{}",
                    algorithm,
                    env.name(),
                    planner_seed
                );
                prop_assert_eq!(&reference, &out, "{:?} path diverged", algorithm);
                if !found {
                    prop_assert!(out.is_empty(), "{:?} failure must clear `out`", algorithm);
                }
            }
        }
    }
}

/// Deterministic pseudo-random waypoint inside the corridor the sweeps use.
fn random_waypoint(rng: &mut StdRng) -> Waypoint {
    Waypoint {
        position: Vec3::new(
            rng.gen_range(0.0..30.0),
            rng.gen_range(-5.0..5.0),
            rng.gen_range(0.5..4.0),
        ),
        ..Waypoint::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The revision-keyed cache equals the uncached kernel after *every*
    /// step of an arbitrary interleaving of grid mutations, trajectory
    /// mutations (revision bumped, as the pipeline's shadow compare
    /// guarantees) and repeated queries from a small pose set (repeats make
    /// the cache actually hit).
    #[test]
    fn collision_cache_equals_uncached_kernel_under_mutations(
        mutation_seed in 0u64..10_000,
        ops in proptest::collection::vec(0u8..6, 4..40),
    ) {
        let mut rng = StdRng::seed_from_u64(mutation_seed);
        let mut grid = OccupancyGrid::new(0.5);
        let mut cached = CollisionChecker::default();
        let uncached = CollisionChecker::default();
        let mut trajectory = Trajectory::new(
            (0..8).map(|_| random_waypoint(&mut rng)).collect(),
        );
        let mut revision = 0u64;

        // Seed obstacles across the corridor.
        for _ in 0..20 {
            grid.insert_point(random_waypoint(&mut rng).position);
        }

        let poses = [
            (Vec3::new(0.0, 0.0, 2.0), Vec3::new(3.0, 0.0, 0.0)),
            (Vec3::new(5.0, 1.0, 2.0), Vec3::new(2.0, 1.0, 0.0)),
        ];
        for (step, op) in ops.into_iter().enumerate() {
            match op {
                // Grid mutations: grow, flip off, or no-op re-observe.
                0 => grid.insert_point(random_waypoint(&mut rng).position),
                1 => {
                    let key = grid.key_for(random_waypoint(&mut rng).position);
                    grid.set_voxel(key, false);
                }
                // Trajectory mutation + the revision bump the pipeline's
                // shadow compare would perform.
                2 => {
                    let index = rng.gen_range(0..trajectory.len());
                    trajectory.waypoints[index] = random_waypoint(&mut rng);
                    revision += 1;
                }
                // Untouched round: the next query is a pure cache hit.
                _ => {}
            }
            let (position, velocity) = poses[step % poses.len()];
            let active_index = step % 4;
            let hit = cached.run_cached(
                &grid,
                position,
                velocity,
                &trajectory,
                revision,
                active_index,
            );
            let fresh = uncached.run(&grid, position, velocity, &trajectory, active_index);
            prop_assert_eq!(hit, fresh, "estimate diverged at step {}", step);
        }
    }
}
