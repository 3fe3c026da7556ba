//! Property-based tests of the PPC substrate: monitored states, occupancy
//! mapping, trajectories and the planners' path contract.

use mavfi_ppc::perception::occupancy::OccupancyGrid;
use mavfi_ppc::planning::{MotionPlanner, PlannedPath, PlannerAlgorithm, PlannerConfig};
use mavfi_ppc::states::{MonitoredStates, StateField, Trajectory, Waypoint};
use mavfi_sim::geometry::{Aabb, Vec3};
use proptest::prelude::*;

fn finite_vec3() -> impl Strategy<Value = Vec3> {
    (-500.0f64..500.0, -500.0f64..500.0, -50.0f64..50.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

proptest! {
    /// Writing then reading every monitored field round-trips exactly.
    #[test]
    fn monitored_state_field_roundtrip(values in proptest::collection::vec(-1.0e9f64..1.0e9, 13)) {
        let mut states = MonitoredStates::default();
        for (field, value) in StateField::ALL.into_iter().zip(&values) {
            states.set_field(field, *value);
        }
        for (field, value) in StateField::ALL.into_iter().zip(&values) {
            prop_assert_eq!(states.field(field), *value);
        }
        let array = states.as_array();
        for field in StateField::ALL {
            prop_assert_eq!(array[field.index()], values[field.index()]);
        }
    }

    /// The occupancy grid reports occupied exactly the voxels whose points
    /// were inserted (for well-separated points).
    #[test]
    fn occupancy_grid_roundtrip(points in proptest::collection::vec(finite_vec3(), 1..50)) {
        let mut grid = OccupancyGrid::new(0.5);
        for point in &points {
            grid.insert_point(*point);
        }
        prop_assert!(grid.occupied_count() <= points.len());
        for point in &points {
            prop_assert!(grid.is_occupied(*point));
            // The voxel key of its own centre maps back to the same voxel.
            let key = grid.key_for(*point);
            prop_assert_eq!(grid.key_for(grid.voxel_center(key)), key);
        }
    }

    /// Clearing a voxel that was set removes exactly that voxel.
    #[test]
    fn set_voxel_is_consistent(point in finite_vec3()) {
        let mut grid = OccupancyGrid::new(0.5);
        let key = grid.key_for(point);
        prop_assert!(!grid.set_voxel(key, true));
        prop_assert!(grid.is_occupied(point));
        prop_assert!(grid.set_voxel(key, false));
        prop_assert!(!grid.is_occupied(point));
        prop_assert!(grid.is_empty());
    }

    /// Trajectory path length is at least the straight-line distance between
    /// its endpoints and exactly the sum of segment lengths.
    #[test]
    fn trajectory_length_bounds(points in proptest::collection::vec(finite_vec3(), 2..20)) {
        let trajectory = Trajectory::new(
            points.iter().map(|p| Waypoint { position: *p, ..Waypoint::default() }).collect(),
        );
        let direct = points.first().unwrap().distance(*points.last().unwrap());
        prop_assert!(trajectory.path_length() >= direct - 1e-9);
        let closest = trajectory.closest_index(points[0]).unwrap();
        prop_assert!(trajectory.waypoints[closest].position.distance(points[0]) < 1e-9);
    }

    /// In an empty world every planner returns the straight segment between
    /// start and goal.
    #[test]
    fn planners_in_free_space_return_a_straight_line(
        start in finite_vec3(),
        goal in finite_vec3(),
    ) {
        let bounds = Aabb::new(Vec3::new(-600.0, -600.0, -60.0), Vec3::new(600.0, 600.0, 60.0));
        let grid = OccupancyGrid::new(0.5);
        for algorithm in PlannerAlgorithm::ALL {
            let mut planner = algorithm.instantiate(PlannerConfig::for_bounds(bounds));
            let mut path = PlannedPath::default();
            prop_assert!(
                planner.plan_into(&grid, start, goal, &mut path),
                "{:?}: free space is plannable",
                algorithm
            );
            prop_assert_eq!(&path.waypoints, &vec![start, goal], "{:?}", algorithm);
        }
    }

}

proptest! {
    // Planning around obstacles is comparatively expensive; fewer cases keep
    // the suite fast on small machines.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every planner finds a path around a single obstacle wall, and that
    /// path is collision-free and keeps its endpoints.
    #[test]
    fn planners_find_paths_that_avoid_obstacles(offset in -6.0f64..6.0, seed_z in 1.5f64..4.0) {
        let bounds = Aabb::new(Vec3::new(-20.0, -20.0, 0.0), Vec3::new(40.0, 40.0, 12.0));
        let mut grid = OccupancyGrid::new(0.5);
        for y in -24..=24 {
            for z in 0..=20 {
                grid.insert_point(Vec3::new(12.0, offset + y as f64 * 0.5, z as f64 * 0.5));
            }
        }
        let start = Vec3::new(0.0, offset, seed_z);
        let goal = Vec3::new(24.0, offset, seed_z);
        let config = PlannerConfig::for_bounds(bounds);
        for algorithm in PlannerAlgorithm::ALL {
            let mut planner = algorithm.instantiate(config);
            let mut path = PlannedPath::default();
            prop_assert!(planner.plan_into(&grid, start, goal, &mut path), "{:?}", algorithm);
            prop_assert!(path.is_collision_free(&grid, config.margin * 0.8), "{:?}", algorithm);
            prop_assert_eq!(path.waypoints.first().copied(), Some(start), "{:?}", algorithm);
            prop_assert_eq!(path.waypoints.last().copied(), Some(goal), "{:?}", algorithm);
        }
    }
}
