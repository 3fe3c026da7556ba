//! Conversion of geometric paths into time-parameterised trajectories
//! ("multidoftraj" messages in the paper's ROS graph).

use mavfi_sim::geometry::Vec3;

use crate::planning::space::PlannedPath;
use crate::states::{Trajectory, Waypoint};

/// Generates velocity- and yaw-annotated way-points from a geometric path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrajectoryGenerator {
    /// Cruise speed assigned to intermediate way-points (m/s).
    pub cruise_speed: f64,
    /// Spacing between resampled way-points (m).
    pub waypoint_spacing: f64,
}

impl Default for TrajectoryGenerator {
    fn default() -> Self {
        Self { cruise_speed: 4.0, waypoint_spacing: 2.0 }
    }
}

impl TrajectoryGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is not positive and finite.
    pub fn new(cruise_speed: f64, waypoint_spacing: f64) -> Self {
        assert!(cruise_speed > 0.0 && cruise_speed.is_finite(), "cruise speed must be positive");
        assert!(
            waypoint_spacing > 0.0 && waypoint_spacing.is_finite(),
            "way-point spacing must be positive"
        );
        Self { cruise_speed, waypoint_spacing }
    }

    /// Converts a path into a trajectory in caller-provided buffers:
    /// `positions` is resampling scratch, `out` receives the trajectory.
    /// Both reuse their storage across calls (allocation-free once at
    /// capacity).  Empty paths produce empty trajectories.
    pub fn run_into(&self, path: &PlannedPath, positions: &mut Vec<Vec3>, out: &mut Trajectory) {
        out.waypoints.clear();
        if path.is_empty() {
            return;
        }
        // Resample the polyline at roughly uniform spacing.
        positions.clear();
        positions.push(path.waypoints[0]);
        for pair in path.waypoints.windows(2) {
            let (from, to) = (pair[0], pair[1]);
            let length = from.distance(to);
            let segments = (length / self.waypoint_spacing).ceil().max(1.0) as usize;
            for i in 1..=segments {
                positions.push(from.lerp(to, i as f64 / segments as f64));
            }
        }

        for (index, &position) in positions.iter().enumerate() {
            let direction = if index + 1 < positions.len() {
                positions[index + 1] - position
            } else if index > 0 {
                position - positions[index - 1]
            } else {
                Vec3::ZERO
            };
            let (velocity, yaw) = match direction.normalized() {
                Some(unit) => {
                    let speed = if index + 1 == positions.len() { 0.0 } else { self.cruise_speed };
                    (unit * speed, unit.heading())
                }
                None => (Vec3::ZERO, 0.0),
            };
            out.waypoints.push(Waypoint { position, yaw, velocity });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(generator: TrajectoryGenerator, path: &PlannedPath) -> Trajectory {
        let mut trajectory = Trajectory::default();
        generator.run_into(path, &mut Vec::new(), &mut trajectory);
        trajectory
    }

    #[test]
    fn empty_path_gives_empty_trajectory() {
        let generator = TrajectoryGenerator::default();
        assert!(run(generator, &PlannedPath::default()).is_empty());
    }

    #[test]
    fn resampling_respects_spacing_and_endpoints() {
        let generator = TrajectoryGenerator::new(3.0, 2.0);
        let path = PlannedPath::new(vec![Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)]);
        let trajectory = run(generator, &path);
        assert_eq!(trajectory.waypoints.first().unwrap().position, Vec3::ZERO);
        assert_eq!(trajectory.waypoints.last().unwrap().position, Vec3::new(10.0, 0.0, 0.0));
        assert!(trajectory.len() >= 6);
        for pair in trajectory.waypoints.windows(2) {
            assert!(pair[0].position.distance(pair[1].position) <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn intermediate_waypoints_carry_cruise_speed_and_final_is_zero() {
        let generator = TrajectoryGenerator::new(4.0, 2.5);
        let path = PlannedPath::new(vec![Vec3::ZERO, Vec3::new(0.0, 10.0, 0.0)]);
        let trajectory = run(generator, &path);
        let first = &trajectory.waypoints[0];
        assert!((first.velocity.norm() - 4.0).abs() < 1e-9);
        assert!((first.yaw - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
        assert_eq!(trajectory.waypoints.last().unwrap().velocity, Vec3::ZERO);
    }

    #[test]
    fn path_length_is_preserved_by_resampling() {
        let generator = TrajectoryGenerator::default();
        let path =
            PlannedPath::new(vec![Vec3::ZERO, Vec3::new(5.0, 0.0, 0.0), Vec3::new(5.0, 5.0, 0.0)]);
        let trajectory = run(generator, &path);
        assert!((trajectory.path_length() - path.length()).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn invalid_spacing_panics() {
        let _ = TrajectoryGenerator::new(1.0, 0.0);
    }
}
