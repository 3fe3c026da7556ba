//! Path-tracking kernel: selects the active way-point the controller should
//! chase.

use mavfi_sim::geometry::Vec3;

use crate::states::{Trajectory, Waypoint};

/// Configuration of the path tracker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathTrackerConfig {
    /// A way-point counts as reached when the vehicle is within this
    /// distance of it (m).
    pub arrival_tolerance: f64,
    /// Way-points closer than this to the vehicle are skipped in favour of
    /// the next one (look-ahead, m).
    pub lookahead: f64,
}

impl Default for PathTrackerConfig {
    fn default() -> Self {
        Self { arrival_tolerance: 1.2, lookahead: 2.0 }
    }
}

/// Tracks progress along the current trajectory and exposes the active
/// way-point.
#[derive(Debug, Clone, PartialEq)]
pub struct PathTracker {
    config: PathTrackerConfig,
    active_index: usize,
}

impl PathTracker {
    /// Creates a tracker at the beginning of a trajectory.
    pub fn new(config: PathTrackerConfig) -> Self {
        Self { config, active_index: 0 }
    }

    /// The tracker configuration.
    pub fn config(&self) -> PathTrackerConfig {
        self.config
    }

    /// Index of the way-point currently being tracked.
    pub fn active_index(&self) -> usize {
        self.active_index
    }

    /// Restarts tracking from the beginning (called after replanning).
    pub fn reset(&mut self) {
        self.active_index = 0;
    }

    /// Returns `true` when every way-point of `trajectory` has been passed.
    pub fn is_finished(&self, trajectory: &Trajectory) -> bool {
        self.active_index >= trajectory.len()
    }

    /// Advances past reached way-points and returns the one to track next,
    /// or `None` when the trajectory is exhausted or empty.
    pub fn target(&mut self, trajectory: &Trajectory, position: Vec3) -> Option<Waypoint> {
        while self.active_index < trajectory.len() {
            let waypoint = &trajectory.waypoints[self.active_index];
            let is_last = self.active_index + 1 == trajectory.len();
            let reach = if is_last { self.config.arrival_tolerance } else { self.config.lookahead };
            if position.distance(waypoint.position) <= reach {
                self.active_index += 1;
            } else {
                return Some(*waypoint);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn straight_trajectory() -> Trajectory {
        Trajectory::new(
            (0..5)
                .map(|i| Waypoint {
                    position: Vec3::new(i as f64 * 3.0, 0.0, 2.0),
                    ..Waypoint::default()
                })
                .collect(),
        )
    }

    #[test]
    fn advances_past_reached_waypoints() {
        let mut tracker = PathTracker::new(PathTrackerConfig::default());
        let trajectory = straight_trajectory();
        // Standing at the origin: the first way-point (distance 0) is
        // skipped, the second becomes the target.
        let target = tracker.target(&trajectory, Vec3::new(0.0, 0.0, 2.0)).unwrap();
        assert_eq!(target.position.x, 3.0);
        assert_eq!(tracker.active_index(), 1);
        // The target only advances when the vehicle actually nears it; a far
        // position does not skip way-points.
        let target = tracker.target(&trajectory, Vec3::new(11.0, 0.0, 2.0)).unwrap();
        assert_eq!(target.position.x, 3.0);
        // Approaching the active way-point advances to the next one.
        let target = tracker.target(&trajectory, Vec3::new(2.5, 0.0, 2.0)).unwrap();
        assert_eq!(target.position.x, 6.0);
        assert_eq!(tracker.active_index(), 2);
    }

    #[test]
    fn exhausted_trajectory_returns_none() {
        let mut tracker = PathTracker::new(PathTrackerConfig::default());
        let trajectory = straight_trajectory();
        // Fly along the path, arriving at every way-point in turn.
        for x in [0.0, 3.0, 6.0, 9.0, 12.0] {
            let _ = tracker.target(&trajectory, Vec3::new(x, 0.0, 2.0));
        }
        assert!(tracker.target(&trajectory, Vec3::new(12.0, 0.0, 2.0)).is_none());
        assert!(tracker.is_finished(&trajectory));
        tracker.reset();
        assert_eq!(tracker.active_index(), 0);
    }

    #[test]
    fn empty_trajectory_has_no_target() {
        let mut tracker = PathTracker::new(PathTrackerConfig::default());
        assert!(tracker.target(&Trajectory::default(), Vec3::ZERO).is_none());
    }
}
