//! Inter-kernel state types exchanged between the PPC stages, and the
//! 13-dimensional monitored state vector the detectors supervise.

use mavfi_sim::geometry::Vec3;
use mavfi_sim::vehicle::FlightCommand;
use serde::{Deserialize, Serialize};

/// The three stages of the perception-planning-control pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Sensing and obstacle understanding.
    Perception,
    /// Path and trajectory generation.
    Planning,
    /// Trajectory tracking and command issue.
    Control,
}

impl Stage {
    /// Number of stages (the length of [`Stage::ALL`]).
    pub const COUNT: usize = 3;

    /// All stages, in pipeline order.
    pub const ALL: [Self; Self::COUNT] = [Self::Perception, Self::Planning, Self::Control];

    /// The stage's position in [`Stage::ALL`]: the canonical dense index
    /// used by array-backed per-stage counters instead of hashing.
    pub const fn index(self) -> usize {
        match self {
            Self::Perception => 0,
            Self::Planning => 1,
            Self::Control => 2,
        }
    }

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Perception => "Perception",
            Self::Planning => "Planning",
            Self::Control => "Control",
        }
    }
}

/// A point cloud in the world frame, the output of the point-cloud
/// generation kernel.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointCloud {
    /// Points in the world frame.
    pub points: Vec<Vec3>,
}

impl PointCloud {
    /// Creates a point cloud from points.
    pub fn new(points: Vec<Vec3>) -> Self {
        Self { points }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the cloud contains no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// Output of the collision-check kernel: the perception-stage inter-kernel
/// state corrupted in the paper's Fig. 4 (`time_to_collision`,
/// `future_collision_seq`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionEstimate {
    /// Estimated seconds until the vehicle hits the nearest obstacle along
    /// its velocity vector; `f64::INFINITY` when the path ahead is clear.
    pub time_to_collision: f64,
    /// Index (sequence number) of the first future trajectory way-point that
    /// is predicted to be in collision; negative when none is.
    pub future_collision_seq: f64,
    /// Whether an obstacle currently blocks the direction of travel inside
    /// the safety horizon.
    pub obstacle_ahead: bool,
}

impl Default for CollisionEstimate {
    fn default() -> Self {
        Self { time_to_collision: f64::INFINITY, future_collision_seq: -1.0, obstacle_ahead: false }
    }
}

/// One multi-degree-of-freedom trajectory point ("multidoftraj" in the
/// paper's ROS graph): position, yaw and the velocity the vehicle should
/// carry through the way-point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Waypoint {
    /// Target position (m).
    pub position: Vec3,
    /// Target yaw (rad).
    pub yaw: f64,
    /// Desired velocity through the way-point (m/s).
    pub velocity: Vec3,
}

/// A time-ordered sequence of way-points, the planning-stage output.
#[derive(Debug, PartialEq, Default)]
pub struct Trajectory {
    /// Way-points in flight order.
    pub waypoints: Vec<Waypoint>,
}

/// `clone_from` reuses the target's storage (see `PpcPipeline`'s `Clone`).
impl Clone for Trajectory {
    fn clone(&self) -> Self {
        Self { waypoints: self.waypoints.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.waypoints.clone_from(&source.waypoints);
    }
}

impl Trajectory {
    /// Creates a trajectory from way-points.
    pub fn new(waypoints: Vec<Waypoint>) -> Self {
        Self { waypoints }
    }

    /// Number of way-points.
    pub fn len(&self) -> usize {
        self.waypoints.len()
    }

    /// Returns `true` when the trajectory has no way-points.
    pub fn is_empty(&self) -> bool {
        self.waypoints.is_empty()
    }

    /// Total path length along the way-points (m).
    pub fn path_length(&self) -> f64 {
        self.waypoints.windows(2).map(|pair| pair[0].position.distance(pair[1].position)).sum()
    }

    /// Index of the way-point closest to `position`.
    pub fn closest_index(&self, position: Vec3) -> Option<usize> {
        self.waypoints
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.position
                    .distance(position)
                    .partial_cmp(&b.position.distance(position))
                    .expect("way-point distances are finite")
            })
            .map(|(index, _)| index)
    }
}

/// The identifiers of the 13 monitored inter-kernel scalar states.
///
/// These are the fields the paper's Fig. 4 corrupts individually and the 13
/// inputs of the AAD autoencoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum StateField {
    /// Perception: estimated time to collision (s).
    TimeToCollision,
    /// Perception: index of the first colliding future way-point.
    FutureCollisionSeq,
    /// Planning: active way-point X (m).
    WaypointX,
    /// Planning: active way-point Y (m).
    WaypointY,
    /// Planning: active way-point Z (m).
    WaypointZ,
    /// Planning: active way-point yaw (rad).
    WaypointYaw,
    /// Planning: way-point velocity X (m/s).
    WaypointVx,
    /// Planning: way-point velocity Y (m/s).
    WaypointVy,
    /// Planning: way-point velocity Z (m/s).
    WaypointVz,
    /// Control: commanded velocity X (m/s).
    CommandVx,
    /// Control: commanded velocity Y (m/s).
    CommandVy,
    /// Control: commanded velocity Z (m/s).
    CommandVz,
    /// Control: commanded yaw rate (rad/s).
    CommandYawRate,
}

impl StateField {
    /// Every monitored field, in the fixed order used by the detectors.
    pub const ALL: [Self; 13] = [
        Self::TimeToCollision,
        Self::FutureCollisionSeq,
        Self::WaypointX,
        Self::WaypointY,
        Self::WaypointZ,
        Self::WaypointYaw,
        Self::WaypointVx,
        Self::WaypointVy,
        Self::WaypointVz,
        Self::CommandVx,
        Self::CommandVy,
        Self::CommandVz,
        Self::CommandYawRate,
    ];

    /// The pipeline stage that produces this field.
    pub fn stage(self) -> Stage {
        match self {
            Self::TimeToCollision | Self::FutureCollisionSeq => Stage::Perception,
            Self::WaypointX
            | Self::WaypointY
            | Self::WaypointZ
            | Self::WaypointYaw
            | Self::WaypointVx
            | Self::WaypointVy
            | Self::WaypointVz => Stage::Planning,
            Self::CommandVx | Self::CommandVy | Self::CommandVz | Self::CommandYawRate => {
                Stage::Control
            }
        }
    }

    /// Position of the field inside [`MonitoredStates::as_array`].
    pub fn index(self) -> usize {
        Self::ALL.iter().position(|field| *field == self).expect("field is in ALL")
    }

    /// Short snake_case name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::TimeToCollision => "time_to_collision",
            Self::FutureCollisionSeq => "future_collision_seq",
            Self::WaypointX => "waypoint_x",
            Self::WaypointY => "waypoint_y",
            Self::WaypointZ => "waypoint_z",
            Self::WaypointYaw => "waypoint_yaw",
            Self::WaypointVx => "waypoint_vx",
            Self::WaypointVy => "waypoint_vy",
            Self::WaypointVz => "waypoint_vz",
            Self::CommandVx => "command_vx",
            Self::CommandVy => "command_vy",
            Self::CommandVz => "command_vz",
            Self::CommandYawRate => "command_yaw_rate",
        }
    }
}

/// Snapshot of the 13 monitored inter-kernel states for one pipeline tick.
///
/// This is the value the anomaly detectors consume (after preprocessing) and
/// the value whose fields the state-level fault injector corrupts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MonitoredStates {
    /// Perception-stage collision estimate.
    pub collision: CollisionEstimate,
    /// Planning-stage active way-point.
    pub waypoint: Waypoint,
    /// Control-stage flight command.
    pub command: FlightCommand,
}

impl MonitoredStates {
    /// Number of monitored scalar fields.
    pub const DIM: usize = 13;

    /// Reads a field by identifier.
    pub fn field(&self, field: StateField) -> f64 {
        match field {
            StateField::TimeToCollision => self.collision.time_to_collision,
            StateField::FutureCollisionSeq => self.collision.future_collision_seq,
            StateField::WaypointX => self.waypoint.position.x,
            StateField::WaypointY => self.waypoint.position.y,
            StateField::WaypointZ => self.waypoint.position.z,
            StateField::WaypointYaw => self.waypoint.yaw,
            StateField::WaypointVx => self.waypoint.velocity.x,
            StateField::WaypointVy => self.waypoint.velocity.y,
            StateField::WaypointVz => self.waypoint.velocity.z,
            StateField::CommandVx => self.command.velocity.x,
            StateField::CommandVy => self.command.velocity.y,
            StateField::CommandVz => self.command.velocity.z,
            StateField::CommandYawRate => self.command.yaw_rate,
        }
    }

    /// Writes a field by identifier.
    pub fn set_field(&mut self, field: StateField, value: f64) {
        match field {
            StateField::TimeToCollision => self.collision.time_to_collision = value,
            StateField::FutureCollisionSeq => self.collision.future_collision_seq = value,
            StateField::WaypointX => self.waypoint.position.x = value,
            StateField::WaypointY => self.waypoint.position.y = value,
            StateField::WaypointZ => self.waypoint.position.z = value,
            StateField::WaypointYaw => self.waypoint.yaw = value,
            StateField::WaypointVx => self.waypoint.velocity.x = value,
            StateField::WaypointVy => self.waypoint.velocity.y = value,
            StateField::WaypointVz => self.waypoint.velocity.z = value,
            StateField::CommandVx => self.command.velocity.x = value,
            StateField::CommandVy => self.command.velocity.y = value,
            StateField::CommandVz => self.command.velocity.z = value,
            StateField::CommandYawRate => self.command.yaw_rate = value,
        }
    }

    /// Returns the 13 monitored values in the canonical [`StateField::ALL`]
    /// order.  Non-finite values (for example an infinite time-to-collision
    /// on a clear path) are squashed to a large sentinel so that downstream
    /// statistics stay well defined.
    pub fn as_array(&self) -> [f64; Self::DIM] {
        let mut values = [0.0; Self::DIM];
        for (slot, field) in values.iter_mut().zip(StateField::ALL) {
            let raw = self.field(field);
            *slot = if raw.is_finite() { raw } else { raw.signum() * 1.0e6 };
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_round_trip_for_every_field() {
        let mut states = MonitoredStates::default();
        for (i, field) in StateField::ALL.into_iter().enumerate() {
            states.set_field(field, i as f64 + 0.5);
        }
        for (i, field) in StateField::ALL.into_iter().enumerate() {
            assert_eq!(states.field(field), i as f64 + 0.5, "{field:?}");
            assert_eq!(field.index(), i);
        }
    }

    #[test]
    fn field_stages_cover_all_three_stages() {
        let mut perception = 0;
        let mut planning = 0;
        let mut control = 0;
        for field in StateField::ALL {
            match field.stage() {
                Stage::Perception => perception += 1,
                Stage::Planning => planning += 1,
                Stage::Control => control += 1,
            }
        }
        assert_eq!(perception, 2);
        assert_eq!(planning, 7);
        assert_eq!(control, 4);
        assert_eq!(perception + planning + control, MonitoredStates::DIM);
    }

    #[test]
    fn as_array_squashes_non_finite_values() {
        let states = MonitoredStates::default();
        let array = states.as_array();
        assert_eq!(array.len(), 13);
        assert!(array.iter().all(|v| v.is_finite()));
        assert_eq!(array[StateField::TimeToCollision.index()], 1.0e6);
    }

    #[test]
    fn trajectory_metrics() {
        let trajectory = Trajectory::new(vec![
            Waypoint { position: Vec3::ZERO, ..Waypoint::default() },
            Waypoint { position: Vec3::new(3.0, 4.0, 0.0), ..Waypoint::default() },
            Waypoint { position: Vec3::new(3.0, 4.0, 5.0), ..Waypoint::default() },
        ]);
        assert_eq!(trajectory.len(), 3);
        assert!((trajectory.path_length() - 10.0).abs() < 1e-12);
        assert_eq!(trajectory.closest_index(Vec3::new(2.9, 4.0, 0.1)), Some(1));
        assert_eq!(Trajectory::default().closest_index(Vec3::ZERO), None);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            StateField::ALL.iter().map(|f| f.label()).collect();
        assert_eq!(labels.len(), StateField::ALL.len());
        assert_eq!(Stage::Perception.label(), "Perception");
    }

    #[test]
    fn collision_estimate_default_is_clear() {
        let estimate = CollisionEstimate::default();
        assert!(!estimate.obstacle_ahead);
        assert!(estimate.time_to_collision.is_infinite());
        assert_eq!(estimate.future_collision_seq, -1.0);
    }
}
