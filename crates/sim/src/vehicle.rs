//! Quadrotor kinematics: the simulated MAV body driven by flight commands.

use serde::{Deserialize, Serialize};

use crate::geometry::{wrap_angle, Pose, Vec3};

/// A velocity-setpoint flight command, the actuator-facing output of the
/// control stage (the paper's corrupted `vx, vy, vz` plus yaw fields live
/// here).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlightCommand {
    /// Commanded linear velocity in the world frame (m/s).
    pub velocity: Vec3,
    /// Commanded yaw rate (rad/s).
    pub yaw_rate: f64,
}

impl FlightCommand {
    /// A command that holds position (zero velocity, zero yaw rate).
    pub const HOLD: Self = Self { velocity: Vec3::ZERO, yaw_rate: 0.0 };

    /// Creates a command from a velocity setpoint and yaw rate.
    pub fn new(velocity: Vec3, yaw_rate: f64) -> Self {
        Self { velocity, yaw_rate }
    }

    /// Returns `true` if every field is finite (corrupted commands routinely
    /// contain NaN or infinities after exponent bit flips).
    pub fn is_finite(&self) -> bool {
        self.velocity.is_finite() && self.yaw_rate.is_finite()
    }
}

/// Physical limits and geometry of the simulated quadrotor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuadrotorParams {
    /// Maximum linear speed (m/s).
    pub max_speed: f64,
    /// Maximum linear acceleration (m/s²).
    pub max_accel: f64,
    /// Maximum yaw rate (rad/s).
    pub max_yaw_rate: f64,
    /// Collision radius of the airframe (m).
    pub radius: f64,
    /// Vehicle mass (kg); used by the energy model.
    pub mass: f64,
}

impl Default for QuadrotorParams {
    fn default() -> Self {
        Self { max_speed: 6.0, max_accel: 4.0, max_yaw_rate: 1.5, radius: 0.4, mass: 1.0 }
    }
}

/// Kinematic state of the quadrotor.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QuadrotorState {
    /// Position in the world frame (m).
    pub position: Vec3,
    /// Velocity in the world frame (m/s).
    pub velocity: Vec3,
    /// Yaw angle (rad).
    pub yaw: f64,
}

/// The simulated quadrotor: an acceleration- and speed-limited point mass
/// with yaw, sufficient to close the perception-planning-control loop.
///
/// # Examples
///
/// ```
/// use mavfi_sim::geometry::Vec3;
/// use mavfi_sim::vehicle::{FlightCommand, Quadrotor, QuadrotorParams};
///
/// let mut quad = Quadrotor::new(Vec3::ZERO, 0.0, QuadrotorParams::default());
/// let forward = FlightCommand::new(Vec3::new(2.0, 0.0, 0.0), 0.0);
/// for _ in 0..100 {
///     quad.step(&forward, 0.05);
/// }
/// assert!(quad.state().position.x > 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Quadrotor {
    state: QuadrotorState,
    params: QuadrotorParams,
}

impl Quadrotor {
    /// Creates a quadrotor at rest at `position` with heading `yaw`.
    pub fn new(position: Vec3, yaw: f64, params: QuadrotorParams) -> Self {
        Self { state: QuadrotorState { position, velocity: Vec3::ZERO, yaw }, params }
    }

    /// Current kinematic state.
    pub fn state(&self) -> QuadrotorState {
        self.state
    }

    /// Physical parameters.
    pub fn params(&self) -> QuadrotorParams {
        self.params
    }

    /// Current pose (position + yaw).
    pub fn pose(&self) -> Pose {
        Pose::new(self.state.position, self.state.yaw)
    }

    /// Current speed (m/s).
    pub fn speed(&self) -> f64 {
        self.state.velocity.norm()
    }

    /// Advances the vehicle by `dt` seconds while tracking `command`.
    ///
    /// Non-finite commands (a common manifestation of exponent bit flips)
    /// are treated as a hold command by the low-level flight controller,
    /// mirroring the PX4-style sanity rejection of malformed setpoints.
    pub fn step(&mut self, command: &FlightCommand, dt: f64) {
        assert!(dt > 0.0 && dt.is_finite(), "time step must be positive and finite");
        let command = if command.is_finite() { *command } else { FlightCommand::HOLD };

        let desired = command.velocity.clamp_norm(self.params.max_speed);
        let delta = desired - self.state.velocity;
        let max_delta = self.params.max_accel * dt;
        let applied = delta.clamp_norm(max_delta);
        self.state.velocity = (self.state.velocity + applied).clamp_norm(self.params.max_speed);
        self.state.position += self.state.velocity * dt;

        let yaw_rate = command.yaw_rate.clamp(-self.params.max_yaw_rate, self.params.max_yaw_rate);
        self.state.yaw = wrap_angle(self.state.yaw + yaw_rate * dt);
    }

    /// Teleports the vehicle (used when resetting a mission).
    pub fn reset(&mut self, position: Vec3, yaw: f64) {
        self.state = QuadrotorState { position, velocity: Vec3::ZERO, yaw };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accelerates_towards_setpoint_with_limits() {
        let params =
            QuadrotorParams { max_accel: 2.0, max_speed: 4.0, ..QuadrotorParams::default() };
        let mut quad = Quadrotor::new(Vec3::ZERO, 0.0, params);
        let command = FlightCommand::new(Vec3::new(10.0, 0.0, 0.0), 0.0);
        quad.step(&command, 0.5);
        // Acceleration limit: at most 2.0 * 0.5 = 1.0 m/s gained.
        assert!((quad.speed() - 1.0).abs() < 1e-9);
        for _ in 0..100 {
            quad.step(&command, 0.5);
        }
        // Speed limit: capped at 4 m/s even though 10 m/s was commanded.
        assert!((quad.speed() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn yaw_rate_is_clamped_and_wrapped() {
        let mut quad = Quadrotor::new(Vec3::ZERO, 0.0, QuadrotorParams::default());
        let command = FlightCommand::new(Vec3::ZERO, 100.0);
        for _ in 0..100 {
            quad.step(&command, 0.1);
        }
        let yaw = quad.state().yaw;
        assert!(yaw > -std::f64::consts::PI && yaw <= std::f64::consts::PI);
    }

    #[test]
    fn non_finite_command_is_treated_as_hold() {
        let mut quad = Quadrotor::new(Vec3::new(1.0, 2.0, 3.0), 0.3, QuadrotorParams::default());
        let bad = FlightCommand::new(Vec3::new(f64::NAN, 0.0, 0.0), f64::INFINITY);
        quad.step(&bad, 0.1);
        let state = quad.state();
        assert!(state.position.is_finite());
        assert!(state.velocity.is_finite());
        assert_eq!(state.velocity, Vec3::ZERO);
    }

    #[test]
    fn reset_restores_rest_state() {
        let mut quad = Quadrotor::new(Vec3::ZERO, 0.0, QuadrotorParams::default());
        quad.step(&FlightCommand::new(Vec3::new(1.0, 1.0, 0.0), 0.1), 0.5);
        quad.reset(Vec3::new(5.0, 5.0, 1.0), 1.0);
        assert_eq!(quad.state().position, Vec3::new(5.0, 5.0, 1.0));
        assert_eq!(quad.speed(), 0.0);
        assert_eq!(quad.pose().yaw, 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dt_panics() {
        let mut quad = Quadrotor::new(Vec3::ZERO, 0.0, QuadrotorParams::default());
        quad.step(&FlightCommand::HOLD, 0.0);
    }
}
