//! PID command-issue kernel: turns the active way-point into a flight
//! command.

use mavfi_sim::geometry::{wrap_angle, Vec3};
use mavfi_sim::vehicle::{FlightCommand, QuadrotorState};

use crate::states::Waypoint;

/// PID gains and limits for the command-issue controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    /// Proportional gain on position error.
    pub kp: f64,
    /// Integral gain on position error.
    pub ki: f64,
    /// Derivative gain on position error.
    pub kd: f64,
    /// Proportional gain on yaw error.
    pub kp_yaw: f64,
    /// Commanded-speed ceiling (m/s).
    pub max_speed: f64,
    /// Anti-windup clamp on the integral term (m·s).
    pub integral_limit: f64,
}

impl Default for PidConfig {
    fn default() -> Self {
        Self { kp: 1.2, ki: 0.02, kd: 0.25, kp_yaw: 1.5, max_speed: 6.0, integral_limit: 4.0 }
    }
}

/// The PID controller closing the loop between the planned way-point and
/// the actuator-facing flight command.
///
/// # Examples
///
/// ```
/// use mavfi_ppc::control::{PidConfig, PidController};
/// use mavfi_ppc::states::Waypoint;
/// use mavfi_sim::geometry::Vec3;
/// use mavfi_sim::vehicle::QuadrotorState;
///
/// let mut pid = PidController::new(PidConfig::default());
/// let target = Waypoint { position: Vec3::new(5.0, 0.0, 2.0), ..Waypoint::default() };
/// let state = QuadrotorState::default();
/// let command = pid.run(&target, &state, 0.1);
/// assert!(command.velocity.x > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PidController {
    config: PidConfig,
    integral: Vec3,
    previous_error: Option<Vec3>,
}

impl PidController {
    /// Creates a controller with zeroed internal state.
    pub fn new(config: PidConfig) -> Self {
        Self { config, integral: Vec3::ZERO, previous_error: None }
    }

    /// The controller gains.
    pub fn config(&self) -> PidConfig {
        self.config
    }

    /// Clears the integral and derivative history (called after replans and
    /// recomputations so stale state does not leak across trajectories).
    pub fn reset(&mut self) {
        self.integral = Vec3::ZERO;
        self.previous_error = None;
    }

    /// Computes the flight command tracking `target` from `state`.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not positive and finite.
    pub fn run(&mut self, target: &Waypoint, state: &QuadrotorState, dt: f64) -> FlightCommand {
        assert!(dt > 0.0 && dt.is_finite(), "time step must be positive and finite");
        let error = target.position - state.position;
        self.integral = (self.integral + error * dt).clamp_norm(self.config.integral_limit);
        let derivative = match self.previous_error {
            Some(previous) => (error - previous) / dt,
            None => Vec3::ZERO,
        };
        self.previous_error = Some(error);

        let correction =
            error * self.config.kp + self.integral * self.config.ki + derivative * self.config.kd;
        let velocity = (target.velocity + correction).clamp_norm(self.config.max_speed);

        let desired_yaw = if target.velocity.norm() > 0.1 { target.yaw } else { error.heading() };
        let yaw_rate = self.config.kp_yaw * wrap_angle(desired_yaw - state.yaw);

        FlightCommand::new(velocity, yaw_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_points_towards_the_target() {
        let mut pid = PidController::new(PidConfig::default());
        let target = Waypoint { position: Vec3::new(0.0, 10.0, 2.0), ..Waypoint::default() };
        let state =
            QuadrotorState { position: Vec3::new(0.0, 0.0, 2.0), ..QuadrotorState::default() };
        let command = pid.run(&target, &state, 0.1);
        assert!(command.velocity.y > 0.0);
        assert!(command.velocity.norm() <= PidConfig::default().max_speed + 1e-9);
    }

    #[test]
    fn speed_is_clamped() {
        let config = PidConfig { kp: 100.0, max_speed: 3.0, ..PidConfig::default() };
        let mut pid = PidController::new(config);
        let target = Waypoint { position: Vec3::new(100.0, 0.0, 0.0), ..Waypoint::default() };
        let command = pid.run(&target, &QuadrotorState::default(), 0.1);
        assert!((command.velocity.norm() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn integral_is_bounded() {
        let config = PidConfig { ki: 1.0, integral_limit: 2.0, ..PidConfig::default() };
        let mut pid = PidController::new(config);
        let target = Waypoint { position: Vec3::new(50.0, 0.0, 0.0), ..Waypoint::default() };
        for _ in 0..1000 {
            pid.run(&target, &QuadrotorState::default(), 0.1);
        }
        // With the anti-windup clamp, the command stays finite and bounded.
        let command = pid.run(&target, &QuadrotorState::default(), 0.1);
        assert!(command.velocity.norm() <= config.max_speed + 1e-9);
    }

    #[test]
    fn yaw_rate_tracks_heading_error() {
        let mut pid = PidController::new(PidConfig::default());
        let target = Waypoint {
            position: Vec3::new(10.0, 0.0, 0.0),
            yaw: std::f64::consts::FRAC_PI_2,
            velocity: Vec3::new(0.0, 3.0, 0.0),
        };
        let state = QuadrotorState { yaw: 0.0, ..QuadrotorState::default() };
        let command = pid.run(&target, &state, 0.1);
        assert!(command.yaw_rate > 0.0);
    }

    #[test]
    fn closed_loop_converges_to_waypoint() {
        use mavfi_sim::vehicle::{Quadrotor, QuadrotorParams};
        let mut pid = PidController::new(PidConfig::default());
        let mut quad = Quadrotor::new(Vec3::ZERO, 0.0, QuadrotorParams::default());
        let target = Waypoint { position: Vec3::new(8.0, -4.0, 3.0), ..Waypoint::default() };
        for _ in 0..600 {
            let command = pid.run(&target, &quad.state(), 0.05);
            quad.step(&command, 0.05);
        }
        assert!(quad.state().position.distance(target.position) < 0.5);
    }

    #[test]
    fn reset_clears_history() {
        let mut pid = PidController::new(PidConfig::default());
        let target = Waypoint { position: Vec3::new(5.0, 0.0, 0.0), ..Waypoint::default() };
        pid.run(&target, &QuadrotorState::default(), 0.1);
        pid.reset();
        assert_eq!(pid, PidController::new(PidConfig::default()));
    }
}
