//! The closed-loop world: environment plus vehicle plus mission bookkeeping.
//!
//! `World` plays the role of the paper's host simulator (Unreal Engine +
//! AirSim): it owns ground truth, advances the vehicle under flight
//! commands, detects collisions and goal arrival, and accumulates the
//! quality-of-flight raw measurements (flight time, mission energy,
//! trajectory).

use serde::{Deserialize, Serialize};

use crate::energy::{EnergyMeter, PowerModel};
use crate::env::Environment;
use crate::geometry::Vec3;
use crate::vehicle::{FlightCommand, Quadrotor, QuadrotorParams};

/// Terminal or in-progress status of a mission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MissionStatus {
    /// The mission is still running.
    InProgress,
    /// The vehicle reached the goal within tolerance.
    Succeeded,
    /// The vehicle hit an obstacle or left the world bounds.
    Collided,
    /// The mission exceeded the time budget without reaching the goal.
    TimedOut,
}

impl MissionStatus {
    /// Returns `true` for any terminal status.
    pub fn is_terminal(self) -> bool {
        self != Self::InProgress
    }

    /// Returns `true` only for a successful mission.
    pub fn is_success(self) -> bool {
        self == Self::Succeeded
    }
}

/// Configuration of a mission run inside a [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MissionConfig {
    /// Distance from the goal at which the mission counts as complete (m).
    pub goal_tolerance: f64,
    /// Hard limit on mission duration (s).
    pub max_mission_time: f64,
    /// Simulation step used when integrating energy and trajectories (s).
    pub trail_sample_interval: f64,
}

impl Default for MissionConfig {
    fn default() -> Self {
        Self { goal_tolerance: 1.5, max_mission_time: 400.0, trail_sample_interval: 0.5 }
    }
}

/// The closed-loop simulation world.
///
/// # Examples
///
/// ```
/// use mavfi_sim::prelude::*;
///
/// let env = EnvironmentKind::Farm.build(1);
/// let mut world = World::new(env, QuadrotorParams::default(), PowerModel::default(), MissionConfig::default());
/// let cmd = FlightCommand::new(Vec3::new(1.0, 1.0, 0.0), 0.0);
/// world.step(&cmd, 0.1);
/// assert_eq!(world.status(), MissionStatus::InProgress);
/// assert!(world.elapsed() > 0.0);
/// ```
#[derive(Debug, PartialEq)]
pub struct World {
    environment: Environment,
    vehicle: Quadrotor,
    power_model: PowerModel,
    config: MissionConfig,
    energy: EnergyMeter,
    elapsed: f64,
    status: MissionStatus,
    trail: Vec<Vec3>,
    distance_travelled: f64,
    last_trail_sample: f64,
}

/// `clone_from` reuses the target's storage (environment and trail), so
/// refreshing a mid-mission checkpoint allocates nothing once warm.
impl Clone for World {
    fn clone(&self) -> Self {
        Self {
            environment: self.environment.clone(),
            vehicle: self.vehicle.clone(),
            trail: self.trail.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.environment.clone_from(&source.environment);
        self.vehicle.clone_from(&source.vehicle);
        self.power_model = source.power_model;
        self.config = source.config;
        self.energy = source.energy;
        self.elapsed = source.elapsed;
        self.status = source.status;
        self.trail.clone_from(&source.trail);
        self.distance_travelled = source.distance_travelled;
        self.last_trail_sample = source.last_trail_sample;
    }
}

impl World {
    /// Creates a world with the vehicle parked at the environment start.
    pub fn new(
        environment: Environment,
        params: QuadrotorParams,
        power_model: PowerModel,
        config: MissionConfig,
    ) -> Self {
        let start = environment.start();
        let goal = environment.goal();
        let initial_yaw = (goal - start).heading();
        let vehicle = Quadrotor::new(start, initial_yaw, params);
        Self {
            environment,
            vehicle,
            power_model,
            config,
            energy: EnergyMeter::new(),
            elapsed: 0.0,
            status: MissionStatus::InProgress,
            trail: vec![start],
            distance_travelled: 0.0,
            last_trail_sample: 0.0,
        }
    }

    /// The environment ground truth.
    pub fn environment(&self) -> &Environment {
        &self.environment
    }

    /// The simulated vehicle.
    pub fn vehicle(&self) -> &Quadrotor {
        &self.vehicle
    }

    /// The power model in use.
    pub fn power_model(&self) -> PowerModel {
        self.power_model
    }

    /// Elapsed mission time (s).
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// Accumulated mission energy (J).
    pub fn energy_joules(&self) -> f64 {
        self.energy.joules()
    }

    /// Total distance flown (m).
    pub fn distance_travelled(&self) -> f64 {
        self.distance_travelled
    }

    /// Current mission status.
    pub fn status(&self) -> MissionStatus {
        self.status
    }

    /// Sampled trajectory (world-frame positions), starting at the start
    /// point.
    pub fn trail(&self) -> &[Vec3] {
        &self.trail
    }

    /// Distance from the vehicle to the goal (m).
    pub fn distance_to_goal(&self) -> f64 {
        self.vehicle.state().position.distance(self.environment.goal())
    }

    /// Advances the world by `dt` seconds under `command`.  Returns the
    /// status after the step.  Stepping a terminal world is a no-op.
    pub fn step(&mut self, command: &FlightCommand, dt: f64) -> MissionStatus {
        if self.status.is_terminal() {
            return self.status;
        }
        let before = self.vehicle.state().position;
        self.vehicle.step(command, dt);
        let after = self.vehicle.state().position;
        self.elapsed += dt;
        self.distance_travelled += after.distance(before);
        self.energy.add(self.power_model.instantaneous_power(self.vehicle.speed()), dt);

        if self.elapsed - self.last_trail_sample >= self.config.trail_sample_interval {
            self.trail.push(after);
            self.last_trail_sample = self.elapsed;
        }

        let radius = self.vehicle.params().radius;
        if !self.environment.is_free(after, radius) {
            self.status = MissionStatus::Collided;
        } else if self.distance_to_goal() <= self.config.goal_tolerance {
            self.status = MissionStatus::Succeeded;
        } else if self.elapsed >= self.config.max_mission_time {
            self.status = MissionStatus::TimedOut;
        }
        if self.status.is_terminal() {
            self.trail.push(after);
        }
        self.status
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvironmentKind;

    fn farm_world() -> World {
        World::new(
            EnvironmentKind::Farm.build(1),
            QuadrotorParams::default(),
            PowerModel::default(),
            MissionConfig::default(),
        )
    }

    #[test]
    fn flying_towards_goal_succeeds_in_open_environment() {
        let mut world = farm_world();
        let mut steps = 0;
        while world.status() == MissionStatus::InProgress && steps < 20_000 {
            let to_goal = world.environment().goal() - world.vehicle().state().position;
            let cmd = FlightCommand::new(to_goal.clamp_norm(4.0), 0.0);
            world.step(&cmd, 0.1);
            steps += 1;
        }
        assert_eq!(world.status(), MissionStatus::Succeeded);
        assert!(world.elapsed() > 0.0);
        assert!(world.energy_joules() > 0.0);
        assert!(world.trail().len() > 2);
        assert!(world.distance_travelled() >= world.environment().mission_length() - 2.0);
    }

    #[test]
    fn hovering_times_out() {
        let config = MissionConfig { max_mission_time: 5.0, ..MissionConfig::default() };
        let mut world = World::new(
            EnvironmentKind::Farm.build(1),
            QuadrotorParams::default(),
            PowerModel::default(),
            config,
        );
        while world.status() == MissionStatus::InProgress {
            world.step(&FlightCommand::HOLD, 0.5);
        }
        assert_eq!(world.status(), MissionStatus::TimedOut);
        assert!((world.elapsed() - 5.0).abs() < 0.6);
    }

    #[test]
    fn flying_into_an_obstacle_collides() {
        let env = EnvironmentKind::Dense.build(2);
        // Aim straight at the first obstacle's center.
        let target = env.obstacles()[0].aabb.center();
        let mut world = World::new(
            env,
            QuadrotorParams::default(),
            PowerModel::default(),
            MissionConfig::default(),
        );
        let mut steps = 0;
        while world.status() == MissionStatus::InProgress && steps < 50_000 {
            let to_target = target - world.vehicle().state().position;
            world.step(&FlightCommand::new(to_target.clamp_norm(5.0), 0.0), 0.05);
            steps += 1;
        }
        assert_eq!(world.status(), MissionStatus::Collided);
    }

    #[test]
    fn terminal_world_ignores_further_steps() {
        let config = MissionConfig { max_mission_time: 1.0, ..MissionConfig::default() };
        let mut world = World::new(
            EnvironmentKind::Farm.build(1),
            QuadrotorParams::default(),
            PowerModel::default(),
            config,
        );
        while !world.status().is_terminal() {
            world.step(&FlightCommand::HOLD, 0.5);
        }
        let elapsed = world.elapsed();
        world.step(&FlightCommand::HOLD, 0.5);
        assert_eq!(world.elapsed(), elapsed);
    }

    #[test]
    fn status_helpers() {
        assert!(MissionStatus::Succeeded.is_terminal());
        assert!(MissionStatus::Succeeded.is_success());
        assert!(MissionStatus::Collided.is_terminal());
        assert!(!MissionStatus::Collided.is_success());
        assert!(!MissionStatus::InProgress.is_terminal());
    }
}
