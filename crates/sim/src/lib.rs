//! `mavfi-sim` is the closed-loop micro-aerial-vehicle simulation substrate
//! of the MAVFI reproduction.  It stands in for the Unreal Engine + AirSim +
//! MAVBench host simulator of the paper: procedurally generated and
//! hand-authored obstacle environments, a kinematic quadrotor, a depth
//! camera, a power/energy model, and the [`world::World`] that ties
//! them together into a steppable mission.
//!
//! # Examples
//!
//! ```
//! use mavfi_sim::prelude::*;
//!
//! let env = EnvironmentKind::Sparse.build(42);
//! let mut world = World::new(
//!     env,
//!     QuadrotorParams::default(),
//!     PowerModel::default(),
//!     MissionConfig::default(),
//! );
//! world.step(&FlightCommand::new(Vec3::new(1.0, 0.0, 0.0), 0.0), 0.1);
//! assert!(world.elapsed() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod energy;
pub mod env;
pub mod geometry;
pub mod sensors;
pub mod vehicle;
pub mod world;

pub use energy::{EnergyMeter, PowerModel};
pub use env::{Environment, EnvironmentGenerator, EnvironmentKind, Obstacle};
pub use geometry::{Aabb, Pose, Vec3};
pub use sensors::{CaptureScratch, DepthCamera, DepthFrame};
pub use vehicle::{FlightCommand, Quadrotor, QuadrotorParams, QuadrotorState};
pub use world::{MissionConfig, MissionStatus, World};

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::energy::{EnergyMeter, PowerModel};
    pub use crate::env::{Environment, EnvironmentGenerator, EnvironmentKind, Obstacle};
    pub use crate::geometry::{Aabb, Pose, Vec3};
    pub use crate::sensors::{CaptureScratch, DepthCamera, DepthFrame};
    pub use crate::vehicle::{FlightCommand, Quadrotor, QuadrotorParams, QuadrotorState};
    pub use crate::world::{MissionConfig, MissionStatus, World};
}
