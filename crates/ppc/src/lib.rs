//! `mavfi-ppc` implements the perception-planning-control (PPC) pipeline of
//! the MAVFI paper: point-cloud generation, occupancy mapping, collision
//! checking, RRT/RRT-Connect/RRT* motion planning with smoothing and
//! trajectory generation, and path-tracking/PID control — wired together by
//! [`pipeline::PpcPipeline`], with [`tap::StageTap`] hooks where the fault
//! injector and the anomaly detectors attach.
//!
//! # Examples
//!
//! ```
//! use mavfi_ppc::prelude::*;
//! use mavfi_sim::prelude::*;
//!
//! let env = EnvironmentKind::Sparse.build(1);
//! let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), 1);
//! let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
//! let world = World::new(env, QuadrotorParams::default(), PowerModel::default(), MissionConfig::default());
//! let mut frame = DepthFrame::default();
//! let pose = world.vehicle().pose();
//! DepthCamera::default().capture_into(world.environment(), &pose, &mut CaptureScratch::new(), &mut frame);
//! let tick = pipeline.tick(&frame, &world.vehicle().state(), 0.1, &mut NoopTap);
//! assert!(tick.command.is_finite());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod control;
pub mod kernel;
pub mod perception;
pub mod pipeline;
pub mod planning;
pub mod states;
pub mod tap;

pub use kernel::KernelId;
pub use perception::CollisionCacheStats;
pub use pipeline::{PipelineStats, PpcConfig, PpcPipeline, PpcTick, StageList, TickTimings};
pub use states::{
    CollisionEstimate, MonitoredStates, PointCloud, Stage, StateField, Trajectory, Waypoint,
};
pub use tap::{ChainTap, NoopTap, StageTap, TapAction};

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::control::{PathTracker, PathTrackerConfig, PidConfig, PidController};
    pub use crate::kernel::KernelId;
    pub use crate::perception::{
        CollisionCacheStats, CollisionChecker, OccupancyGrid, PointCloudGenerator,
    };
    pub use crate::pipeline::{
        PipelineStats, PpcConfig, PpcPipeline, PpcTick, StageList, TickTimings,
    };
    pub use crate::planning::{
        MissionPlan, MotionPlanner, PathSmoother, PlannedPath, Planner, PlannerAlgorithm,
        PlannerConfig, Rrt, RrtConnect, RrtStar, TrajectoryGenerator,
    };
    pub use crate::states::{
        CollisionEstimate, MonitoredStates, PointCloud, Stage, StateField, Trajectory, Waypoint,
    };
    pub use crate::tap::{ChainTap, NoopTap, StageTap, TapAction};
}
