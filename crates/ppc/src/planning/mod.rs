//! Planning stage: sampling-based motion planners, path smoothing,
//! trajectory generation and the mission planner.

pub mod mission;
pub mod nn_index;
pub mod rrt;
pub mod rrt_connect;
pub mod rrt_star;
pub mod smoothing;
pub mod space;
pub mod trajectory_gen;

pub use mission::MissionPlan;
pub use nn_index::NnIndex;
pub use rrt::Rrt;
pub use rrt_connect::RrtConnect;
pub use rrt_star::RrtStar;
pub use smoothing::PathSmoother;
pub use space::{
    MotionPlanner, ObstacleModel, PlannedPath, Planner, PlannerAlgorithm, PlannerConfig,
};
pub use trajectory_gen::TrajectoryGenerator;
