//! Perception stage: point-cloud generation, occupancy mapping and collision
//! checking.

pub mod collision_check;
pub mod occupancy;
pub mod point_cloud;

pub use collision_check::{CollisionCacheStats, CollisionChecker, CollisionCheckerConfig};
pub use occupancy::{OccupancyGrid, VoxelKey};
pub use point_cloud::PointCloudGenerator;
