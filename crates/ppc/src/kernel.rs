//! Kernel identities and their nominal compute latencies.
//!
//! Each ROS node of the paper wraps exactly one compute kernel.  The latency
//! numbers here are the per-invocation costs on the paper's Intel i9
//! companion computer; `mavfi-platform` scales them for other platforms.
//! They drive the Table II overhead accounting (recomputation cost) and the
//! response-time → velocity coupling of the visual performance model.

use serde::{Deserialize, Serialize};

use crate::states::Stage;

/// Every compute kernel of the PPC pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum KernelId {
    /// Depth image to point cloud conversion (P.C. Gen.).
    PointCloudGeneration,
    /// Occupancy-map update (OctoMap).
    OctoMap,
    /// Collision check against the occupancy map (Col. Ck.).
    CollisionCheck,
    /// RRT motion planner.
    Rrt,
    /// RRT-Connect motion planner.
    RrtConnect,
    /// RRT* motion planner.
    RrtStar,
    /// Path smoothening.
    Smoothing,
    /// Mission (package-delivery) planner.
    MissionPlanner,
    /// Path tracking / look-ahead selection.
    PathTracking,
    /// PID command issue.
    Pid,
}

impl KernelId {
    /// Number of kernels (the length of [`KernelId::ALL`]).
    pub const COUNT: usize = 10;

    /// Every kernel, in pipeline order.
    pub const ALL: [Self; Self::COUNT] = [
        Self::PointCloudGeneration,
        Self::OctoMap,
        Self::CollisionCheck,
        Self::Rrt,
        Self::RrtConnect,
        Self::RrtStar,
        Self::Smoothing,
        Self::MissionPlanner,
        Self::PathTracking,
        Self::Pid,
    ];

    /// The kernels the paper's Fig. 3 injects into (one representative
    /// planner per run plus the perception and control kernels).
    pub const FIG3_KERNELS: [Self; 7] = [
        Self::PointCloudGeneration,
        Self::OctoMap,
        Self::CollisionCheck,
        Self::Rrt,
        Self::RrtConnect,
        Self::RrtStar,
        Self::Pid,
    ];

    /// The kernel's position in [`KernelId::ALL`]: the canonical dense
    /// index used by array-backed per-kernel tables
    /// ([`PipelineStats`](crate::pipeline::PipelineStats), telemetry
    /// histograms) instead of hashing on the hot tick path.
    pub const fn index(self) -> usize {
        match self {
            Self::PointCloudGeneration => 0,
            Self::OctoMap => 1,
            Self::CollisionCheck => 2,
            Self::Rrt => 3,
            Self::RrtConnect => 4,
            Self::RrtStar => 5,
            Self::Smoothing => 6,
            Self::MissionPlanner => 7,
            Self::PathTracking => 8,
            Self::Pid => 9,
        }
    }

    /// The stage this kernel belongs to.
    pub fn stage(self) -> Stage {
        match self {
            Self::PointCloudGeneration | Self::OctoMap | Self::CollisionCheck => Stage::Perception,
            Self::Rrt
            | Self::RrtConnect
            | Self::RrtStar
            | Self::Smoothing
            | Self::MissionPlanner => Stage::Planning,
            Self::PathTracking | Self::Pid => Stage::Control,
        }
    }

    /// Nominal per-invocation latency on the paper's i9 companion computer,
    /// in milliseconds.  The occupancy-map update (289 ms) and trajectory
    /// generation (83 ms) figures come directly from §VI-C; the control
    /// recomputation (0.46 ms) is split across path tracking and PID.
    pub fn nominal_latency_ms(self) -> f64 {
        match self {
            Self::PointCloudGeneration => 18.0,
            Self::OctoMap => 289.0,
            Self::CollisionCheck => 9.0,
            Self::Rrt => 62.0,
            Self::RrtConnect => 48.0,
            Self::RrtStar => 83.0,
            Self::Smoothing => 12.0,
            Self::MissionPlanner => 1.5,
            Self::PathTracking => 0.26,
            Self::Pid => 0.20,
        }
    }

    /// Short display label matching the paper's figure axes.
    pub fn label(self) -> &'static str {
        match self {
            Self::PointCloudGeneration => "P.C. Gen.",
            Self::OctoMap => "OctoMap",
            Self::CollisionCheck => "Col. Ck.",
            Self::Rrt => "RRT",
            Self::RrtConnect => "RRTConnect",
            Self::RrtStar => "RRT*",
            Self::Smoothing => "Smoothen",
            Self::MissionPlanner => "Mission",
            Self::PathTracking => "Tracking",
            Self::Pid => "PID",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stages_partition_the_kernels() {
        let perception: Vec<_> =
            KernelId::ALL.iter().filter(|k| k.stage() == Stage::Perception).collect();
        let planning: Vec<_> =
            KernelId::ALL.iter().filter(|k| k.stage() == Stage::Planning).collect();
        let control: Vec<_> =
            KernelId::ALL.iter().filter(|k| k.stage() == Stage::Control).collect();
        assert_eq!(perception.len(), 3);
        assert_eq!(planning.len(), 5);
        assert_eq!(control.len(), 2);
    }

    #[test]
    fn paper_latency_anchors_are_respected() {
        assert_eq!(KernelId::OctoMap.nominal_latency_ms(), 289.0);
        assert_eq!(KernelId::RrtStar.nominal_latency_ms(), 83.0);
        let control_total =
            KernelId::PathTracking.nominal_latency_ms() + KernelId::Pid.nominal_latency_ms();
        assert!((control_total - 0.46).abs() < 1e-9);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<&str> =
            KernelId::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), KernelId::ALL.len());
    }

    #[test]
    fn index_matches_position_in_all() {
        for (position, kernel) in KernelId::ALL.iter().enumerate() {
            assert_eq!(kernel.index(), position, "{}", kernel.label());
        }
        assert_eq!(KernelId::COUNT, KernelId::ALL.len());
    }

    #[test]
    fn fig3_kernels_are_a_subset_of_all() {
        for kernel in KernelId::FIG3_KERNELS {
            assert!(KernelId::ALL.contains(&kernel));
        }
    }
}
