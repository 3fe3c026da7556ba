//! Point-cloud generation kernel (the "P.C. Gen." node).

use mavfi_sim::sensors::DepthFrame;

use crate::states::PointCloud;

/// Converts raw depth frames into the point cloud consumed by the occupancy
/// map, optionally down-sampling to bound downstream cost.
///
/// # Examples
///
/// ```
/// use mavfi_ppc::perception::PointCloudGenerator;
/// use mavfi_sim::sensors::DepthFrame;
/// use mavfi_sim::geometry::Vec3;
///
/// use mavfi_ppc::states::PointCloud;
///
/// let generator = PointCloudGenerator::new(2);
/// let frame = DepthFrame { points: vec![Vec3::ZERO; 10], rays_cast: 10 };
/// let mut cloud = PointCloud::default();
/// generator.run_into(&frame, &mut cloud);
/// assert_eq!(cloud.len(), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointCloudGenerator {
    stride: usize,
}

impl Default for PointCloudGenerator {
    fn default() -> Self {
        Self { stride: 1 }
    }
}

impl PointCloudGenerator {
    /// Creates a generator that keeps every `stride`-th point.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn new(stride: usize) -> Self {
        assert!(stride > 0, "down-sampling stride must be positive");
        Self { stride }
    }

    /// Down-sampling stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Converts one depth frame into a point cloud in `cloud`, reusing its
    /// point storage (allocation-free in steady state).
    pub fn run_into(&self, frame: &DepthFrame, cloud: &mut PointCloud) {
        cloud.points.clear();
        cloud.points.extend(
            frame.points.iter().step_by(self.stride).copied().filter(|point| point.is_finite()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavfi_sim::geometry::Vec3;

    fn run(generator: PointCloudGenerator, frame: &DepthFrame) -> PointCloud {
        let mut cloud = PointCloud::default();
        generator.run_into(frame, &mut cloud);
        cloud
    }

    #[test]
    fn keeps_all_points_with_unit_stride() {
        let frame = DepthFrame {
            points: vec![Vec3::new(1.0, 2.0, 3.0), Vec3::new(4.0, 5.0, 6.0)],
            rays_cast: 4,
        };
        let cloud = run(PointCloudGenerator::default(), &frame);
        assert_eq!(cloud.len(), 2);
        assert_eq!(cloud.points[1], Vec3::new(4.0, 5.0, 6.0));
    }

    #[test]
    fn filters_non_finite_points() {
        let frame = DepthFrame {
            points: vec![Vec3::new(f64::NAN, 0.0, 0.0), Vec3::new(1.0, 1.0, 1.0)],
            rays_cast: 2,
        };
        let cloud = run(PointCloudGenerator::default(), &frame);
        assert_eq!(cloud.len(), 1);
    }

    #[test]
    fn empty_frame_yields_empty_cloud() {
        let cloud = run(PointCloudGenerator::new(3), &DepthFrame::default());
        assert!(cloud.is_empty());
    }

    #[test]
    #[should_panic(expected = "stride")]
    fn zero_stride_panics() {
        let _ = PointCloudGenerator::new(0);
    }
}
