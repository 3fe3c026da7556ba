//! Onboard sensors: a ray-casting depth camera (stand-in for the RGB-D
//! camera).

use serde::{Deserialize, Serialize};

use crate::env::Environment;
use crate::geometry::{Pose, Vec3};

/// A depth-camera frame expressed as a world-frame point cloud.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DepthFrame {
    /// Hit points in the world frame, one per ray that struck an obstacle.
    pub points: Vec<Vec3>,
    /// Total number of rays cast for this frame (hits plus misses).
    pub rays_cast: usize,
}

/// A depth-camera frame in hit-parameter form: for each ray that struck an
/// obstacle, the ray's frame index and the hit parameter `t` along it.
///
/// This is the compact, record-friendly dual of [`DepthFrame`]: given the
/// same [`DepthCamera`] and [`Pose`], [`DepthCamera::resolve_rays`] rebuilds
/// the exact world-frame point cloud (`origin + direction(ray) * t`,
/// bit-identical) — which is what lets mission traces store ~10 bytes per
/// hit instead of three `f64` coordinates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RayHits {
    /// Total number of rays cast for this frame (hits plus misses).
    pub rays_cast: usize,
    /// `(ray_index, t)` per hit, in ray order.  `ray_index` is
    /// `vi * horizontal_rays + hi` for the row-major scan the camera casts.
    pub hits: Vec<(u32, f64)>,
}

impl RayHits {
    /// Removes all hits, keeping the buffer.
    pub fn clear(&mut self) {
        self.rays_cast = 0;
        self.hits.clear();
    }
}

/// A pin-hole style depth camera simulated by ray casting against the
/// environment's obstacle set.
///
/// # Examples
///
/// ```
/// use mavfi_sim::env::EnvironmentKind;
/// use mavfi_sim::geometry::Pose;
/// use mavfi_sim::sensors::{CaptureScratch, DepthCamera, DepthFrame};
///
/// let env = EnvironmentKind::Dense.build(1);
/// let camera = DepthCamera::default();
/// let mut frame = DepthFrame::default();
/// camera.capture_into(&env, &Pose::new(env.start(), 0.0), &mut CaptureScratch::new(), &mut frame);
/// assert_eq!(frame.rays_cast, camera.ray_count());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepthCamera {
    /// Horizontal field of view (radians).
    pub horizontal_fov: f64,
    /// Vertical field of view (radians).
    pub vertical_fov: f64,
    /// Number of rays across the horizontal field of view.
    pub horizontal_rays: usize,
    /// Number of rays across the vertical field of view.
    pub vertical_rays: usize,
    /// Maximum sensing range (m).
    pub max_range: f64,
}

impl Default for DepthCamera {
    fn default() -> Self {
        Self {
            horizontal_fov: 90_f64.to_radians(),
            vertical_fov: 45_f64.to_radians(),
            horizontal_rays: 32,
            vertical_rays: 8,
            max_range: 20.0,
        }
    }
}

/// Reusable buffers for [`DepthCamera::capture_into`] and
/// [`DepthCamera::resolve_rays`]: the indices of the obstacles that survive
/// the per-frame broad-phase cull, and the frame's ray tables — the
/// `(cos, sin)` of each column's yaw and of each row's pitch.
///
/// Scratches hold no semantic state — a fresh scratch produces the same
/// frame as a reused one; reuse only avoids the per-frame allocation, and
/// lets a resolve right after a capture from the same pose keep the
/// capture's tables.
#[derive(Debug, Clone, Default)]
pub struct CaptureScratch {
    visible: Vec<usize>,
    columns: Vec<(f64, f64)>,
    rows: Vec<(f64, f64)>,
    /// Bit patterns of the pose yaw, the fields of view and the ray counts
    /// the tables were built for.
    tables_for: Option<[u64; 5]>,
}

impl CaptureScratch {
    /// Creates an empty scratch; the buffer grows on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DepthCamera {
    /// Total number of rays cast per frame.
    pub fn ray_count(&self) -> usize {
        self.horizontal_rays * self.vertical_rays
    }

    /// Captures a depth frame from `pose` looking along the pose heading
    /// into caller-provided buffers: reuses the frame's point storage and
    /// the scratch's cull list, so steady-state captures perform zero heap
    /// allocations.  A fresh frame and scratch produce the same frame as
    /// reused ones.
    ///
    /// Before casting any rays, obstacles are broad-phase culled once per
    /// frame: boxes farther than the sensing range and boxes entirely behind
    /// the camera plane can never produce a hit, so the O(rays × obstacles)
    /// inner loop skips them.  Both tests are conservative — the surviving
    /// set always contains every obstacle any ray could hit — which is what
    /// keeps the output bit-identical.
    pub fn capture_into(
        &self,
        env: &Environment,
        pose: &Pose,
        scratch: &mut CaptureScratch,
        frame: &mut DepthFrame,
    ) {
        frame.points.clear();
        frame.rays_cast = self.ray_count();
        let origin = pose.position;
        self.cast_rays(env, pose, scratch, |_, direction, t| {
            frame.points.push(origin + direction * t);
        });
    }

    /// Captures a frame in hit-parameter form: the same rays as
    /// [`DepthCamera::capture_into`], recording `(ray_index, t)` per hit
    /// instead of the world-frame point.  [`DepthCamera::resolve_rays`] is
    /// the exact inverse back to the point cloud.
    pub fn capture_rays_into(
        &self,
        env: &Environment,
        pose: &Pose,
        scratch: &mut CaptureScratch,
        rays: &mut RayHits,
    ) {
        rays.clear();
        rays.rays_cast = self.ray_count();
        self.cast_rays(env, pose, scratch, |ray, _, t| {
            rays.hits.push((ray, t));
        });
    }

    /// Reconstructs the point cloud a capture from `pose` produced, given
    /// its hit parameters.  Because each ray direction is formed from the
    /// same per-frame ray tables the capture used, the points are
    /// **bit-identical** to [`DepthCamera::capture_into`]'s — this is the
    /// replay path that takes the simulator (and its obstacle set) out of
    /// the loop.
    ///
    /// # Panics
    ///
    /// Panics if a hit's ray index is not below [`DepthCamera::ray_count`];
    /// callers holding untrusted hits (a trace decoder) validate them first.
    pub fn resolve_rays(
        &self,
        pose: &Pose,
        rays: &RayHits,
        scratch: &mut CaptureScratch,
        frame: &mut DepthFrame,
    ) {
        frame.points.clear();
        frame.rays_cast = rays.rays_cast;
        if rays.hits.is_empty() {
            // Most frames of a clear flight see nothing: skip the tables.
            return;
        }
        let origin = pose.position;
        self.fill_ray_tables(pose.yaw, scratch);
        for &(ray, t) in &rays.hits {
            let (yaw_cos, yaw_sin) = scratch.columns[ray as usize % self.horizontal_rays];
            let (pitch_cos, pitch_sin) = scratch.rows[ray as usize / self.horizontal_rays];
            let direction = Vec3::new(yaw_cos * pitch_cos, yaw_sin * pitch_cos, pitch_sin);
            frame.points.push(origin + direction * t);
        }
    }

    /// Fills `scratch`'s ray tables for a camera yawed to `pose_yaw`: one
    /// `(cos, sin)` per column yaw and per row pitch, so a frame makes
    /// `2 × (horizontal_rays + vertical_rays)` trig calls instead of four per
    /// ray.  The ray at (`hi`, `vi`) points along
    /// `(yaw_cos·pitch_cos, yaw_sin·pitch_cos, pitch_sin)` — the operands and
    /// operations of the closed form, so every direction is bit-identical to
    /// it.  Tables already built for this camera and yaw are kept.
    fn fill_ray_tables(&self, pose_yaw: f64, scratch: &mut CaptureScratch) {
        let key = [
            pose_yaw.to_bits(),
            self.horizontal_fov.to_bits(),
            self.vertical_fov.to_bits(),
            self.horizontal_rays as u64,
            self.vertical_rays as u64,
        ];
        if scratch.tables_for == Some(key) {
            return;
        }
        scratch.columns.clear();
        scratch.columns.extend((0..self.horizontal_rays).map(|hi| {
            let h_frac = if self.horizontal_rays > 1 {
                hi as f64 / (self.horizontal_rays - 1) as f64 - 0.5
            } else {
                0.0
            };
            let yaw = pose_yaw + h_frac * self.horizontal_fov;
            (yaw.cos(), yaw.sin())
        }));
        scratch.rows.clear();
        scratch.rows.extend((0..self.vertical_rays).map(|vi| {
            let v_frac = if self.vertical_rays > 1 {
                vi as f64 / (self.vertical_rays - 1) as f64 - 0.5
            } else {
                0.0
            };
            let pitch = v_frac * self.vertical_fov;
            (pitch.cos(), pitch.sin())
        }));
        scratch.tables_for = Some(key);
    }

    /// The closed-form direction of the ray at scan position (`hi`, `vi`) for
    /// a camera yawed to `pose_yaw`: the reference the ray tables are checked
    /// against.
    #[cfg(test)]
    fn ray_direction(&self, pose_yaw: f64, hi: usize, vi: usize) -> Vec3 {
        let v_frac = if self.vertical_rays > 1 {
            vi as f64 / (self.vertical_rays - 1) as f64 - 0.5
        } else {
            0.0
        };
        let pitch = v_frac * self.vertical_fov;
        let h_frac = if self.horizontal_rays > 1 {
            hi as f64 / (self.horizontal_rays - 1) as f64 - 0.5
        } else {
            0.0
        };
        let yaw = pose_yaw + h_frac * self.horizontal_fov;
        Vec3::new(yaw.cos() * pitch.cos(), yaw.sin() * pitch.cos(), pitch.sin())
    }

    /// Broad-phase culls the obstacle set, then casts every ray, invoking
    /// `on_hit(ray_index, direction, t)` for each ray that strikes an
    /// obstacle within range.
    fn cast_rays(
        &self,
        env: &Environment,
        pose: &Pose,
        scratch: &mut CaptureScratch,
        mut on_hit: impl FnMut(u32, Vec3, f64),
    ) {
        let origin = pose.position;

        // Broad-phase cull.  The behind-the-camera test is only valid when
        // every ray direction has a non-negative component along the camera
        // heading, i.e. both fields of view stay within a half-space.
        let forward = pose.forward();
        let half_space_valid = self.horizontal_fov <= std::f64::consts::PI
            && self.vertical_fov <= std::f64::consts::PI;
        scratch.visible.clear();
        for (index, obstacle) in env.obstacles().iter().enumerate() {
            let aabb = obstacle.aabb;
            // Range cull: the nearest point of the box is beyond max_range,
            // so any ray's entry parameter would exceed it.
            let closest = Vec3::new(
                origin.x.clamp(aabb.min.x, aabb.max.x),
                origin.y.clamp(aabb.min.y, aabb.max.y),
                origin.z.clamp(aabb.min.z, aabb.max.z),
            );
            if closest.distance(origin) > self.max_range {
                continue;
            }
            // Behind cull: if even the box's support point along the heading
            // is behind the camera plane, the whole box is (convexity), and
            // forward rays cannot enter it.
            if half_space_valid {
                let support = Vec3::new(
                    if forward.x >= 0.0 { aabb.max.x } else { aabb.min.x },
                    if forward.y >= 0.0 { aabb.max.y } else { aabb.min.y },
                    if forward.z >= 0.0 { aabb.max.z } else { aabb.min.z },
                );
                if (support - origin).dot(forward) < 0.0 {
                    continue;
                }
            }
            scratch.visible.push(index);
        }

        self.fill_ray_tables(pose.yaw, scratch);
        let obstacles = env.obstacles();
        for (vi, &(pitch_cos, pitch_sin)) in scratch.rows.iter().enumerate() {
            for (hi, &(yaw_cos, yaw_sin)) in scratch.columns.iter().enumerate() {
                let direction = Vec3::new(yaw_cos * pitch_cos, yaw_sin * pitch_cos, pitch_sin);
                let mut nearest: Option<f64> = None;
                for &index in &scratch.visible {
                    if let Some(t) = obstacles[index].aabb.ray_intersection(origin, direction) {
                        if t <= self.max_range && nearest.map_or(true, |best| t < best) {
                            nearest = Some(t);
                        }
                    }
                }
                if let Some(t) = nearest {
                    on_hit((vi * self.horizontal_rays + hi) as u32, direction, t);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::EnvironmentKind;

    fn capture(camera: &DepthCamera, env: &Environment, pose: &Pose) -> DepthFrame {
        let mut frame = DepthFrame::default();
        camera.capture_into(env, pose, &mut CaptureScratch::new(), &mut frame);
        frame
    }

    #[test]
    fn camera_sees_obstacle_directly_ahead() {
        use crate::env::{Environment, Obstacle};
        use crate::geometry::Aabb;
        let env = Environment::new(
            "unit",
            Aabb::new(Vec3::new(-10.0, -10.0, 0.0), Vec3::new(30.0, 10.0, 10.0)),
            vec![Obstacle::from_center(Vec3::new(10.0, 0.0, 2.0), Vec3::splat(4.0))],
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::new(25.0, 0.0, 2.0),
        );
        let camera = DepthCamera::default();
        let frame = capture(&camera, &env, &Pose::new(env.start(), 0.0));
        assert!(!frame.points.is_empty());
        // Every returned point lies on the obstacle within sensing range.
        for point in &frame.points {
            assert!(point.distance(env.start()) <= camera.max_range + 1e-9);
        }
        // Looking away from the obstacle sees nothing.
        let behind = capture(&camera, &env, &Pose::new(env.start(), std::f64::consts::PI));
        assert!(behind.points.is_empty());
    }

    #[test]
    fn ray_capture_resolves_to_bit_identical_points() {
        for (kind, seed, yaw) in [
            (EnvironmentKind::Sparse, 3, 0.0),
            (EnvironmentKind::Dense, 8, 0.7),
            (EnvironmentKind::Randomized, 11, -2.1),
        ] {
            let env = kind.build(seed);
            let camera = DepthCamera::default();
            let pose = Pose::new(env.start() + Vec3::new(1.0, 0.5, 0.25), yaw);
            let mut scratch = CaptureScratch::new();

            let mut direct = DepthFrame::default();
            camera.capture_into(&env, &pose, &mut scratch, &mut direct);

            let mut rays = RayHits::default();
            camera.capture_rays_into(&env, &pose, &mut scratch, &mut rays);
            assert_eq!(rays.rays_cast, direct.rays_cast);
            assert_eq!(rays.hits.len(), direct.points.len());

            let mut resolved = DepthFrame::default();
            camera.resolve_rays(&pose, &rays, &mut scratch, &mut resolved);
            assert_eq!(resolved.rays_cast, direct.rays_cast);
            assert_eq!(point_bits(&resolved), point_bits(&direct));
        }
    }

    fn point_bits(frame: &DepthFrame) -> Vec<[u64; 3]> {
        frame.points.iter().map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()]).collect()
    }

    /// The frame a capture produces with every direction from the closed-form
    /// [`DepthCamera::ray_direction`] and no broad-phase cull.
    fn reference_capture(camera: &DepthCamera, env: &Environment, pose: &Pose) -> DepthFrame {
        let origin = pose.position;
        let mut frame = DepthFrame { points: Vec::new(), rays_cast: camera.ray_count() };
        for vi in 0..camera.vertical_rays {
            for hi in 0..camera.horizontal_rays {
                let direction = camera.ray_direction(pose.yaw, hi, vi);
                let mut nearest: Option<f64> = None;
                for obstacle in env.obstacles() {
                    if let Some(t) = obstacle.aabb.ray_intersection(origin, direction) {
                        if t <= camera.max_range && nearest.map_or(true, |best| t < best) {
                            nearest = Some(t);
                        }
                    }
                }
                if let Some(t) = nearest {
                    frame.points.push(origin + direction * t);
                }
            }
        }
        frame
    }

    /// Rays per axis the properties sweep: the single-ray branch, the two
    /// field edges, an odd count and the default 32.
    const RAYS_PER_AXIS: [usize; 4] = [1, 2, 7, 32];

    /// A field of view in (0, π], with π itself drawn a quarter of the time.
    fn field_of_view() -> impl Strategy<Value = f64> {
        (0usize..4, 0.0f64..1.0).prop_map(|(pick, unit)| {
            if pick == 0 {
                std::f64::consts::PI
            } else {
                std::f64::consts::PI * (1.0 - unit)
            }
        })
    }

    /// A yaw within one turn half the time, else of magnitude up to 1e3.
    fn any_yaw() -> impl Strategy<Value = f64> {
        (0usize..2, -1.0f64..1.0)
            .prop_map(|(pick, unit)| unit * if pick == 0 { std::f64::consts::PI } else { 1.0e3 })
    }

    /// A pose `aim.1` metres from an obstacle's centre (the obstacle picked
    /// by `aim.0`), seen from bearing `aim.2` and facing it up to `aim.3`
    /// radians off, so most frames have hits.  `aim.4` adds whole turns
    /// (none half the time, else up to ±159: a yaw of magnitude up to 1e3,
    /// negative ones included).
    fn pose_facing(env: &Environment, aim: (usize, f64, f64, f64, i32)) -> Pose {
        let (obstacle, distance, bearing, deviation, turns) = aim;
        let obstacles = env.obstacles();
        let centre = match obstacles.len() {
            0 => env.goal(),
            count => obstacles[obstacle % count].aabb.center(),
        };
        let origin = centre - Vec3::new(bearing.cos(), bearing.sin(), 0.0) * distance;
        Pose::new(origin, bearing + deviation + f64::from(turns) * std::f64::consts::TAU)
    }

    /// Inputs of [`pose_facing`].
    fn aim() -> impl Strategy<Value = (usize, f64, f64, f64, i32)> {
        let angle = std::f64::consts::PI;
        (0usize..64, 2.0f64..15.0, -angle..angle, -0.8f64..0.8, 0usize..2, -159i32..160).prop_map(
            |(obstacle, distance, bearing, deviation, pick, turns)| {
                (obstacle, distance, bearing, deviation, if pick == 0 { 0 } else { turns })
            },
        )
    }

    fn camera_of(rays: (usize, usize), fovs: (f64, f64)) -> DepthCamera {
        DepthCamera {
            horizontal_fov: fovs.0,
            vertical_fov: fovs.1,
            horizontal_rays: RAYS_PER_AXIS[rays.0],
            vertical_rays: RAYS_PER_AXIS[rays.1],
            ..DepthCamera::default()
        }
    }

    fn environment_of(kind: usize, seed: u64) -> Environment {
        [EnvironmentKind::Sparse, EnvironmentKind::Dense, EnvironmentKind::Randomized][kind]
            .build(seed)
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The ray tables give every point of the closed form bit for bit,
        /// at any yaw, ray count per axis and field of view, from a fresh
        /// scratch and from one whose tables hold another frame's.
        #[test]
        fn table_capture_matches_closed_form(
            kind in 0usize..3,
            seed in 0u64..40,
            aim in aim(),
            rays in (0usize..4, 0usize..4),
            fovs in (field_of_view(), field_of_view()),
            previous in (any_yaw(), 0usize..4, field_of_view()),
        ) {
            let env = environment_of(kind, seed);
            let camera = camera_of(rays, fovs);
            let pose = pose_facing(&env, aim);
            let expected = reference_capture(&camera, &env, &pose);
            let frame = capture(&camera, &env, &pose);
            prop_assert_eq!(frame.rays_cast, expected.rays_cast);
            prop_assert_eq!(point_bits(&frame), point_bits(&expected));

            // Tables left by another camera, then by this camera at another yaw.
            let mut scratch = CaptureScratch::new();
            let mut reused = DepthFrame::default();
            let other = camera_of((previous.1, rays.1), (previous.2, fovs.1));
            let previous_pose = Pose::new(pose.position, previous.0);
            other.capture_into(&env, &previous_pose, &mut scratch, &mut reused);
            camera.capture_into(&env, &previous_pose, &mut scratch, &mut reused);
            camera.capture_into(&env, &pose, &mut scratch, &mut reused);
            prop_assert_eq!(point_bits(&reused), point_bits(&expected));
        }

        /// Resolving a hit-parameter capture — with a fresh scratch, so the
        /// tables are rebuilt, and with the capture's own — gives the direct
        /// capture's frame bit for bit.
        #[test]
        fn resolved_rays_match_direct_capture(
            kind in 0usize..3,
            seed in 0u64..40,
            aim in aim(),
            rays in (0usize..4, 0usize..4),
            fovs in (field_of_view(), field_of_view()),
        ) {
            let env = environment_of(kind, seed);
            let camera = camera_of(rays, fovs);
            let pose = pose_facing(&env, aim);
            let direct = capture(&camera, &env, &pose);

            let mut scratch = CaptureScratch::new();
            let mut hits = RayHits::default();
            camera.capture_rays_into(&env, &pose, &mut scratch, &mut hits);
            for resolve_scratch in [&mut scratch, &mut CaptureScratch::new()] {
                let mut resolved = DepthFrame::default();
                camera.resolve_rays(&pose, &hits, resolve_scratch, &mut resolved);
                prop_assert_eq!(resolved.rays_cast, direct.rays_cast);
                prop_assert_eq!(point_bits(&resolved), point_bits(&direct));
            }
        }
    }

    #[test]
    fn camera_range_limits_detection() {
        let env = EnvironmentKind::Sparse.build(5);
        let short = DepthCamera { max_range: 0.1, ..DepthCamera::default() };
        let frame = capture(&short, &env, &Pose::new(env.start(), 0.0));
        assert!(frame.points.is_empty());
    }
}
