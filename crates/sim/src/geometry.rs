//! Basic 3-D geometry: vectors, axis-aligned boxes and poses.

use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A 3-D vector with `f64` components, used for positions, velocities and
/// accelerations.
///
/// # Examples
///
/// ```
/// use mavfi_sim::geometry::Vec3;
///
/// let a = Vec3::new(1.0, 2.0, 2.0);
/// assert_eq!(a.norm(), 3.0);
/// assert_eq!(a + Vec3::ZERO, a);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (forward in the world frame).
    pub x: f64,
    /// Y component (left in the world frame).
    pub y: f64,
    /// Z component (up in the world frame).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Self = Self { x: 0.0, y: 0.0, z: 0.0 };
    /// Unit vector along +X.
    pub const UNIT_X: Self = Self { x: 1.0, y: 0.0, z: 0.0 };
    /// Unit vector along +Y.
    pub const UNIT_Y: Self = Self { x: 0.0, y: 1.0, z: 0.0 };
    /// Unit vector along +Z.
    pub const UNIT_Z: Self = Self { x: 0.0, y: 0.0, z: 1.0 };

    /// Creates a vector from its components.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// Creates a vector with all components equal to `value`.
    pub const fn splat(value: f64) -> Self {
        Self { x: value, y: value, z: value }
    }

    /// Dot product.
    pub fn dot(self, other: Self) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    pub fn cross(self, other: Self) -> Self {
        Self {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Euclidean norm.
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean norm (avoids the square root).
    pub fn norm_squared(self) -> f64 {
        self.dot(self)
    }

    /// Euclidean distance to `other`.
    pub fn distance(self, other: Self) -> f64 {
        (self - other).norm()
    }

    /// Horizontal (XY-plane) distance to `other`.
    pub fn distance_xy(self, other: Self) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Returns the unit vector in this direction, or `None` for a vector of
    /// negligible length.
    pub fn normalized(self) -> Option<Self> {
        let norm = self.norm();
        if norm <= f64::EPSILON {
            None
        } else {
            Some(self / norm)
        }
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    pub fn lerp(self, other: Self, t: f64) -> Self {
        self + (other - self) * t
    }

    /// Clamps the vector's norm to at most `max_norm`, preserving direction.
    pub fn clamp_norm(self, max_norm: f64) -> Self {
        let norm = self.norm();
        if norm > max_norm && norm > 0.0 {
            self * (max_norm / norm)
        } else {
            self
        }
    }

    /// Component-wise minimum.
    pub fn min(self, other: Self) -> Self {
        Self { x: self.x.min(other.x), y: self.y.min(other.y), z: self.z.min(other.z) }
    }

    /// Component-wise maximum.
    pub fn max(self, other: Self) -> Self {
        Self { x: self.x.max(other.x), y: self.y.max(other.y), z: self.z.max(other.z) }
    }

    /// Returns `true` if every component is finite.
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Heading (yaw) of the XY projection of this vector, in radians.
    pub fn heading(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Returns the components as an array `[x, y, z]`.
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }
}

impl From<[f64; 3]> for Vec3 {
    fn from(value: [f64; 3]) -> Self {
        Self::new(value[0], value[1], value[2])
    }
}

impl Add for Vec3 {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Div<f64> for Vec3 {
    type Output = Self;
    fn div(self, rhs: f64) -> Self {
        Self::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Self;
    fn neg(self) -> Self {
        Self::new(-self.x, -self.y, -self.z)
    }
}

/// An axis-aligned bounding box, the obstacle primitive used by the
/// environment generator (the paper's environments are cuboid obstacle
/// fields).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// Creates a box from two opposite corners (components are sorted).
    pub fn new(a: Vec3, b: Vec3) -> Self {
        Self { min: a.min(b), max: a.max(b) }
    }

    /// Creates a box from its center and full side lengths.
    pub fn from_center(center: Vec3, size: Vec3) -> Self {
        let half = size / 2.0;
        Self { min: center - half, max: center + half }
    }

    /// Box center.
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) / 2.0
    }

    /// Full side lengths.
    pub fn size(&self) -> Vec3 {
        self.max - self.min
    }

    /// Returns the box grown by `margin` on every side.
    pub fn inflated(&self, margin: f64) -> Self {
        Self { min: self.min - Vec3::splat(margin), max: self.max + Vec3::splat(margin) }
    }

    /// Returns `true` if `point` lies inside or on the boundary.
    pub fn contains(&self, point: Vec3) -> bool {
        point.x >= self.min.x
            && point.x <= self.max.x
            && point.y >= self.min.y
            && point.y <= self.max.y
            && point.z >= self.min.z
            && point.z <= self.max.z
    }

    /// Returns `true` if the two boxes overlap.
    pub fn intersects(&self, other: &Self) -> bool {
        self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// Intersects the ray `origin + t * direction` (`t >= 0`) with the box
    /// using the slab method, returning the entry parameter `t` if the ray
    /// hits.
    pub fn ray_intersection(&self, origin: Vec3, direction: Vec3) -> Option<f64> {
        let mut t_min = 0.0_f64;
        let mut t_max = f64::INFINITY;
        let origins = origin.to_array();
        let directions = direction.to_array();
        let mins = self.min.to_array();
        let maxs = self.max.to_array();
        for axis in 0..3 {
            if directions[axis].abs() < 1e-12 {
                if origins[axis] < mins[axis] || origins[axis] > maxs[axis] {
                    return None;
                }
            } else {
                let inv = 1.0 / directions[axis];
                let mut t0 = (mins[axis] - origins[axis]) * inv;
                let mut t1 = (maxs[axis] - origins[axis]) * inv;
                if t0 > t1 {
                    std::mem::swap(&mut t0, &mut t1);
                }
                t_min = t_min.max(t0);
                t_max = t_max.min(t1);
                if t_min > t_max {
                    return None;
                }
            }
        }
        Some(t_min)
    }

    /// Returns `true` if the segment from `a` to `b` passes through the box.
    pub fn intersects_segment(&self, a: Vec3, b: Vec3) -> bool {
        let direction = b - a;
        let length = direction.norm();
        if length <= f64::EPSILON {
            return self.contains(a);
        }
        match self.ray_intersection(a, direction / length) {
            Some(t) => t <= length,
            None => false,
        }
    }
}

/// A vehicle pose: position plus heading (yaw) about the world Z axis.
///
/// The MAV is modelled as yaw-steerable with level flight, which matches how
/// MAVBench issues way-point commands.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Pose {
    /// Position in the world frame.
    pub position: Vec3,
    /// Yaw angle in radians, measured from +X toward +Y.
    pub yaw: f64,
}

impl Pose {
    /// Creates a pose.
    pub fn new(position: Vec3, yaw: f64) -> Self {
        Self { position, yaw }
    }

    /// Unit vector pointing along the current heading in the XY plane.
    pub fn forward(&self) -> Vec3 {
        Vec3::new(self.yaw.cos(), self.yaw.sin(), 0.0)
    }
}

/// Wraps an angle to the interval `(-pi, pi]`.
pub fn wrap_angle(angle: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    let mut wrapped = angle % two_pi;
    if wrapped <= -std::f64::consts::PI {
        wrapped += two_pi;
    } else if wrapped > std::f64::consts::PI {
        wrapped -= two_pi;
    }
    wrapped
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-1.0, 0.5, 2.0);
        assert_eq!(a + b, Vec3::new(0.0, 2.5, 5.0));
        assert_eq!(a - b, Vec3::new(2.0, 1.5, 1.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
        assert!((a.dot(b) + 1.0 - 6.0 - 1.0).abs() < 1e-12);
        assert_eq!(Vec3::UNIT_X.cross(Vec3::UNIT_Y), Vec3::UNIT_Z);
    }

    #[test]
    fn normalization_and_clamping() {
        assert!(Vec3::ZERO.normalized().is_none());
        let unit = Vec3::new(3.0, 4.0, 0.0).normalized().unwrap();
        assert!((unit.norm() - 1.0).abs() < 1e-12);
        let clamped = Vec3::new(10.0, 0.0, 0.0).clamp_norm(2.0);
        assert!((clamped.norm() - 2.0).abs() < 1e-12);
        let small = Vec3::new(1.0, 0.0, 0.0).clamp_norm(2.0);
        assert_eq!(small, Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 8.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 4.0));
    }

    #[test]
    fn aabb_contains_and_intersects() {
        let a = Aabb::from_center(Vec3::ZERO, Vec3::splat(2.0));
        assert!(a.contains(Vec3::new(0.9, -0.9, 0.5)));
        assert!(!a.contains(Vec3::new(1.1, 0.0, 0.0)));
        let b = Aabb::from_center(Vec3::new(1.5, 0.0, 0.0), Vec3::splat(2.0));
        assert!(a.intersects(&b));
        let c = Aabb::from_center(Vec3::new(5.0, 0.0, 0.0), Vec3::splat(2.0));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn ray_hits_box_in_front_only() {
        let aabb = Aabb::from_center(Vec3::new(5.0, 0.0, 0.0), Vec3::splat(2.0));
        let hit = aabb.ray_intersection(Vec3::ZERO, Vec3::UNIT_X).unwrap();
        assert!((hit - 4.0).abs() < 1e-9);
        assert!(aabb.ray_intersection(Vec3::ZERO, -Vec3::UNIT_X).is_none());
        assert!(aabb.ray_intersection(Vec3::ZERO, Vec3::UNIT_Y).is_none());
    }

    #[test]
    fn segment_intersection_matches_geometry() {
        let aabb = Aabb::from_center(Vec3::new(5.0, 0.0, 0.0), Vec3::splat(2.0));
        assert!(aabb.intersects_segment(Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)));
        assert!(!aabb.intersects_segment(Vec3::ZERO, Vec3::new(3.0, 0.0, 0.0)));
        assert!(!aabb.intersects_segment(Vec3::ZERO, Vec3::new(0.0, 10.0, 0.0)));
        // Degenerate segment inside the box.
        assert!(aabb.intersects_segment(Vec3::new(5.0, 0.0, 0.0), Vec3::new(5.0, 0.0, 0.0)));
    }

    #[test]
    fn inflation_grows_every_side() {
        let aabb = Aabb::from_center(Vec3::ZERO, Vec3::splat(2.0)).inflated(0.5);
        assert_eq!(aabb.size(), Vec3::splat(3.0));
        assert_eq!(aabb.center(), Vec3::ZERO);
    }

    #[test]
    fn wrap_angle_stays_in_range() {
        for k in -10..10 {
            let angle = 0.7 + k as f64 * std::f64::consts::TAU;
            let wrapped = wrap_angle(angle);
            assert!(wrapped > -std::f64::consts::PI && wrapped <= std::f64::consts::PI);
            assert!((wrapped - 0.7).abs() < 1e-9);
        }
    }

    #[test]
    fn pose_forward_follows_yaw() {
        let pose = Pose::new(Vec3::ZERO, std::f64::consts::FRAC_PI_2);
        let forward = pose.forward();
        assert!(forward.x.abs() < 1e-12);
        assert!((forward.y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heading_of_vector() {
        assert!((Vec3::new(0.0, 2.0, 0.0).heading() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_eq!(Vec3::new(1.0, 0.0, 0.0).heading(), 0.0);
    }
}
