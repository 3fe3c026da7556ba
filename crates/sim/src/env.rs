//! Evaluation environments: cuboid-obstacle worlds matching the four
//! environments of the paper (UE *Factory*, UE *Farm*, generated *Sparse*
//! and *Dense*) plus the randomized training environments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::geometry::{Aabb, Vec3};

/// A single cuboid obstacle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Obstacle {
    /// The occupied volume.
    pub aabb: Aabb,
}

impl Obstacle {
    /// Creates an obstacle from its occupied volume.
    pub fn new(aabb: Aabb) -> Self {
        Self { aabb }
    }

    /// Convenience constructor from center and size.
    pub fn from_center(center: Vec3, size: Vec3) -> Self {
        Self { aabb: Aabb::from_center(center, size) }
    }
}

/// A navigation world: bounded free space, obstacles and a start/goal pair.
#[derive(Debug, PartialEq)]
pub struct Environment {
    name: String,
    bounds: Aabb,
    obstacles: Vec<Obstacle>,
    start: Vec3,
    goal: Vec3,
}

/// `clone_from` reuses the target's storage, so refreshing a mid-mission
/// checkpoint of a world allocates nothing once warm.
impl Clone for Environment {
    fn clone(&self) -> Self {
        Self { name: self.name.clone(), obstacles: self.obstacles.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        self.name.clone_from(&source.name);
        self.obstacles.clone_from(&source.obstacles);
        self.bounds = source.bounds;
        self.start = source.start;
        self.goal = source.goal;
    }
}

impl Environment {
    /// Creates an environment.
    ///
    /// # Panics
    ///
    /// Panics if `start` or `goal` lie outside `bounds`.
    pub fn new(
        name: impl Into<String>,
        bounds: Aabb,
        obstacles: Vec<Obstacle>,
        start: Vec3,
        goal: Vec3,
    ) -> Self {
        assert!(bounds.contains(start), "start must lie inside the environment bounds");
        assert!(bounds.contains(goal), "goal must lie inside the environment bounds");
        Self { name: name.into(), bounds, obstacles, start, goal }
    }

    /// Environment name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Free-space bounds.
    pub fn bounds(&self) -> Aabb {
        self.bounds
    }

    /// The obstacle list.
    pub fn obstacles(&self) -> &[Obstacle] {
        &self.obstacles
    }

    /// Mission start position.
    pub fn start(&self) -> Vec3 {
        self.start
    }

    /// Mission goal position.
    pub fn goal(&self) -> Vec3 {
        self.goal
    }

    /// Straight-line distance from start to goal.
    pub fn mission_length(&self) -> f64 {
        self.start.distance(self.goal)
    }

    /// Returns `true` if `point` is inside the bounds and outside every
    /// obstacle inflated by `margin`.
    pub fn is_free(&self, point: Vec3, margin: f64) -> bool {
        if !self.bounds.contains(point) {
            return false;
        }
        self.obstacles.iter().all(|obstacle| !obstacle.aabb.inflated(margin).contains(point))
    }

    /// Returns `true` if the straight segment between `a` and `b` stays
    /// clear of every obstacle inflated by `margin`.
    pub fn segment_clear(&self, a: Vec3, b: Vec3, margin: f64) -> bool {
        self.obstacles
            .iter()
            .all(|obstacle| !obstacle.aabb.inflated(margin).intersects_segment(a, b))
    }

    /// Distance from `point` to the nearest obstacle surface (approximated
    /// by obstacle centers minus half extents along the dominant axis), or
    /// `f64::INFINITY` when the environment is obstacle-free.
    pub fn nearest_obstacle_distance(&self, point: Vec3) -> f64 {
        self.obstacles
            .iter()
            .map(|obstacle| {
                let aabb = obstacle.aabb;
                let clamped = Vec3::new(
                    point.x.clamp(aabb.min.x, aabb.max.x),
                    point.y.clamp(aabb.min.y, aabb.max.y),
                    point.z.clamp(aabb.min.z, aabb.max.z),
                );
                clamped.distance(point)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Fraction of the bounding volume occupied by obstacles (an
    /// approximation of the paper's obstacle-density configuration knob).
    pub fn obstacle_density(&self) -> f64 {
        let bounds_size = self.bounds.size();
        let bounds_volume = bounds_size.x * bounds_size.y * bounds_size.z;
        if bounds_volume <= 0.0 {
            return 0.0;
        }
        let occupied: f64 = self
            .obstacles
            .iter()
            .map(|obstacle| {
                let size = obstacle.aabb.size();
                size.x * size.y * size.z
            })
            .sum();
        occupied / bounds_volume
    }
}

/// The four evaluation environments of the paper plus the randomized
/// training distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum EnvironmentKind {
    /// UE4 factory-like scene: walls and large blocks.
    Factory,
    /// UE4 farm scene: essentially obstacle-free with low hedges.
    Farm,
    /// Generated environment with configuration `[0.05, 6]`.
    Sparse,
    /// Generated environment with configuration `[0.2, 10]`.
    Dense,
    /// Randomized training environment drawn from the generator used to
    /// train the detectors (paper §V, "Training Environments").
    Randomized,
}

impl EnvironmentKind {
    /// All evaluation environments, in the order the paper's tables use.
    pub const EVALUATION: [Self; 4] = [Self::Factory, Self::Farm, Self::Sparse, Self::Dense];

    /// Short display name used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::Factory => "Factory",
            Self::Farm => "Farm",
            Self::Sparse => "Sparse",
            Self::Dense => "Dense",
            Self::Randomized => "Randomized",
        }
    }

    /// Builds the environment.  `seed` controls procedural generation; the
    /// hand-authored Factory and Farm layouts ignore it.
    pub fn build(self, seed: u64) -> Environment {
        match self {
            Self::Factory => factory(),
            Self::Farm => farm(),
            Self::Sparse => EnvironmentGenerator::new(0.05, 6.0).with_seed(seed).generate("Sparse"),
            Self::Dense => EnvironmentGenerator::new(0.2, 10.0).with_seed(seed).generate("Dense"),
            Self::Randomized => {
                let mut rng = StdRng::seed_from_u64(seed);
                let density = rng.gen_range(0.02..0.25);
                let side = rng.gen_range(3.0..12.0);
                EnvironmentGenerator::new(density, side).with_seed(rng.gen()).generate("Randomized")
            }
        }
    }
}

/// Procedural cuboid-obstacle environment generator, mirroring the UAV
/// environment generator of the paper (obstacle density plus obstacle side
/// length as the configuration pair).
#[derive(Debug, Clone, PartialEq)]
pub struct EnvironmentGenerator {
    density: f64,
    side_length: f64,
    bounds: Aabb,
    seed: u64,
    altitude: f64,
}

/// Default world extent (meters) used by the generator.
const WORLD_HALF_EXTENT: f64 = 40.0;
/// Default flight altitude used for start and goal.
const FLIGHT_ALTITUDE: f64 = 2.5;
/// Clearance between start/goal and the nearest obstacle *edge*, so missions
/// always begin and end in free space with room to maneuver.  The generator
/// adds the obstacle's own half-diagonal on top of this, since a cuboid whose
/// center clears a fixed radius can still cover the corner points when its
/// side length is large (Dense uses 10 m cubes, Randomized up to 12 m).
const KEEP_OUT_CLEARANCE: f64 = 2.0;

impl EnvironmentGenerator {
    /// Creates a generator from the paper's `[density, side length]`
    /// configuration pair.
    ///
    /// # Panics
    ///
    /// Panics if `density` is not within `[0, 1)` or `side_length` is not
    /// positive and finite.
    pub fn new(density: f64, side_length: f64) -> Self {
        assert!((0.0..1.0).contains(&density), "obstacle density must be in [0, 1)");
        assert!(side_length > 0.0 && side_length.is_finite(), "side length must be positive");
        Self {
            density,
            side_length,
            bounds: Aabb::new(
                Vec3::new(-WORLD_HALF_EXTENT, -WORLD_HALF_EXTENT, 0.0),
                Vec3::new(WORLD_HALF_EXTENT, WORLD_HALF_EXTENT, 12.0),
            ),
            seed: 0,
            altitude: FLIGHT_ALTITUDE,
        }
    }

    /// Sets the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the world bounds (builder style).
    pub fn with_bounds(mut self, bounds: Aabb) -> Self {
        self.bounds = bounds;
        self
    }

    /// Configured obstacle density.
    pub fn density(&self) -> f64 {
        self.density
    }

    /// Configured obstacle side length in meters.
    pub fn side_length(&self) -> f64 {
        self.side_length
    }

    /// Generates an environment.
    pub fn generate(&self, name: impl Into<String>) -> Environment {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let size = self.bounds.size();
        let ground_area = size.x * size.y;
        let obstacle_footprint = self.side_length * self.side_length;
        let target_count = ((ground_area * self.density) / obstacle_footprint).round() as usize;

        let start = Vec3::new(self.bounds.min.x + 4.0, self.bounds.min.y + 4.0, self.altitude);
        let goal = Vec3::new(self.bounds.max.x - 4.0, self.bounds.max.y - 4.0, self.altitude);

        let mut obstacles = Vec::with_capacity(target_count);
        let mut attempts = 0usize;
        while obstacles.len() < target_count && attempts < target_count * 20 + 100 {
            attempts += 1;
            let cx = rng.gen_range(self.bounds.min.x + 1.0..self.bounds.max.x - 1.0);
            let cy = rng.gen_range(self.bounds.min.y + 1.0..self.bounds.max.y - 1.0);
            let height = rng.gen_range(self.side_length * 0.8..self.side_length * 1.6);
            let center = Vec3::new(cx, cy, height / 2.0);
            let keep_out = self.side_length * 0.5 * std::f64::consts::SQRT_2 + KEEP_OUT_CLEARANCE;
            if center.distance_xy(start) < keep_out || center.distance_xy(goal) < keep_out {
                continue;
            }
            obstacles.push(Obstacle::from_center(
                center,
                Vec3::new(self.side_length, self.side_length, height),
            ));
        }

        Environment::new(name, self.bounds, obstacles, start, goal)
    }
}

/// Hand-authored factory layout: perimeter walls with door gaps and a grid
/// of machine blocks.
fn factory() -> Environment {
    let bounds = Aabb::new(Vec3::new(-35.0, -25.0, 0.0), Vec3::new(35.0, 25.0, 10.0));
    let mut obstacles = Vec::new();

    // Two long interior walls with gaps, forcing an S-shaped route.
    for (y, gap_x) in [(-8.0, 20.0), (8.0, -20.0)] {
        for segment in -3..=3 {
            let cx = segment as f64 * 10.0;
            if (cx - gap_x).abs() < 5.0 {
                continue;
            }
            obstacles.push(Obstacle::from_center(Vec3::new(cx, y, 3.0), Vec3::new(9.0, 1.0, 6.0)));
        }
    }

    // Machine blocks scattered on a coarse grid.
    for gx in [-25.0, -12.0, 0.0, 12.0, 25.0] {
        for gy in [-18.0, 0.0, 18.0] {
            // Leave the start and goal corners clear.
            if (gx < -20.0 && gy < -15.0) || (gx > 20.0 && gy > 15.0) {
                continue;
            }
            obstacles.push(Obstacle::from_center(Vec3::new(gx, gy, 2.0), Vec3::new(4.0, 4.0, 4.0)));
        }
    }

    Environment::new(
        "Factory",
        bounds,
        obstacles,
        Vec3::new(-31.0, -21.0, FLIGHT_ALTITUDE),
        Vec3::new(31.0, 21.0, FLIGHT_ALTITUDE),
    )
}

/// Hand-authored farm layout: essentially obstacle-free with a few low
/// hedges, matching the paper's description of Farm as the easiest scene.
fn farm() -> Environment {
    let bounds = Aabb::new(Vec3::new(-40.0, -40.0, 0.0), Vec3::new(40.0, 40.0, 12.0));
    let mut obstacles = Vec::new();
    for y in [-20.0, 0.0, 20.0] {
        obstacles.push(Obstacle::from_center(Vec3::new(0.0, y, 0.75), Vec3::new(30.0, 1.0, 1.5)));
    }
    Environment::new(
        "Farm",
        bounds,
        obstacles,
        Vec3::new(-36.0, -36.0, FLIGHT_ALTITUDE),
        Vec3::new(36.0, 36.0, FLIGHT_ALTITUDE),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_density_scales_obstacle_count() {
        let sparse = EnvironmentGenerator::new(0.05, 6.0).with_seed(1).generate("Sparse");
        let dense = EnvironmentGenerator::new(0.2, 10.0).with_seed(1).generate("Dense");
        assert!(!sparse.obstacles().is_empty());
        assert!(!dense.obstacles().is_empty());
        assert!(dense.obstacle_density() > sparse.obstacle_density());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = EnvironmentKind::Sparse.build(42);
        let b = EnvironmentKind::Sparse.build(42);
        let c = EnvironmentKind::Sparse.build(43);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn start_and_goal_are_free_in_every_evaluation_environment() {
        for kind in EnvironmentKind::EVALUATION {
            let env = kind.build(7);
            assert!(env.is_free(env.start(), 0.5), "{} start blocked", env.name());
            assert!(env.is_free(env.goal(), 0.5), "{} goal blocked", env.name());
            assert!(env.mission_length() > 10.0);
        }
    }

    #[test]
    fn keep_out_accounts_for_obstacle_footprint_across_seeds() {
        // Regression: 10 m Dense cubes whose centers cleared the old fixed
        // 6 m radius could still cover the start/goal corners (seeds 0 and 8
        // were unplannable for every planner).  The planners query with a
        // 0.7 m margin, so demand at least that much clearance everywhere.
        for seed in 0..12 {
            for kind in
                [EnvironmentKind::Sparse, EnvironmentKind::Dense, EnvironmentKind::Randomized]
            {
                let env = kind.build(seed);
                assert!(env.is_free(env.start(), 0.7), "{} seed {seed} start blocked", env.name());
                assert!(env.is_free(env.goal(), 0.7), "{} seed {seed} goal blocked", env.name());
            }
        }
    }

    #[test]
    fn farm_is_nearly_obstacle_free() {
        let farm = EnvironmentKind::Farm.build(0);
        let dense = EnvironmentKind::Dense.build(0);
        assert!(farm.obstacles().len() < dense.obstacles().len());
        assert!(farm.obstacle_density() < 0.01);
    }

    #[test]
    fn is_free_respects_margin() {
        let obstacle = Obstacle::from_center(Vec3::new(5.0, 0.0, 1.0), Vec3::splat(2.0));
        let env = Environment::new(
            "unit",
            Aabb::new(Vec3::new(-10.0, -10.0, 0.0), Vec3::new(10.0, 10.0, 10.0)),
            vec![obstacle],
            Vec3::new(-9.0, 0.0, 1.0),
            Vec3::new(9.0, 0.0, 1.0),
        );
        assert!(env.is_free(Vec3::new(3.7, 0.0, 1.0), 0.0));
        assert!(!env.is_free(Vec3::new(3.7, 0.0, 1.0), 0.5));
        assert!(!env.is_free(Vec3::new(50.0, 0.0, 1.0), 0.0), "outside bounds is not free");
    }

    #[test]
    fn segment_clear_detects_blocked_paths() {
        let env = EnvironmentKind::Factory.build(0);
        // The straight line from start to goal crosses interior walls.
        assert!(!env.segment_clear(env.start(), env.goal(), 0.3));
        // A tiny segment at the start is clear.
        let near_start = env.start() + Vec3::new(0.5, 0.0, 0.0);
        assert!(env.segment_clear(env.start(), near_start, 0.3));
    }

    #[test]
    fn nearest_obstacle_distance_decreases_towards_obstacles() {
        let env = EnvironmentKind::Dense.build(3);
        let far = env.nearest_obstacle_distance(env.start());
        assert!(far > 0.0);
        let center = env.obstacles()[0].aabb.center();
        assert_eq!(env.nearest_obstacle_distance(center), 0.0);
    }

    #[test]
    fn randomized_environments_differ_across_seeds() {
        let a = EnvironmentKind::Randomized.build(1);
        let b = EnvironmentKind::Randomized.build(2);
        assert_ne!(a.obstacles().len(), 0);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "density")]
    fn invalid_density_panics() {
        let _ = EnvironmentGenerator::new(1.5, 6.0);
    }
}
