//! Collision-check kernel: predicts time to collision and which future
//! way-point first collides.
//!
//! The kernel is a pure function of `(grid, position, velocity, trajectory,
//! active_index)`, which makes it cacheable: [`CollisionChecker::run_cached`]
//! keys its two halves — the velocity-ray march and the future-way-point
//! scan — on the [`OccupancyGrid::revision`] counter plus the inputs each
//! half actually reads, and skips the voxel probing entirely when a half's
//! key is unchanged.  See `docs/PERFORMANCE.md` for the cache invariants.

use mavfi_sim::geometry::Vec3;

use crate::perception::occupancy::{NearProbe, OccupancyGrid};
use crate::states::{CollisionEstimate, Trajectory};

/// Configuration of the collision checker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CollisionCheckerConfig {
    /// Look-ahead horizon along the velocity vector (s).
    pub horizon: f64,
    /// Obstacle inflation margin applied during checks (m).
    pub safety_margin: f64,
    /// Spatial sampling step when marching along the velocity ray (m).
    pub sample_step: f64,
}

impl Default for CollisionCheckerConfig {
    fn default() -> Self {
        Self { horizon: 4.0, safety_margin: 0.6, sample_step: 0.25 }
    }
}

/// Hit/miss counters of the two memoised halves of
/// [`CollisionChecker::run_cached`]: the runtime evidence behind the
/// "perception recovery becomes a cache hit" claim.  Counters only move on
/// `run_cached` calls with the cache enabled; [`CollisionChecker::run`] and
/// cache-disabled calls leave them untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollisionCacheStats {
    /// Velocity-ray marches served from the cache.
    pub ray_hits: u64,
    /// Velocity-ray marches that had to probe voxels.
    pub ray_misses: u64,
    /// Future-way-point scans served from the cache.
    pub scan_hits: u64,
    /// Future-way-point scans that had to probe voxels.
    pub scan_misses: u64,
}

impl CollisionCacheStats {
    /// Total lookups across both halves.
    pub fn lookups(&self) -> u64 {
        self.ray_hits + self.ray_misses + self.scan_hits + self.scan_misses
    }

    /// Total hits across both halves.
    pub fn hits(&self) -> u64 {
        self.ray_hits + self.scan_hits
    }
}

/// Cache key of the velocity-ray march: everything that half reads besides
/// the grid contents (identified by their revision).
#[derive(Debug, Clone, Copy, PartialEq)]
struct RayKey {
    grid_revision: u64,
    position: Vec3,
    velocity: Vec3,
}

/// Cache key of the future-way-point scan.  The trajectory revision is
/// caller-maintained (see [`CollisionChecker::run_cached`]); the length
/// rides along as a cheap extra guard against a stale revision.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ScanKey {
    grid_revision: u64,
    trajectory_revision: u64,
    trajectory_len: usize,
    active_index: usize,
}

/// The collision-check kernel ("Col. Ck." in the paper's Fig. 3).
#[derive(Debug, Clone, Copy)]
pub struct CollisionChecker {
    config: CollisionCheckerConfig,
    // Revision-keyed memo of the two kernel halves (`run_cached`).  The
    // cached values are `(result, hit)` pairs; a `None` or mismatched key
    // falls through to the exact computation.
    ray_cache: Option<(RayKey, (f64, bool))>,
    scan_cache: Option<(ScanKey, (f64, bool))>,
    cache_enabled: bool,
    cache_stats: CollisionCacheStats,
}

/// Checkers compare by configuration: the caches are memoisation state, not
/// semantics (a warm and a cold checker produce identical estimates).
impl PartialEq for CollisionChecker {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
    }
}

impl Default for CollisionChecker {
    fn default() -> Self {
        Self::new(CollisionCheckerConfig::default())
    }
}

impl CollisionChecker {
    /// Creates a collision checker.
    pub fn new(config: CollisionCheckerConfig) -> Self {
        Self {
            config,
            ray_cache: None,
            scan_cache: None,
            cache_enabled: true,
            cache_stats: CollisionCacheStats::default(),
        }
    }

    /// Hit/miss counters of the revision cache.  Counters accumulate over
    /// the checker's lifetime (one mission for the pipeline-owned checker)
    /// and are not part of equality.
    pub fn cache_stats(&self) -> CollisionCacheStats {
        self.cache_stats
    }

    /// The active configuration.
    pub fn config(&self) -> CollisionCheckerConfig {
        self.config
    }

    /// Enables or disables the revision cache of
    /// [`run_cached`](Self::run_cached) (enabled by default, and cleared on
    /// disable).  A verification knob: equivalence tests fly the same
    /// mission cached and uncached and assert bit-identical outcomes.
    pub fn set_cache_enabled(&mut self, enabled: bool) {
        self.cache_enabled = enabled;
        if !enabled {
            self.ray_cache = None;
            self.scan_cache = None;
        }
    }

    /// Time to collision along the velocity direction: `(ttc, hit)`.
    fn march_ray(&self, grid: &OccupancyGrid, position: Vec3, velocity: Vec3) -> (f64, bool) {
        let speed = velocity.norm();
        if speed > 0.1 {
            let direction = velocity / speed;
            let max_distance = speed * self.config.horizon;
            let steps = (max_distance / self.config.sample_step).ceil() as usize;
            let mut probe = NearProbe::new(grid, self.config.safety_margin);
            for i in 1..=steps {
                let distance = i as f64 * self.config.sample_step;
                if probe.occupied_near(position + direction * distance) {
                    return (distance / speed, true);
                }
            }
        }
        (f64::INFINITY, false)
    }

    /// First planned way-point inside an obstacle: `(sequence, hit)`.
    fn scan_waypoints(
        &self,
        grid: &OccupancyGrid,
        trajectory: &Trajectory,
        active_index: usize,
    ) -> (f64, bool) {
        let mut probe = NearProbe::new(grid, self.config.safety_margin);
        for (offset, waypoint) in trajectory.waypoints.iter().enumerate().skip(active_index) {
            if probe.occupied_near(waypoint.position) {
                return (offset as f64, true);
            }
        }
        (-1.0, false)
    }

    /// Produces a collision estimate from the occupancy map, the vehicle
    /// kinematics and the remaining planned trajectory.
    ///
    /// `active_index` is the index of the way-point the controller is
    /// currently tracking; only way-points from that index onwards are
    /// considered "future".
    pub fn run(
        &self,
        grid: &OccupancyGrid,
        position: Vec3,
        velocity: Vec3,
        trajectory: &Trajectory,
        active_index: usize,
    ) -> CollisionEstimate {
        let (time_to_collision, ray_hit) = self.march_ray(grid, position, velocity);
        let (future_collision_seq, scan_hit) = self.scan_waypoints(grid, trajectory, active_index);
        CollisionEstimate {
            time_to_collision,
            future_collision_seq,
            obstacle_ahead: ray_hit || scan_hit,
        }
    }

    /// [`run`](Self::run) with revision-keyed memoisation of both kernel
    /// halves — bit-identical output, but a half whose inputs are unchanged
    /// skips its voxel probing entirely.
    ///
    /// The grid side of each key is [`OccupancyGrid::revision`]; the caller
    /// supplies `trajectory_revision`, a counter it must bump whenever the
    /// trajectory contents change ([`PpcPipeline`] shadow-compares the
    /// stored trajectory after the planning stage, so tap mutations —
    /// fault corruption, abandonment restores — are caught too).
    ///
    /// Contract: a checker instance must be fed a single grid / trajectory
    /// lineage.  Feeding two different grids that happen to share a
    /// revision value could return a stale estimate; the pipeline owns one
    /// grid, one trajectory and one checker, which satisfies this by
    /// construction.
    ///
    /// [`PpcPipeline`]: crate::pipeline::PpcPipeline
    pub fn run_cached(
        &mut self,
        grid: &OccupancyGrid,
        position: Vec3,
        velocity: Vec3,
        trajectory: &Trajectory,
        trajectory_revision: u64,
        active_index: usize,
    ) -> CollisionEstimate {
        if !self.cache_enabled {
            return self.run(grid, position, velocity, trajectory, active_index);
        }

        let ray_key = RayKey { grid_revision: grid.revision(), position, velocity };
        let (time_to_collision, ray_hit) = match self.ray_cache {
            Some((key, value)) if key == ray_key => {
                self.cache_stats.ray_hits += 1;
                value
            }
            _ => {
                self.cache_stats.ray_misses += 1;
                let value = self.march_ray(grid, position, velocity);
                self.ray_cache = Some((ray_key, value));
                value
            }
        };

        let scan_key = ScanKey {
            grid_revision: grid.revision(),
            trajectory_revision,
            trajectory_len: trajectory.len(),
            active_index,
        };
        let (future_collision_seq, scan_hit) = match self.scan_cache {
            Some((key, value)) if key == scan_key => {
                self.cache_stats.scan_hits += 1;
                value
            }
            _ => {
                self.cache_stats.scan_misses += 1;
                let value = self.scan_waypoints(grid, trajectory, active_index);
                self.scan_cache = Some((scan_key, value));
                value
            }
        };

        CollisionEstimate {
            time_to_collision,
            future_collision_seq,
            obstacle_ahead: ray_hit || scan_hit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::states::Waypoint;

    fn wall_grid() -> OccupancyGrid {
        let mut grid = OccupancyGrid::new(0.5);
        for y in -4..=4 {
            for z in 0..=6 {
                grid.insert_point(Vec3::new(10.0, y as f64 * 0.5, z as f64 * 0.5));
            }
        }
        grid
    }

    #[test]
    fn clear_path_reports_no_collision() {
        let grid = OccupancyGrid::new(0.5);
        let checker = CollisionChecker::default();
        let estimate =
            checker.run(&grid, Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0), &Trajectory::default(), 0);
        assert!(!estimate.obstacle_ahead);
        assert!(estimate.time_to_collision.is_infinite());
        assert_eq!(estimate.future_collision_seq, -1.0);
    }

    #[test]
    fn wall_ahead_yields_finite_time_to_collision() {
        let grid = wall_grid();
        let checker = CollisionChecker::default();
        let speed = 3.0;
        let estimate = checker.run(
            &grid,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(speed, 0.0, 0.0),
            &Trajectory::default(),
            0,
        );
        assert!(estimate.obstacle_ahead);
        assert!(estimate.time_to_collision.is_finite());
        // The wall is ~10 m away; at 3 m/s the TTC is ~3.3 s, within horizon 4 s.
        assert!(estimate.time_to_collision > 2.0 && estimate.time_to_collision < 4.0);
    }

    #[test]
    fn slow_vehicle_does_not_see_far_wall() {
        let grid = wall_grid();
        let checker = CollisionChecker::default();
        let estimate = checker.run(
            &grid,
            Vec3::new(0.0, 0.0, 1.0),
            Vec3::new(0.5, 0.0, 0.0),
            &Trajectory::default(),
            0,
        );
        // At 0.5 m/s the 4 s horizon only covers 2 m.
        assert!(estimate.time_to_collision.is_infinite());
    }

    /// Six way-points of which #2 and #3 sit inside `wall_grid`'s wall.
    fn straight_trajectory() -> Trajectory {
        let positions = [
            Vec3::new(2.0, 0.0, 1.0),
            Vec3::new(6.0, 0.0, 1.0),
            Vec3::new(10.0, 0.0, 1.0),
            Vec3::new(10.0, 1.0, 1.0),
            Vec3::new(18.0, 0.0, 1.0),
            Vec3::new(22.0, 0.0, 1.0),
        ];
        Trajectory::new(
            positions
                .into_iter()
                .map(|position| Waypoint { position, ..Waypoint::default() })
                .collect(),
        )
    }

    #[test]
    fn run_cached_matches_run_for_every_revision_state() {
        let mut grid = wall_grid();
        let mut checker = CollisionChecker::default();
        let reference = CollisionChecker::default();
        let mut trajectory = straight_trajectory();
        let position = Vec3::new(0.0, 0.0, 1.0);
        let velocity = Vec3::new(3.0, 0.0, 0.0);

        // Cold, warm (same key) and warm-after-mutation calls all match the
        // uncached kernel bit for bit.  One trajectory mutation per round,
        // so the revision equals the round index.
        for round in 0..3 {
            let trajectory_revision = round as u64;
            for repeat in 0..2 {
                let cached = checker.run_cached(
                    &grid,
                    position,
                    velocity,
                    &trajectory,
                    trajectory_revision,
                    0,
                );
                let fresh = reference.run(&grid, position, velocity, &trajectory, 0);
                assert_eq!(cached, fresh, "round {round} repeat {repeat}");
            }
            // Mutate both cache dimensions between rounds.
            grid.insert_point(Vec3::new(6.0, round as f64, 1.0));
            trajectory.waypoints[round].position.z = 20.0;
        }
    }

    #[test]
    fn run_cached_actually_skips_when_revisions_are_unchanged() {
        // White-box: mutate the trajectory *without* bumping the caller-side
        // revision.  A stale (cached) scan result proves the way-point march
        // was skipped — which is exactly the contract violation the revision
        // counter exists to prevent.
        let grid = wall_grid();
        let mut checker = CollisionChecker::default();
        let mut trajectory = straight_trajectory();
        let warm = checker.run_cached(&grid, Vec3::ZERO, Vec3::ZERO, &trajectory, 0, 0);
        assert_eq!(warm.future_collision_seq, 2.0, "way-point 2 sits inside the wall");

        // Move the colliding way-point clear of the wall, same length.
        trajectory.waypoints[2].position.y = 15.0;
        let stale = checker.run_cached(&grid, Vec3::ZERO, Vec3::ZERO, &trajectory, 0, 0);
        assert_eq!(stale.future_collision_seq, 2.0, "unchanged key must not re-scan");

        // Bumping the revision invalidates the scan half.
        let fresh = checker.run_cached(&grid, Vec3::ZERO, Vec3::ZERO, &trajectory, 1, 0);
        assert_eq!(fresh.future_collision_seq, 3.0, "way-point 3 is the next one in the wall");
    }

    #[test]
    fn disabling_the_cache_recomputes_every_call() {
        let grid = wall_grid();
        let mut checker = CollisionChecker::default();
        let mut trajectory = straight_trajectory();
        let _ = checker.run_cached(&grid, Vec3::ZERO, Vec3::ZERO, &trajectory, 0, 0);
        checker.set_cache_enabled(false);
        trajectory.waypoints[2].position.y = 15.0;
        // Same (stale) revision, but the disabled cache recomputes anyway.
        let fresh = checker.run_cached(&grid, Vec3::ZERO, Vec3::ZERO, &trajectory, 0, 0);
        assert_eq!(fresh.future_collision_seq, 3.0);
    }

    #[test]
    fn cache_stats_count_hits_and_misses_per_half() {
        let grid = wall_grid();
        let mut checker = CollisionChecker::default();
        let trajectory = straight_trajectory();
        assert_eq!(checker.cache_stats(), CollisionCacheStats::default());

        // Cold call: both halves miss.
        let _ = checker.run_cached(&grid, Vec3::ZERO, Vec3::ZERO, &trajectory, 0, 0);
        let cold = checker.cache_stats();
        assert_eq!((cold.ray_misses, cold.scan_misses), (1, 1));
        assert_eq!(cold.hits(), 0);

        // Warm call with identical keys: both halves hit.
        let _ = checker.run_cached(&grid, Vec3::ZERO, Vec3::ZERO, &trajectory, 0, 0);
        let warm = checker.cache_stats();
        assert_eq!((warm.ray_hits, warm.scan_hits), (1, 1));
        assert_eq!(warm.lookups(), 4);
        assert_eq!(warm.hits(), 2);

        // Bumping the trajectory revision invalidates only the scan half.
        let _ = checker.run_cached(&grid, Vec3::ZERO, Vec3::ZERO, &trajectory, 1, 0);
        let split = checker.cache_stats();
        assert_eq!((split.ray_hits, split.scan_hits), (2, 1));
        assert_eq!((split.ray_misses, split.scan_misses), (1, 2));

        // Disabled-cache calls leave the counters untouched.
        checker.set_cache_enabled(false);
        let _ = checker.run_cached(&grid, Vec3::ZERO, Vec3::ZERO, &trajectory, 1, 0);
        assert_eq!(checker.cache_stats(), split);
    }

    #[test]
    fn future_collision_seq_reports_first_bad_waypoint() {
        let grid = wall_grid();
        let checker = CollisionChecker::default();
        let trajectory = Trajectory::new(vec![
            Waypoint { position: Vec3::new(2.0, 0.0, 1.0), ..Waypoint::default() },
            Waypoint { position: Vec3::new(6.0, 0.0, 1.0), ..Waypoint::default() },
            Waypoint { position: Vec3::new(10.0, 0.0, 1.0), ..Waypoint::default() },
            Waypoint { position: Vec3::new(14.0, 0.0, 1.0), ..Waypoint::default() },
        ]);
        let estimate = checker.run(&grid, Vec3::ZERO, Vec3::ZERO, &trajectory, 0);
        assert_eq!(estimate.future_collision_seq, 2.0);
        assert!(estimate.obstacle_ahead);

        // Starting the scan beyond the colliding way-point skips it.
        let estimate_late = checker.run(&grid, Vec3::ZERO, Vec3::ZERO, &trajectory, 3);
        assert_eq!(estimate_late.future_collision_seq, -1.0);
    }
}
