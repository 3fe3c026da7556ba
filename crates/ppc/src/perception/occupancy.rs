//! Voxel occupancy map, the OctoMap stand-in.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use mavfi_sim::geometry::Vec3;

use crate::states::PointCloud;

/// Integer voxel coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VoxelKey {
    /// Voxel index along X.
    pub x: i64,
    /// Voxel index along Y.
    pub y: i64,
    /// Voxel index along Z.
    pub z: i64,
}

/// Deterministic multiplicative hasher for voxel keys (FxHash-style).
///
/// Voxel lookups dominate the per-tick cost of the collision-check kernel
/// (every sample probes a neighbourhood of voxels), and the standard
/// library's SipHash spends more time hashing the 24-byte key than the table
/// probe costs.  Nothing here needs SipHash's DoS resistance — keys are
/// simulation geometry, not attacker input — so a fixed multiply-xor mix
/// keeps lookups cheap and, unlike `RandomState`, is identical across
/// processes.
#[derive(Debug, Clone, Copy, Default)]
pub struct VoxelHasher(u64);

impl Hasher for VoxelHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (unused by `VoxelKey`, whose derived `Hash`
        // dispatches to `write_i64`).
        for &byte in bytes {
            self.add(u64::from(byte));
        }
    }

    fn write_i64(&mut self, value: i64) {
        self.add(value as u64);
    }

    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }
}

impl VoxelHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, value: u64) {
        self.0 = (self.0.rotate_left(5) ^ value).wrapping_mul(Self::SEED);
    }
}

/// The voxel set type: a standard `HashSet` with the deterministic
/// [`VoxelHasher`].
type VoxelSet = HashSet<VoxelKey, BuildHasherDefault<VoxelHasher>>;

/// The near-obstacle mask: a sparse map of 4×4×4-cell bricks, each one
/// `u64` bit mask (the leaf layout of VDB, Museth, ACM TOG 2013).  Cell
/// `(x, y, z)` lives in brick `(x >> 2, y >> 2, z >> 2)` at bit
/// [`brick_bit`]; the arithmetic shift is floor division, so negative keys
/// need no special case.
type BrickMask = HashMap<VoxelKey, u64, BuildHasherDefault<VoxelHasher>>;

/// Chebyshev radius (in voxels) of the near-obstacle mask kept alongside the
/// occupied set: every cell within this many voxels of an occupied voxel is
/// marked.  [`NearProbe`] queries whose inflation cube fits inside this
/// radius (`ceil(margin / resolution) <=` this) reject free-space points
/// with one bit test, reading the brick map only when a point leaves the
/// previous point's brick, instead of scanning the whole cube.  Two voxels
/// covers every margin the pipeline uses (planner margin 0.7 m at 0.5 m
/// resolution); larger margins simply skip the fast path.  The 5-cell cube
/// of one voxel spans at most two bricks per axis, so marking it ORs at most
/// eight words.
const NEAR_MASK_STEPS: i64 = 2;

/// Key of the brick holding cell `key`.
fn brick_of(key: VoxelKey) -> VoxelKey {
    VoxelKey { x: key.x >> 2, y: key.y >> 2, z: key.z >> 2 }
}

/// Bit of cell `key` inside its brick's word.
fn brick_bit(key: VoxelKey) -> u32 {
    ((key.x & 3) | (key.y & 3) << 2 | (key.z & 3) << 4) as u32
}

/// The cells of `lo..=hi` that lie in brick `brick` along one axis, placed
/// at that axis's bit `stride` (1 for x, 4 for y, 16 for z): brick-local
/// cells `a..=b` set bits `a * stride .. (b + 1) * stride`.
fn axis_span(brick: i64, lo: i64, hi: i64, stride: u32) -> u64 {
    let base = brick << 2;
    let a = (lo.max(base) - base) as u32;
    let b = (hi.min(base + 3) - base) as u32;
    u64::MAX >> (64 - (b + 1 - a) * stride) << (a * stride)
}

/// `x.floor() as i64`, bit for bit, for every `f64` (NaN maps to 0 and
/// out-of-range values saturate, as `as` does), without the libm call that
/// `f64::floor` compiles to on baseline x86-64: truncate, then step down
/// when truncation rounded a negative fraction up.
pub(crate) fn floor_to_i64(x: f64) -> i64 {
    let truncated = x as i64;
    if truncated as f64 > x {
        truncated.saturating_sub(1)
    } else {
        truncated
    }
}

/// A sparse voxel occupancy grid built incrementally from point clouds.
///
/// The paper's OctoMap node plays exactly this role: turn point clouds into
/// a queryable obstacle representation for collision checking and motion
/// planning.  A hash-set-of-voxels keeps the behaviourally relevant property
/// (local obstacle queries, incremental updates, bounded resolution) without
/// the octree machinery.
///
/// # Examples
///
/// ```
/// use mavfi_ppc::perception::OccupancyGrid;
/// use mavfi_sim::geometry::Vec3;
///
/// let mut grid = OccupancyGrid::new(0.5);
/// grid.insert_point(Vec3::new(1.0, 2.0, 3.0));
/// assert!(grid.is_occupied(Vec3::new(1.1, 2.1, 3.1)));
/// assert!(!grid.is_occupied(Vec3::new(5.0, 5.0, 5.0)));
/// ```
#[derive(Debug)]
pub struct OccupancyGrid {
    resolution: f64,
    voxels: VoxelSet,
    /// Cells within [`NEAR_MASK_STEPS`] voxels (Chebyshev) of any voxel that
    /// has *ever* been occupied since the last [`OccupancyGrid::clear`],
    /// stored as bricks of 64 bits (see [`BrickMask`]).  Maintained on
    /// insertion only: removals leave stale marks, which keeps the mask a
    /// superset of the true dilation — exactly what the fast reject of
    /// [`NearProbe`] needs (an unmarked cell provably has no occupied voxel
    /// in reach; a stale mark merely falls through to the exact scan).
    /// Derived state: excluded from equality.
    near_mask: BrickMask,
    /// Monotonic mutation counter: bumped every time the occupied voxel set
    /// actually changes (inserting an already-occupied voxel or removing a
    /// free one does not count).  Consumers such as the
    /// [`CollisionChecker`](crate::perception::CollisionChecker) key caches
    /// on it: an unchanged revision guarantees every occupancy query would
    /// return exactly what it returned before.
    revision: u64,
}

/// `clone_from` reuses the target's hash tables whenever their bucket counts
/// match the source's, so refreshing a mid-mission checkpoint of the map
/// allocates only when the map has outgrown the copy.  Both tables hold
/// plain `Copy` entries, so a same-size refresh is a table copy.  The
/// bricked mask holds up to 64 cells per entry, which made a refresh 7×
/// cheaper than with a per-cell mask on a 294-voxel Sparse map and 18× on a
/// 3 562-voxel Dense one (2-core x86-64 host).
impl Clone for OccupancyGrid {
    fn clone(&self) -> Self {
        Self { voxels: self.voxels.clone(), near_mask: self.near_mask.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        self.voxels.clone_from(&source.voxels);
        self.near_mask.clone_from(&source.near_mask);
        self.resolution = source.resolution;
        self.revision = source.revision;
    }
}

/// Equality is *logical* — same resolution and same occupied voxel set.  The
/// revision counter is bookkeeping (two grids that reached the same contents
/// through different edit histories are equal).
impl PartialEq for OccupancyGrid {
    fn eq(&self, other: &Self) -> bool {
        self.resolution == other.resolution && self.voxels == other.voxels
    }
}

impl OccupancyGrid {
    /// Creates an empty grid with the given voxel edge length in meters.
    ///
    /// # Panics
    ///
    /// Panics if `resolution` is not positive and finite.
    pub fn new(resolution: f64) -> Self {
        assert!(resolution > 0.0 && resolution.is_finite(), "voxel resolution must be positive");
        Self {
            resolution,
            voxels: VoxelSet::default(),
            near_mask: BrickMask::default(),
            revision: 0,
        }
    }

    /// Marks every cell within [`NEAR_MASK_STEPS`] of a newly occupied voxel
    /// (saturating at the key range edge, matching the saturated probe cube
    /// of [`NearProbe`]).  Inside each brick it touches, the cube is the
    /// product of three contiguous axis spans: replicating the x span across
    /// every (y, z) row and the y span across every z layer turns the
    /// product into an AND of three words.
    fn mark_near(&mut self, key: VoxelKey) {
        let range = |k: i64| (k.saturating_sub(NEAR_MASK_STEPS), k.saturating_add(NEAR_MASK_STEPS));
        let (x_lo, x_hi) = range(key.x);
        let (y_lo, y_hi) = range(key.y);
        let (z_lo, z_hi) = range(key.z);
        for bx in (x_lo >> 2)..=(x_hi >> 2) {
            let x_bits = axis_span(bx, x_lo, x_hi, 1) * 0x1111_1111_1111_1111;
            for by in (y_lo >> 2)..=(y_hi >> 2) {
                let xy_bits = x_bits & (axis_span(by, y_lo, y_hi, 4) * 0x0001_0001_0001_0001);
                for bz in (z_lo >> 2)..=(z_hi >> 2) {
                    let bits = xy_bits & axis_span(bz, z_lo, z_hi, 16);
                    *self.near_mask.entry(VoxelKey { x: bx, y: by, z: bz }).or_insert(0) |= bits;
                }
            }
        }
    }

    /// Voxel edge length (m).
    pub fn resolution(&self) -> f64 {
        self.resolution
    }

    /// The grid's monotonic mutation counter.
    ///
    /// Two reads returning the same value bracket a window in which no voxel
    /// was added or removed, so any occupancy query repeated inside the
    /// window returns a bit-identical result.  The counter only moves on
    /// *effective* mutations: re-inserting an occupied voxel (the common
    /// case when a hovering vehicle re-observes the same obstacles every
    /// tick) leaves it untouched.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Number of occupied voxels.
    pub fn occupied_count(&self) -> usize {
        self.voxels.len()
    }

    /// Returns `true` when no voxel is occupied.
    pub fn is_empty(&self) -> bool {
        self.voxels.is_empty()
    }

    /// Converts a world point to its voxel key.
    pub fn key_for(&self, point: Vec3) -> VoxelKey {
        VoxelKey {
            x: floor_to_i64(point.x / self.resolution),
            y: floor_to_i64(point.y / self.resolution),
            z: floor_to_i64(point.z / self.resolution),
        }
    }

    /// Center of a voxel in world coordinates.
    pub fn voxel_center(&self, key: VoxelKey) -> Vec3 {
        Vec3::new(
            (key.x as f64 + 0.5) * self.resolution,
            (key.y as f64 + 0.5) * self.resolution,
            (key.z as f64 + 0.5) * self.resolution,
        )
    }

    /// Marks the voxel containing `point` as occupied.  Non-finite points
    /// are ignored (they cannot be mapped to a voxel).
    pub fn insert_point(&mut self, point: Vec3) {
        if point.is_finite() {
            let key = self.key_for(point);
            if self.voxels.insert(key) {
                self.revision += 1;
                self.mark_near(key);
            }
        }
    }

    /// Inserts every point of a cloud.
    pub fn insert_cloud(&mut self, cloud: &PointCloud) {
        for &point in &cloud.points {
            self.insert_point(point);
        }
    }

    /// Directly sets a voxel's occupancy (used by kernel-level fault
    /// injection to flip voxels, and by recovery to undo it).  Returns the
    /// previous occupancy.
    pub fn set_voxel(&mut self, key: VoxelKey, occupied: bool) -> bool {
        let was_occupied =
            if occupied { !self.voxels.insert(key) } else { self.voxels.remove(&key) };
        if was_occupied != occupied {
            self.revision += 1;
            if occupied {
                self.mark_near(key);
            }
            // Removal leaves the near mask untouched: stale marks only send
            // queries down the exact scan, never change what it returns.
        }
        was_occupied
    }

    /// Returns `true` if the voxel containing `point` is occupied.
    pub fn is_occupied(&self, point: Vec3) -> bool {
        point.is_finite() && self.voxels.contains(&self.key_for(point))
    }

    /// Returns `true` if any voxel within `margin` meters of `point` is
    /// occupied (a cheap obstacle-inflation query): an occupied voxel within
    /// `ceil(margin / resolution)` voxels (Chebyshev) of the point's cell
    /// whose center lies within `margin + resolution` of the point.
    ///
    /// This is the hottest query in the pipeline: the collision-check kernel
    /// asks it for every marched sample, and the sampling-based planners
    /// march hundreds of thousands of segment samples per replan.  Each
    /// march drives one probe cursor, which answers most free-space samples
    /// with a bit test on a cached near-mask brick word; this one-point form
    /// builds a cursor for a single query.
    pub fn is_occupied_near(&self, point: Vec3, margin: f64) -> bool {
        NearProbe::new(self, margin).occupied_near(point)
    }

    /// Returns `true` if the straight segment from `a` to `b`, inflated by
    /// `margin`, touches no occupied voxel.
    ///
    /// Samples [`OccupancyGrid::is_occupied_near`] every half resolution
    /// along the segment through one probe cursor: free-space samples cost a
    /// bit test, plus a near-mask read each time the march enters a new
    /// brick (every 2 m at 0.5 m resolution), so only the stretches of a
    /// segment that actually pass close to obstacles pay for neighbourhood
    /// scans.
    pub fn segment_free(&self, a: Vec3, b: Vec3, margin: f64) -> bool {
        if self.voxels.is_empty() {
            return true;
        }
        let length = a.distance(b);
        let step = (self.resolution * 0.5).max(1e-3);
        let count = (length / step).ceil() as usize;
        let mut probe = NearProbe::new(self, margin);
        for i in 0..=count {
            let t = if count == 0 { 0.0 } else { i as f64 / count as f64 };
            if probe.occupied_near(a.lerp(b, t)) {
                return false;
            }
        }
        true
    }

    /// Iterates over the occupied voxel keys in an arbitrary but stable
    /// order within one program run.
    pub fn occupied_voxels(&self) -> impl Iterator<Item = VoxelKey> + '_ {
        self.voxels.iter().copied()
    }

    /// Removes every voxel.
    pub fn clear(&mut self) {
        if !self.voxels.is_empty() {
            self.revision += 1;
        }
        self.voxels.clear();
        self.near_mask.clear();
    }
}

/// [`OccupancyGrid::is_occupied_near`] at one margin, for a run of points.
///
/// Everything that depends only on the margin (the cube radius, the reach
/// and its pruning bound) is computed once.  The probe also keeps the last
/// near-mask brick it read, so consecutive points in the same brick (a
/// march's neighbouring samples) answer the free-space case with a bit test
/// and no map read.  A marked cell falls through to the exact scan of the
/// saturated cube, which prunes candidates by squared distance *before* the
/// set lookup, with the bound slightly inflated so boundary candidates still
/// reach the exact `distance <= margin + resolution` test: the answer is
/// bit-identical to the unpruned scan.
pub(crate) struct NearProbe<'a> {
    grid: &'a OccupancyGrid,
    steps: i64,
    reach: f64,
    prune_sq: f64,
    /// The cube fits the mask radius, so an unmarked cell answers `false`.
    masked: bool,
    /// Brick `word` was read from.  Brick keys are at most `i64::MAX >> 2`,
    /// so the initial `i64::MAX` key names no brick.
    brick: VoxelKey,
    word: u64,
}

impl<'a> NearProbe<'a> {
    /// A probe of `grid` at inflation `margin`.
    pub(crate) fn new(grid: &'a OccupancyGrid, margin: f64) -> Self {
        let steps = (margin / grid.resolution).ceil() as i64;
        let reach = margin + grid.resolution;
        Self {
            grid,
            steps,
            reach,
            prune_sq: (reach * reach) * (1.0 + 1e-9),
            masked: steps <= NEAR_MASK_STEPS,
            brick: VoxelKey { x: i64::MAX, y: i64::MAX, z: i64::MAX },
            word: 0,
        }
    }

    /// [`OccupancyGrid::is_occupied_near`] of `point` at this probe's margin.
    pub(crate) fn occupied_near(&mut self, point: Vec3) -> bool {
        if !point.is_finite() || self.grid.voxels.is_empty() {
            return false;
        }
        let center = self.grid.key_for(point);
        if self.masked {
            let brick = brick_of(center);
            if brick != self.brick {
                self.brick = brick;
                self.word = self.grid.near_mask.get(&brick).copied().unwrap_or(0);
            }
            if self.word >> brick_bit(center) & 1 == 0 {
                return false;
            }
        }
        self.scan(point, center)
    }

    /// The exact neighbourhood scan around `center`, the key of `point`.
    fn scan(&self, point: Vec3, center: VoxelKey) -> bool {
        let grid = self.grid;
        let steps = self.steps;
        for dx in -steps..=steps {
            // Saturate: fault injection can corrupt coordinates to the edge
            // of the i64 key range, where plain addition overflows.
            let x = center.x.saturating_add(dx);
            let ox = (x as f64 + 0.5) * grid.resolution - point.x;
            let ox_sq = ox * ox;
            if ox_sq > self.prune_sq {
                continue;
            }
            for dy in -steps..=steps {
                let y = center.y.saturating_add(dy);
                let oy = (y as f64 + 0.5) * grid.resolution - point.y;
                let oxy_sq = ox_sq + oy * oy;
                if oxy_sq > self.prune_sq {
                    continue;
                }
                for dz in -steps..=steps {
                    let z = center.z.saturating_add(dz);
                    let oz = (z as f64 + 0.5) * grid.resolution - point.z;
                    if oxy_sq + oz * oz > self.prune_sq {
                        continue;
                    }
                    let key = VoxelKey { x, y, z };
                    if grid.voxels.contains(&key)
                        && grid.voxel_center(key).distance(point) <= self.reach
                    {
                        return true;
                    }
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query_roundtrip() {
        let mut grid = OccupancyGrid::new(0.5);
        assert!(grid.is_empty());
        grid.insert_point(Vec3::new(0.9, 0.9, 0.9));
        assert_eq!(grid.occupied_count(), 1);
        assert!(grid.is_occupied(Vec3::new(0.6, 0.7, 0.8)));
        assert!(!grid.is_occupied(Vec3::new(1.1, 0.7, 0.8)));
    }

    #[test]
    fn cloud_insertion_deduplicates_voxels() {
        let mut grid = OccupancyGrid::new(1.0);
        let cloud = PointCloud::new(vec![
            Vec3::new(0.1, 0.1, 0.1),
            Vec3::new(0.9, 0.9, 0.9),
            Vec3::new(2.5, 0.0, 0.0),
        ]);
        grid.insert_cloud(&cloud);
        assert_eq!(grid.occupied_count(), 2);
    }

    #[test]
    fn non_finite_points_are_ignored() {
        let mut grid = OccupancyGrid::new(0.5);
        grid.insert_point(Vec3::new(f64::NAN, 0.0, 0.0));
        grid.insert_point(Vec3::new(f64::INFINITY, 0.0, 0.0));
        assert!(grid.is_empty());
        assert!(!grid.is_occupied(Vec3::new(f64::NAN, 0.0, 0.0)));
    }

    #[test]
    fn set_voxel_flips_occupancy() {
        let mut grid = OccupancyGrid::new(0.5);
        let key = grid.key_for(Vec3::new(3.0, 3.0, 3.0));
        assert!(!grid.set_voxel(key, true));
        assert!(grid.is_occupied(Vec3::new(3.1, 3.1, 3.1)));
        assert!(grid.set_voxel(key, false));
        assert!(!grid.is_occupied(Vec3::new(3.1, 3.1, 3.1)));
    }

    #[test]
    fn segment_free_detects_blocking_voxel() {
        let mut grid = OccupancyGrid::new(0.5);
        grid.insert_point(Vec3::new(5.0, 0.0, 0.0));
        assert!(!grid.segment_free(Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0), 0.3));
        assert!(grid.segment_free(Vec3::ZERO, Vec3::new(0.0, 10.0, 0.0), 0.3));
        assert!(grid.segment_free(Vec3::new(0.0, 5.0, 0.0), Vec3::new(10.0, 5.0, 0.0), 0.3));
    }

    #[test]
    fn inflation_margin_extends_reach() {
        let mut grid = OccupancyGrid::new(0.5);
        grid.insert_point(Vec3::new(2.0, 2.0, 2.0));
        assert!(!grid.is_occupied_near(Vec3::new(3.4, 2.0, 2.0), 0.4));
        assert!(grid.is_occupied_near(Vec3::new(3.4, 2.0, 2.0), 1.5));
    }

    #[test]
    fn clear_removes_everything() {
        let mut grid = OccupancyGrid::new(1.0);
        grid.insert_point(Vec3::ZERO);
        grid.clear();
        assert!(grid.is_empty());
    }

    #[test]
    fn revision_moves_only_on_effective_mutations() {
        let mut grid = OccupancyGrid::new(0.5);
        assert_eq!(grid.revision(), 0);

        grid.insert_point(Vec3::new(1.0, 1.0, 1.0));
        assert_eq!(grid.revision(), 1);
        // Re-observing the same voxel is a no-op for the counter.
        grid.insert_point(Vec3::new(1.1, 1.1, 1.1));
        assert_eq!(grid.revision(), 1);

        let key = grid.key_for(Vec3::new(1.0, 1.0, 1.0));
        assert!(grid.set_voxel(key, true), "already occupied");
        assert_eq!(grid.revision(), 1, "setting an occupied voxel occupied is not a mutation");
        assert!(grid.set_voxel(key, false));
        assert_eq!(grid.revision(), 2);
        assert!(!grid.set_voxel(key, false), "already free");
        assert_eq!(grid.revision(), 2, "clearing a free voxel is not a mutation");

        grid.clear();
        assert_eq!(grid.revision(), 2, "clearing an empty grid is not a mutation");
        grid.insert_point(Vec3::ZERO);
        grid.clear();
        assert_eq!(grid.revision(), 4, "insert + non-empty clear are two mutations");
    }

    #[test]
    fn equality_ignores_the_revision_counter() {
        let mut a = OccupancyGrid::new(0.5);
        let mut b = OccupancyGrid::new(0.5);
        a.insert_point(Vec3::ZERO);
        // `b` reaches the same contents through a longer edit history.
        b.insert_point(Vec3::new(5.0, 5.0, 5.0));
        b.clear();
        b.insert_point(Vec3::ZERO);
        assert_ne!(a.revision(), b.revision());
        assert_eq!(a, b);
    }

    /// The definition `is_occupied_near` must match regardless of which
    /// internal cut (near mask, spherical prune) answers: an occupied voxel
    /// within `ceil(margin/resolution)` voxels (Chebyshev) of the point's
    /// cell whose center lies within `margin + resolution` of the point.
    /// Key distances use `abs_diff`, so voxels at the edge of the key range
    /// cannot overflow the reference.
    fn occupied_near_reference(grid: &OccupancyGrid, point: Vec3, margin: f64) -> bool {
        if !point.is_finite() {
            return false;
        }
        let steps = (margin / grid.resolution()).ceil() as u64;
        let center = grid.key_for(point);
        let reach = margin + grid.resolution();
        grid.occupied_voxels().any(|voxel| {
            voxel.x.abs_diff(center.x) <= steps
                && voxel.y.abs_diff(center.y) <= steps
                && voxel.z.abs_diff(center.z) <= steps
                && grid.voxel_center(voxel).distance(point) <= reach
        })
    }

    /// Occupied voxels on both sides of brick edges (multiples of 4) at
    /// negative keys, probed on a lattice around each.
    const BRICK_EDGE_VOXELS: [(i64, i64, i64); 4] =
        [(-1, -1, -1), (-4, 0, 3), (-5, -8, -9), (3, -4, 4)];

    /// Voxels at the edge of the key range, which fault-corrupted keys can
    /// reach through `set_voxel`.
    const KEY_EDGE_VOXELS: [(i64, i64, i64); 5] = [
        (i64::MAX, 3, -5),
        (i64::MIN, -1, 0),
        (0, i64::MIN, i64::MAX),
        (i64::MAX, i64::MAX, i64::MAX),
        (i64::MIN, i64::MIN, i64::MIN),
    ];

    /// A grid with scattered occupied voxels, voxels straddling brick edges
    /// at negative keys and voxels at the key range edges, and a
    /// deterministic probe sweep dense enough to land on mask boundaries,
    /// brick edges, reach boundaries and deep free space.
    fn probed_grid() -> (OccupancyGrid, Vec<Vec3>) {
        let mut grid = OccupancyGrid::new(0.5);
        for i in 0..40_i64 {
            let f = i as f64;
            grid.insert_point(Vec3::new(
                (f * 0.37).sin() * 9.0,
                (f * 0.71).cos() * 9.0,
                (f * 0.23).sin() * 4.0,
            ));
        }
        let mut probes = Vec::new();
        for i in 0..400_i64 {
            let f = i as f64;
            probes.push(Vec3::new(
                (f * 0.91).cos() * 11.0,
                (f * 0.47).sin() * 11.0,
                (f * 0.29).cos() * 5.0,
            ));
        }
        let offsets = [-1.6, -1.1, -0.6, -0.35, 0.0, 0.3, 0.55, 1.05, 1.6];
        for (x, y, z) in BRICK_EDGE_VOXELS {
            let key = VoxelKey { x, y, z };
            grid.set_voxel(key, true);
            let center = grid.voxel_center(key);
            for dx in offsets {
                for dy in offsets {
                    for dz in offsets {
                        probes.push(center + Vec3::new(dx, dy, dz));
                    }
                }
            }
        }
        for (x, y, z) in KEY_EDGE_VOXELS {
            let key = VoxelKey { x, y, z };
            grid.set_voxel(key, true);
            // Offsets vanish against a coordinate of 2^62, so probes there
            // move only along the small axes; 1e19 m saturates the key.
            let center = grid.voxel_center(key);
            for offset in offsets {
                probes.push(center + Vec3::new(offset, offset, -offset));
                probes.push(Vec3::new(center.x * 2.2, center.y + offset, center.z));
            }
        }
        probes.push(Vec3::new(f64::INFINITY, 0.0, 0.0));
        probes.push(Vec3::new(0.0, f64::NAN, 0.0));
        (grid, probes)
    }

    /// The near-mask fast reject and the spherical prune are result-free
    /// cuts: every probe, at margins inside and outside the mask radius,
    /// must agree with the unpruned definition.
    #[test]
    fn occupied_near_matches_the_unpruned_definition() {
        let (grid, probes) = probed_grid();
        // steps = 1, 2 exercise the mask fast path; 3 bypasses it.
        for margin in [0.4, 0.7, 1.0, 1.4] {
            for &probe in &probes {
                assert_eq!(
                    grid.is_occupied_near(probe, margin),
                    occupied_near_reference(&grid, probe, margin),
                    "probe {probe:?} margin {margin}"
                );
            }
        }
    }

    /// Removals leave stale near-mask marks by design; those must never
    /// change an answer (they only route queries down the exact scan).
    #[test]
    fn occupied_near_stays_exact_after_removals() {
        let (mut grid, probes) = probed_grid();
        // Remove every third occupied voxel, as fault recovery does.
        let mut victims: Vec<VoxelKey> = grid.occupied_voxels().collect();
        victims.sort_unstable();
        for key in victims.into_iter().step_by(3) {
            grid.set_voxel(key, false);
        }
        for margin in [0.7, 1.0] {
            for &probe in &probes {
                assert_eq!(
                    grid.is_occupied_near(probe, margin),
                    occupied_near_reference(&grid, probe, margin),
                    "probe {probe:?} margin {margin} after removals"
                );
            }
        }
    }

    /// `clear` must also reset the near mask, or a fresh grid would route
    /// every query through the exact scan forever (perf) — and, worse, a
    /// rebuilt grid at a different resolution would consult marks from the
    /// old geometry.
    #[test]
    fn clear_resets_the_near_mask() {
        let (mut grid, probes) = probed_grid();
        grid.clear();
        assert!(grid.is_empty());
        for &probe in &probes {
            assert!(!grid.is_occupied_near(probe, 0.7));
        }
        // Re-inserting after a clear rebuilds marks for the new contents.
        grid.insert_point(Vec3::ZERO);
        assert!(grid.is_occupied_near(Vec3::new(0.5, 0.5, 0.5), 0.7));
        assert!(!grid.is_occupied_near(Vec3::new(6.0, 6.0, 6.0), 0.7));
    }

    /// `segment_free` against a march kept here as the reference: one fresh
    /// `is_occupied_near` call per sample, every half resolution.
    fn segment_free_reference(grid: &OccupancyGrid, a: Vec3, b: Vec3, margin: f64) -> bool {
        if grid.is_empty() {
            return true;
        }
        let step = (grid.resolution() * 0.5).max(1e-3);
        let count = (a.distance(b) / step).ceil() as usize;
        (0..=count).all(|i| {
            let t = if count == 0 { 0.0 } else { i as f64 / count as f64 };
            !grid.is_occupied_near(a.lerp(b, t), margin)
        })
    }

    /// A probe caches the last brick it read; reusing one across distant
    /// points, repeated points and whole segment marches must answer
    /// exactly what fresh calls do.
    #[test]
    fn probe_reuse_matches_fresh_calls() {
        let (grid, probes) = probed_grid();
        // Segments between the key-edge probes would be ~1e19 samples long.
        let local: Vec<Vec3> = probes.iter().copied().filter(|p| p.norm() < 100.0).collect();
        for margin in [0.4, 0.7, 1.0, 1.4] {
            let mut probe = NearProbe::new(&grid, margin);
            for &point in probes.iter().chain(probes.iter().rev()) {
                assert_eq!(
                    probe.occupied_near(point),
                    occupied_near_reference(&grid, point, margin),
                    "probe {point:?} margin {margin}"
                );
            }
            for pair in local.windows(2) {
                assert_eq!(
                    grid.segment_free(pair[0], pair[1], margin),
                    segment_free_reference(&grid, pair[0], pair[1], margin),
                    "segment {pair:?} margin {margin}"
                );
            }
        }
    }

    /// The cells the bricked mask marks, decoded back to keys.
    fn marked_cells(grid: &OccupancyGrid) -> HashSet<VoxelKey> {
        let mut cells = HashSet::new();
        for (brick, &word) in &grid.near_mask {
            for bit in (0..64).filter(|bit| word >> bit & 1 == 1) {
                cells.insert(VoxelKey {
                    x: brick.x << 2 | (bit & 3),
                    y: brick.y << 2 | (bit >> 2 & 3),
                    z: brick.z << 2 | (bit >> 4),
                });
            }
        }
        cells
    }

    /// `mark_near` marks exactly the saturated 5-cell cube of a voxel, at
    /// every brick offset, across negative brick edges and at both ends of
    /// the key range.
    #[test]
    fn near_mask_marks_exactly_the_saturated_cube() {
        let mut axis_keys: Vec<i64> = (-9..=9).collect();
        axis_keys.extend([
            i64::MIN,
            i64::MIN + 1,
            i64::MIN + 2,
            i64::MAX - 2,
            i64::MAX - 1,
            i64::MAX,
        ]);
        for (i, &x) in axis_keys.iter().enumerate() {
            let y = axis_keys[(i * 7 + 3) % axis_keys.len()];
            let z = axis_keys[(i * 11 + 5) % axis_keys.len()];
            let key = VoxelKey { x, y, z };
            let mut grid = OccupancyGrid::new(0.5);
            grid.set_voxel(key, true);
            let mut cube = HashSet::new();
            for dx in -NEAR_MASK_STEPS..=NEAR_MASK_STEPS {
                for dy in -NEAR_MASK_STEPS..=NEAR_MASK_STEPS {
                    for dz in -NEAR_MASK_STEPS..=NEAR_MASK_STEPS {
                        cube.insert(VoxelKey {
                            x: x.saturating_add(dx),
                            y: y.saturating_add(dy),
                            z: z.saturating_add(dz),
                        });
                    }
                }
            }
            assert_eq!(marked_cells(&grid), cube, "voxel {key:?}");
            assert!(grid.near_mask.len() <= 8, "voxel {key:?} touched more than eight bricks");
        }
    }

    fn assert_floor_matches(x: f64) {
        assert_eq!(floor_to_i64(x), x.floor() as i64, "x = {x:e} (bits {:#018x})", x.to_bits());
    }

    #[test]
    fn floor_to_i64_matches_floor_cast_on_edge_values() {
        let two_53 = 2.0_f64.powi(53);
        let two_63 = 2.0_f64.powi(63);
        let values = [
            0.0,
            0.5,
            1.0,
            2.5,
            f64::NAN,
            f64::INFINITY,
            two_53 + 0.5,
            two_53 - 0.5,
            two_53 + 2.0,
            two_63,
            two_63 * 2.0,
            i64::MAX as f64,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            f64::EPSILON,
            1.0 - f64::EPSILON,
        ];
        for x in values {
            assert_floor_matches(x);
            assert_floor_matches(-x);
        }
        // The last f64 below -2^63 and the first above it.
        assert_floor_matches(f64::from_bits((-two_63).to_bits() + 1));
        assert_floor_matches(f64::from_bits((-two_63).to_bits() - 1));
    }

    proptest::proptest! {
        #[test]
        fn floor_to_i64_matches_floor_cast_on_any_bits(bits in proptest::prelude::any::<u64>()) {
            assert_floor_matches(f64::from_bits(bits));
        }
    }

    #[test]
    fn voxel_center_is_inside_its_voxel() {
        let grid = OccupancyGrid::new(0.4);
        let key = grid.key_for(Vec3::new(-1.3, 2.7, 0.05));
        let center = grid.voxel_center(key);
        assert_eq!(grid.key_for(center), key);
    }

    #[test]
    #[should_panic(expected = "resolution")]
    fn zero_resolution_panics() {
        let _ = OccupancyGrid::new(0.0);
    }
}
