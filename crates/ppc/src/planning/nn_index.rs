//! Pooled flat-grid spatial index over RRT-family tree nodes.
//!
//! The three sampling-based planners ask two questions per iteration:
//! *which tree node is nearest to this sample?* (every planner) and *which
//! nodes lie within the rewiring radius of this new node?* (RRT*).  Both
//! used to be O(n) scans over the whole tree, which made RRT* quadratic in
//! its iteration budget — a major share (with collision checking) of the
//! ~856 ms it spent per replan on a mission-observed Dense grid
//! (`CHANGES.md`, PR 5; PR 7's entry has the indexed-vs-linear numbers).
//!
//! [`NnIndex`] replaces the scans with a uniform grid of cells over the
//! planner's sampling box: cell `floor(p / cell_size)` per axis, the same
//! keying convention as the occupancy grid.  Each cell's entry lives in a
//! flat `Vec<u32>` addressed by the cell's offset inside the box, so a cell
//! probe is one array load rather than a hash lookup.  Nodes whose cell
//! lies outside the box — the start or the goal can, since they come from
//! the vehicle state and the mission plan, and so can nodes steered from
//! them — go on one **overflow chain** that both queries scan in full.
//! The caller picks the cell edge: RRT* uses its `rewire_radius` (a
//! neighbourhood query then touches 3 × 3 × 3 cells), RRT and RRT-Connect
//! their `step_size`.
//!
//! **Storage.**  A cell's nodes sit in pooled 8-slot blocks, each holding
//! its slots' x, y and z coordinates as three arrays (structure of arrays)
//! plus their node indices.  A cell fills its newest block in insertion
//! order and chains a fresh block in front when that one is full, so a
//! query sweeps contiguous coordinates eight at a time instead of chasing
//! one dependent load per node.  Every block holds at least one node, so
//! the pool never outgrows the node count.
//!
//! The index's contract is **bit-identical results** to the linear scans
//! it replaces:
//!
//! * [`NnIndex::nearest`] returns the node index that minimises the exact
//!   same `Vec3::distance` the linear scan computes, breaking exact
//!   distance ties towards the **lowest node index** — precisely the
//!   "first minimum wins" semantics of `Iterator::min_by` over an
//!   index-ordered scan.  The overflow chain is scanned first; grid cells
//!   are then searched spiralling outward in Chebyshev shells.  A cell
//!   whose box lies farther from the query than the best distance so far
//!   is skipped, and the search stops once no unsearched shell can hold a
//!   strictly closer *or equal-distance lower-index* node.
//! * [`NnIndex::within_radius`] returns exactly the indices whose positions
//!   satisfy `position.distance(query) <= radius` (same inclusive
//!   comparison), from the grid and the overflow chain alike, in ascending
//!   index order — the order an index-ordered linear filter produces —
//!   and [`NnIndex::within_radius_with_distances`] also returns each hit's
//!   distance.  The query sweeps every block in reach without a
//!   data-dependent branch: each slot writes its squared distance to its
//!   node's slot and sets the node's bit in a per-node membership bitset
//!   when that squared distance can pass.  Reading the set words back in
//!   order yields the ascending indices without a sort (and clears them
//!   for the next query); only those candidates take the square root and
//!   the exact inclusive test.
//!
//! `nearest` clips each shell to the cells a node within the best distance
//! can occupy and skips any cell whose box lies farther than that
//! distance; the radius query skips cells beyond the radius.  A cell is
//! skipped only when its box lies beyond the bound by more than a slack: a
//! relative one for rounding in the gap and the bound, and an absolute
//! one, scaled to the grid's coordinates, for a node whose key rounded it
//! just across a cell face.  Pruning therefore never out-runs the exact
//! comparison.  Both queries compare squared distances against a slightly
//! raised squared bound first and take square roots only of the survivors,
//! which are bit for bit `Vec3::distance`.
//!
//! Storage is pooled per the workspace scratch convention
//! (`docs/PERFORMANCE.md`): the planner owns one `NnIndex` for the lifetime
//! of the planner, [`NnIndex::reset`] clears it while keeping every
//! allocation (refilling the head array reuses its capacity), and inserts
//! are incremental (no rebuilds, no rebalancing), so a warm planner's
//! replans touch the allocator only when a tree grows past all previous
//! high-water marks.  Queries never allocate: the output buffers are the
//! caller's (clear-then-fill), and the bitset and distance slots grow with
//! inserts.  Radius queries take `&mut self` for those marks.

use mavfi_sim::geometry::{Aabb, Vec3};

use crate::perception::occupancy::{floor_to_i64, VoxelKey};

/// Sentinel for "no block" in the cell heads and block links.
const NONE: u32 = u32::MAX;

/// Nodes per storage block.
const BLOCK_SLOTS: usize = 8;

/// Relative slack on every pruning bound (see [`NnIndex::prune_bound`]).
const PRUNE_SLACK: f64 = 1e-9;

/// Trees smaller than this are scanned linearly inside [`NnIndex::nearest`]:
/// a linear scan is a branch-predictable ~1 ns/node sweep while a shell walk
/// pays for key arithmetic and cell probes, so the walk only wins once the
/// tree outgrows the crossover.  Re-measured for the block-based,
/// gap-pruned walk by replaying the index operations of eight RRT* replans
/// on `replan_micro`'s four Dense problems (minimum of 25 rounds on a
/// 2-core x86-64 host, each normalised to the previous index in the same
/// process): cutoffs 64, 128 and 256 were within 3% of each other, 0 and
/// 512 about 6% slower and 1024 about 40% slower.  Planners that connect
/// quickly, like RRT-Connect, rarely leave the linear regime.  The result
/// is bit-identical either way — this is a latency constant, not a
/// behaviour knob.
const LINEAR_NEAREST_CUTOFF: usize = 256;

/// Most cells the flat head array may span (4 MiB of heads).  A box that
/// would need more at the requested cell size gets a coarser cell instead:
/// the cell size only decides how much work a query does, never its result.
const MAX_CELLS: usize = 1 << 20;

/// Up to eight nodes of one cell (or of the overflow chain), in insertion
/// order.  Unused slots hold NaN coordinates and id 0, so their distances
/// compare false against any bound and a query can sweep all eight slots
/// without a branch.
#[derive(Debug, Clone, Copy)]
struct Block {
    x: [f64; BLOCK_SLOTS],
    y: [f64; BLOCK_SLOTS],
    z: [f64; BLOCK_SLOTS],
    /// Node index + 1 per slot; 0 for an unused slot.
    id: [u32; BLOCK_SLOTS],
    len: u32,
}

impl Block {
    const EMPTY: Self = Self {
        x: [f64::NAN; BLOCK_SLOTS],
        y: [f64::NAN; BLOCK_SLOTS],
        z: [f64::NAN; BLOCK_SLOTS],
        id: [0; BLOCK_SLOTS],
        len: 0,
    };

    /// Every slot's squared distance to `query`: the dot product
    /// `Vec3::distance` takes the square root of, with the same operands in
    /// the same order, so `squared.sqrt()` is bit for bit the linear scans'
    /// distance (NaN for unused slots).
    fn squared_distances(&self, query: Vec3) -> [f64; BLOCK_SLOTS] {
        let mut squared = [0.0; BLOCK_SLOTS];
        for (slot, squared) in squared.iter_mut().enumerate() {
            let offset = Vec3::new(self.x[slot], self.y[slot], self.z[slot]) - query;
            *squared = offset.dot(offset);
        }
        squared
    }
}

/// A squared-distance ceiling that every point within `distance` meets:
/// the square root is correctly rounded and monotone, so a squared distance
/// above it has a distance strictly above `distance`, and only squared
/// distances at or below it need the exact test.
fn squared_ceiling(distance: f64) -> f64 {
    distance * distance * (1.0 + PRUNE_SLACK)
}

/// The hits of the radius query in progress, addressed by block slot id
/// (node index + 1; id 0 belongs to unused block slots and never hits).
/// Between queries every bit is clear.
#[derive(Debug)]
struct HitSet {
    /// Bit `id % 64` of word `id / 64` is set while node `id - 1` is a
    /// candidate: its squared distance passed `squared_ceiling(radius)`.
    words: Vec<u64>,
    /// Squared distance to the query per id, valid while its bit is set.
    squared: Vec<f64>,
}

impl HitSet {
    fn new() -> Self {
        let mut hits = Self { words: Vec::new(), squared: Vec::new() };
        hits.clear();
        hits
    }

    /// Forgets every node, keeping the unused-slot id 0.
    fn clear(&mut self) {
        self.words.clear();
        self.words.push(0);
        self.squared.clear();
        self.squared.push(f64::NAN);
    }

    /// Gives the next node its bit and slot.
    fn push_node(&mut self) {
        if self.squared.len() % 64 == 0 {
            self.words.push(0);
        }
        self.squared.push(f64::NAN);
    }

    /// Marks every node on the block chain starting at `head` whose squared
    /// distance to `query` is at most `ceiling`.  Every slot writes its
    /// squared distance and ORs in its bit, hit or not, so the sweep has no
    /// data-dependent branch; a slot only ever writes its own node's entry
    /// (or id 0's).
    fn mark_chain(&mut self, blocks: &[Block], next: &[u32], head: u32, query: Vec3, ceiling: f64) {
        let mut block = head;
        while block != NONE {
            let stored = &blocks[block as usize];
            let squared = stored.squared_distances(query);
            for (slot, &id) in stored.id.iter().enumerate() {
                let id = id as usize;
                self.squared[id] = squared[slot];
                self.words[id / 64] |= u64::from(squared[slot] <= ceiling) << (id % 64);
            }
            block = next[block as usize];
        }
    }

    /// Hands every marked node within `radius` (the exact inclusive test
    /// on the square root) to `emit` in ascending index order, with its
    /// distance, and clears the marks.
    fn drain(&mut self, radius: f64, mut emit: impl FnMut(usize, f64)) {
        for (word, bits) in self.words.iter_mut().enumerate() {
            if *bits == 0 {
                continue;
            }
            let mut marked = std::mem::take(bits);
            while marked != 0 {
                let id = word * 64 + marked.trailing_zeros() as usize;
                let distance = self.squared[id].sqrt();
                if distance <= radius {
                    emit(id - 1, distance);
                }
                marked &= marked - 1;
            }
        }
    }
}

/// A pooled, incrementally built uniform-grid index over points, returning
/// nearest-neighbour and radius queries bit-identical to linear scans.
///
/// Node indices are assigned by insertion order (`0, 1, 2, …`), matching
/// the planners' tree `Vec` indices.
///
/// # Examples
///
/// ```
/// use mavfi_ppc::planning::NnIndex;
/// use mavfi_sim::geometry::{Aabb, Vec3};
///
/// let mut index = NnIndex::new();
/// index.reset(2.5, Aabb::new(Vec3::splat(-5.0), Vec3::splat(5.0)));
/// index.insert(Vec3::ZERO);
/// // Outside the box: kept on the overflow chain, found all the same.
/// index.insert(Vec3::new(10.0, 0.0, 0.0));
/// assert_eq!(index.nearest(Vec3::new(8.0, 0.0, 0.0)), 1);
/// let (mut nodes, mut distances) = (Vec::new(), Vec::new());
/// index.within_radius_with_distances(Vec3::new(3.0, 0.0, 0.0), 7.0, &mut nodes, &mut distances);
/// assert_eq!((nodes, distances), (vec![0, 1], vec![3.0, 7.0]));
/// ```
#[derive(Debug)]
pub struct NnIndex {
    /// Cell edge length (m).
    cell_size: f64,
    /// Absolute pruning slack (m), scaled to the grid's coordinates.
    slack: f64,
    /// First and last cell of the box the head array covers.
    box_min: VoxelKey,
    box_max: VoxelKey,
    /// Box extent in cells along y and z (the flat-offset strides).
    ny: i64,
    nz: i64,
    /// Cell (flat offset inside the box) → the cell's newest block.
    heads: Vec<u32>,
    /// Newest block of the nodes whose cell lies outside the box.
    overflow: u32,
    /// The block pool, shared by every cell and the overflow chain.
    blocks: Vec<Block>,
    /// `next[b]` is the block of `b`'s cell (or of the overflow chain)
    /// filled just before `b`, or [`NONE`].
    next: Vec<u32>,
    /// Node positions in insertion order (the planners' node indices).
    positions: Vec<Vec3>,
    /// Bounding box of occupied in-box cells, for clamping cell walks
    /// (`min_cell > max_cell` while no node has landed inside the box).
    min_cell: VoxelKey,
    max_cell: VoxelKey,
    /// Radius-query hits.
    hits: HitSet,
}

impl Default for NnIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl NnIndex {
    /// Creates an empty index with a 1 m cell and an empty box (call
    /// [`NnIndex::reset`] with the real cell size and box before inserting).
    pub fn new() -> Self {
        Self {
            cell_size: 1.0,
            slack: 0.0,
            box_min: VoxelKey { x: 0, y: 0, z: 0 },
            box_max: VoxelKey { x: -1, y: -1, z: -1 },
            ny: 0,
            nz: 0,
            heads: Vec::new(),
            overflow: NONE,
            blocks: Vec::new(),
            next: Vec::new(),
            positions: Vec::new(),
            min_cell: VoxelKey { x: i64::MAX, y: i64::MAX, z: i64::MAX },
            max_cell: VoxelKey { x: i64::MIN, y: i64::MIN, z: i64::MIN },
            hits: HitSet::new(),
        }
    }

    /// Clears the index for a new tree, keeping every allocation, and lays
    /// a grid of `cell_size` cells over `bounds` (the planner's sampling
    /// box).  Points outside `bounds` may still be inserted; they go on the
    /// overflow chain.
    ///
    /// A box that would span more than 2^20 cells, or lie more than 2^40
    /// cells from the origin, doubles the cell edge until it fits, and a
    /// non-finite box is treated as empty (every node overflows).  Neither
    /// changes any query result.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not positive and finite.
    pub fn reset(&mut self, cell_size: f64, bounds: Aabb) {
        assert!(cell_size > 0.0 && cell_size.is_finite(), "cell size must be positive");
        self.cell_size = cell_size;
        let mut cells = 0;
        if bounds.min.is_finite() && bounds.max.is_finite() {
            loop {
                self.box_min = self.key_for(bounds.min);
                self.box_max = self.key_for(bounds.max);
                let (lo, hi) = (self.box_min, self.box_max);
                // Cell keys within ±2^40 leave cell and shell arithmetic far
                // from overflow.
                if [lo.x, lo.y, lo.z, hi.x, hi.y, hi.z].iter().all(|k| k.unsigned_abs() <= 1 << 40)
                {
                    let nx = (hi.x - lo.x + 1).max(0);
                    self.ny = (hi.y - lo.y + 1).max(0);
                    self.nz = (hi.z - lo.z + 1).max(0);
                    let total = (nx as u128) * (self.ny as u128) * (self.nz as u128);
                    if total <= MAX_CELLS as u128 {
                        cells = total as usize;
                        break;
                    }
                }
                self.cell_size *= 2.0;
            }
        }
        if cells == 0 {
            self.box_min = VoxelKey { x: 0, y: 0, z: 0 };
            self.box_max = VoxelKey { x: -1, y: -1, z: -1 };
        }
        // In-box nodes lie within `extent` of the origin on every axis, so
        // rounding in their keys and in cell faces is a few ulps of it.
        let (lo, hi) = (self.box_min, self.box_max);
        let extent = [lo.x, lo.y, lo.z, hi.x + 1, hi.y + 1, hi.z + 1]
            .into_iter()
            .map(|key| (key as f64 * self.cell_size).abs())
            .fold(self.cell_size, f64::max);
        self.slack = PRUNE_SLACK * extent;
        self.heads.clear();
        self.heads.resize(cells, NONE);
        self.overflow = NONE;
        self.blocks.clear();
        self.next.clear();
        self.positions.clear();
        self.min_cell = VoxelKey { x: i64::MAX, y: i64::MAX, z: i64::MAX };
        self.max_cell = VoxelKey { x: i64::MIN, y: i64::MIN, z: i64::MIN };
        self.hits.clear();
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` when nothing has been inserted since the last reset.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The current cell edge length (m): the size last passed to
    /// [`NnIndex::reset`], unless that coarsened it.
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    fn key_for(&self, point: Vec3) -> VoxelKey {
        VoxelKey {
            x: floor_to_i64(point.x / self.cell_size),
            y: floor_to_i64(point.y / self.cell_size),
            z: floor_to_i64(point.z / self.cell_size),
        }
    }

    /// Flat head-array offset of an in-box cell.
    fn slot(&self, x: i64, y: i64, z: i64) -> usize {
        debug_assert!(x >= self.box_min.x && x <= self.box_max.x);
        debug_assert!(y >= self.box_min.y && y <= self.box_max.y);
        debug_assert!(z >= self.box_min.z && z <= self.box_max.z);
        (((x - self.box_min.x) * self.ny + (y - self.box_min.y)) * self.nz + (z - self.box_min.z))
            as usize
    }

    fn in_box(&self, key: VoxelKey) -> bool {
        (self.box_min.x..=self.box_max.x).contains(&key.x)
            && (self.box_min.y..=self.box_max.y).contains(&key.y)
            && (self.box_min.z..=self.box_max.z).contains(&key.z)
    }

    /// How far a cell's box may lie beyond `distance` before a query skips
    /// it: the bound plus a relative slack for rounding in the gap and the
    /// bound, and the absolute [`NnIndex::slack`] for keys that rounded a
    /// node just across a cell face.
    fn prune_bound(&self, distance: f64) -> f64 {
        distance * (1.0 + PRUNE_SLACK) + self.slack
    }

    /// Squared distance from `coordinate` to cell `cell`'s extent on one
    /// axis (zero inside it).
    fn axis_gap_sq(&self, cell: i64, coordinate: f64) -> f64 {
        let low = cell as f64 * self.cell_size;
        let gap = (low - coordinate).max(coordinate - (low + self.cell_size)).max(0.0);
        gap * gap
    }

    /// Inserts a point and returns its index (insertion order, matching the
    /// caller's tree indices).
    pub fn insert(&mut self, position: Vec3) -> usize {
        debug_assert!(position.is_finite(), "tree nodes are always finite");
        let index = self.positions.len();
        assert!(index < NONE as usize - 1, "index capacity exceeded");
        let key = self.key_for(position);
        let head = if self.in_box(key) {
            self.min_cell.x = self.min_cell.x.min(key.x);
            self.min_cell.y = self.min_cell.y.min(key.y);
            self.min_cell.z = self.min_cell.z.min(key.z);
            self.max_cell.x = self.max_cell.x.max(key.x);
            self.max_cell.y = self.max_cell.y.max(key.y);
            self.max_cell.z = self.max_cell.z.max(key.z);
            let slot = self.slot(key.x, key.y, key.z);
            &mut self.heads[slot]
        } else {
            &mut self.overflow
        };
        if *head == NONE || self.blocks[*head as usize].len as usize == BLOCK_SLOTS {
            self.next.push(*head);
            *head = self.blocks.len() as u32;
            self.blocks.push(Block::EMPTY);
        }
        let block = &mut self.blocks[*head as usize];
        let slot = block.len as usize;
        (block.x[slot], block.y[slot], block.z[slot]) = (position.x, position.y, position.z);
        block.id[slot] = index as u32 + 1;
        block.len += 1;
        debug_assert!(self.blocks.len() <= index + 1, "every block holds a node");
        self.positions.push(position);
        self.hits.push_node();
        index
    }

    /// Considers every node on the block chain starting at `head` as a
    /// nearest candidate.
    fn scan_chain(&self, head: u32, query: Vec3, best_distance: &mut f64, best: &mut usize) {
        let mut ceiling = squared_ceiling(*best_distance);
        let mut block = head;
        while block != NONE {
            let stored = &self.blocks[block as usize];
            for (slot, squared) in stored.squared_distances(query).into_iter().enumerate() {
                // Only a candidate within the best distance can win; an
                // unused slot's NaN never passes.
                if squared > ceiling || squared.is_nan() {
                    continue;
                }
                let distance = squared.sqrt();
                let candidate = stored.id[slot] as usize - 1;
                // Lowest-index tie-break: exactly `min_by`'s
                // first-minimum-wins over an index-ordered scan, independent
                // of storage order.
                if distance < *best_distance || (distance == *best_distance && candidate < *best) {
                    *best_distance = distance;
                    *best = candidate;
                    ceiling = squared_ceiling(distance);
                }
            }
            block = self.next[block as usize];
        }
    }

    /// Visits every occupied-box cell whose Chebyshev distance (in cells)
    /// from `center` is exactly `ring`, skipping empty cells and cells
    /// whose box lies beyond the best distance so far.
    fn scan_ring(
        &self,
        center: VoxelKey,
        ring: i64,
        query: Vec3,
        best_distance: &mut f64,
        best: &mut usize,
    ) {
        let (mut lo, mut hi) = (self.min_cell, self.max_cell);
        if best_distance.is_finite() {
            // Only cells meeting the cube of half-width `bound` around the
            // query can hold a node within the best distance: clip the
            // shell to them (keys are monotone in the coordinate).
            let bound = Vec3::splat(self.prune_bound(*best_distance));
            let (near, far) = (self.key_for(query - bound), self.key_for(query + bound));
            lo = VoxelKey { x: lo.x.max(near.x), y: lo.y.max(near.y), z: lo.z.max(near.z) };
            hi = VoxelKey { x: hi.x.min(far.x), y: hi.y.min(far.y), z: hi.z.min(far.z) };
        }
        let mut scan = |x: i64, y: i64, z: i64| {
            let head = self.heads[self.slot(x, y, z)];
            if head == NONE {
                return;
            }
            let gap_sq = self.axis_gap_sq(x, query.x)
                + self.axis_gap_sq(y, query.y)
                + self.axis_gap_sq(z, query.z);
            let bound = self.prune_bound(*best_distance);
            if gap_sq > bound * bound {
                return;
            }
            self.scan_chain(head, query, best_distance, best);
        };
        if ring == 0 {
            scan(center.x, center.y, center.z);
            return;
        }
        // The shell's extent on each axis, clipped to the occupied box
        // (`outer`), and its interior (`inner`).
        let outer = |c: i64, lo: i64, hi: i64| ((c - ring).max(lo), (c + ring).min(hi));
        let inner = |c: i64, lo: i64, hi: i64| ((c - ring + 1).max(lo), (c + ring - 1).min(hi));
        let (x0, x1) = outer(center.x, lo.x, hi.x);
        let (y0, y1) = outer(center.y, lo.y, hi.y);
        let (xi0, xi1) = inner(center.x, lo.x, hi.x);
        let (zi0, zi1) = inner(center.z, lo.z, hi.z);
        // Two full z faces, then the x and y side bands between them; every
        // shell cell is visited exactly once, in a fixed deterministic order
        // (the order is irrelevant to the result — `scan_chain` compares
        // `(distance, index)` explicitly).
        for z in [center.z - ring, center.z + ring] {
            if (lo.z..=hi.z).contains(&z) {
                for x in x0..=x1 {
                    for y in y0..=y1 {
                        scan(x, y, z);
                    }
                }
            }
        }
        for x in [center.x - ring, center.x + ring] {
            if (lo.x..=hi.x).contains(&x) {
                for y in y0..=y1 {
                    for z in zi0..=zi1 {
                        scan(x, y, z);
                    }
                }
            }
        }
        for y in [center.y - ring, center.y + ring] {
            if (lo.y..=hi.y).contains(&y) {
                for x in xi0..=xi1 {
                    for z in zi0..=zi1 {
                        scan(x, y, z);
                    }
                }
            }
        }
    }

    /// Index of the indexed point nearest to `query`; exact distance ties
    /// resolve to the lowest index (bit-identical to a linear
    /// `min_by`-over-distance scan in index order).
    ///
    /// # Panics
    ///
    /// Panics if the index is empty.
    pub fn nearest(&self, query: Vec3) -> usize {
        assert!(!self.positions.is_empty(), "nearest query on an empty index");
        let mut best_distance = f64::INFINITY;
        let mut best = usize::MAX;
        if self.positions.len() <= LINEAR_NEAREST_CUTOFF {
            for (candidate, position) in self.positions.iter().enumerate() {
                let distance = position.distance(query);
                if distance < best_distance {
                    best_distance = distance;
                    best = candidate;
                }
            }
            return best;
        }

        self.scan_chain(self.overflow, query, &mut best_distance, &mut best);
        let (lo, hi) = (self.min_cell, self.max_cell);
        if lo.x > hi.x {
            // Every node is on the overflow chain.
            return best;
        }
        // Walk shells around the query's cell, clamped into the occupied box.
        // Clamping keeps the shell distance bound below valid: on a clamped
        // axis the query lies beyond the center cell, so a node `d` cells
        // from it on that axis is more than `d` cells of distance away.  It
        // also keeps shells small for far queries and the arithmetic far from
        // overflow.
        let query_cell = self.key_for(query);
        let center = VoxelKey {
            x: query_cell.x.clamp(lo.x, hi.x),
            y: query_cell.y.clamp(lo.y, hi.y),
            z: query_cell.z.clamp(lo.z, hi.z),
        };
        // The furthest shell that can contain an occupied cell.
        let max_ring = [center.x - lo.x, hi.x - center.x, center.y - lo.y]
            .into_iter()
            .chain([hi.y - center.y, center.z - lo.z, hi.z - center.z])
            .max()
            .expect("six faces");

        for ring in 0..=max_ring {
            // A point in a cell `ring` shells away is at least
            // `(ring - 1) * cell_size` from the query (which lies inside the
            // center cell, or beyond it on a clamped axis).  Stop only when
            // that lower bound *strictly* exceeds the best distance, slack
            // included: an equal-distance node in a farther shell could
            // still win the lowest-index tie-break.
            if best != usize::MAX
                && ((ring - 1) as f64) * self.cell_size > self.prune_bound(best_distance)
            {
                break;
            }
            self.scan_ring(center, ring, query, &mut best_distance, &mut best);
        }
        debug_assert!(best != usize::MAX, "occupied shells exhausted without a candidate");
        best
    }

    /// Marks every point with `position.distance(query) <= radius` in the
    /// hit set, from the overflow chain and every cell the radius reaches.
    fn mark_within(&mut self, query: Vec3, radius: f64) {
        let ceiling = squared_ceiling(radius);
        self.hits.mark_chain(&self.blocks, &self.next, self.overflow, query, ceiling);
        let lo = self.key_for(query - Vec3::splat(radius));
        let hi = self.key_for(query + Vec3::splat(radius));
        let x_range = lo.x.max(self.min_cell.x)..=hi.x.min(self.max_cell.x);
        let y_range = lo.y.max(self.min_cell.y)..=hi.y.min(self.max_cell.y);
        let z_range = lo.z.max(self.min_cell.z)..=hi.z.min(self.max_cell.z);
        // Cells whose box lies beyond `radius` (slack included) from the
        // query cannot hold a point passing the inclusive distance test.
        let bound = self.prune_bound(radius);
        let prune_sq = bound * bound;
        for x in x_range {
            let x_gap_sq = self.axis_gap_sq(x, query.x);
            for y in y_range.clone() {
                let xy_gap_sq = x_gap_sq + self.axis_gap_sq(y, query.y);
                if xy_gap_sq > prune_sq {
                    continue;
                }
                for z in z_range.clone() {
                    let head = self.heads[self.slot(x, y, z)];
                    if head == NONE || xy_gap_sq + self.axis_gap_sq(z, query.z) > prune_sq {
                        continue;
                    }
                    self.hits.mark_chain(&self.blocks, &self.next, head, query, ceiling);
                }
            }
        }
    }

    /// Collects into `out` the indices of every point with
    /// `position.distance(query) <= radius` (inclusive, the linear filter's
    /// exact comparison), in ascending order — the order an index-ordered
    /// linear filter produces.  `out` is cleared first (clear-then-fill).
    pub fn within_radius(&mut self, query: Vec3, radius: f64, out: &mut Vec<usize>) {
        out.clear();
        self.mark_within(query, radius);
        self.hits.drain(radius, |node, _| out.push(node));
    }

    /// [`NnIndex::within_radius`] that also collects each hit's
    /// `position.distance(query)` into `distances`, bit for bit the value
    /// the linear filter compares (`distances[i]` belongs to `nodes[i]`).
    /// Both buffers are cleared first (clear-then-fill).
    pub fn within_radius_with_distances(
        &mut self,
        query: Vec3,
        radius: f64,
        nodes: &mut Vec<usize>,
        distances: &mut Vec<f64>,
    ) {
        nodes.clear();
        distances.clear();
        self.mark_within(query, radius);
        self.hits.drain(radius, |node, distance| {
            nodes.push(node);
            distances.push(distance);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A box around the test points' cluster (a few of them fall outside).
    fn test_box() -> Aabb {
        Aabb::new(Vec3::new(-18.0, -14.0, -2.0), Vec3::new(18.0, 14.0, 8.0))
    }

    /// The linear references the index must agree with bit-for-bit.
    fn linear_nearest(points: &[Vec3], query: Vec3) -> usize {
        points
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.distance(query).partial_cmp(&b.distance(query)).expect("finite")
            })
            .map(|(index, _)| index)
            .expect("non-empty")
    }

    fn linear_within(points: &[Vec3], query: Vec3, radius: f64) -> Vec<usize> {
        points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance(query) <= radius)
            .map(|(index, _)| index)
            .collect()
    }

    /// A deterministic, clumpy point set (clumps force multi-node buckets).
    fn test_points() -> Vec<Vec3> {
        let mut points = Vec::new();
        for i in 0..120_i64 {
            let f = i as f64;
            points.push(Vec3::new(
                (f * 0.73).sin() * 20.0,
                (f * 1.31).cos() * 15.0,
                (f * 0.17).sin() * 6.0 + 3.0,
            ));
            // A duplicate every 10th point: exact-tie territory.
            if i % 10 == 0 {
                points.push(points[i as usize / 2]);
            }
        }
        points
    }

    #[test]
    fn nearest_matches_linear_scan_with_ties() {
        let points = test_points();
        let mut index = NnIndex::new();
        index.reset(2.5, test_box());
        for &point in &points {
            index.insert(point);
        }
        for i in 0..200_i64 {
            let f = i as f64;
            let query =
                Vec3::new((f * 0.91).cos() * 25.0, (f * 0.47).sin() * 18.0, (f * 0.29).cos() * 8.0);
            assert_eq!(index.nearest(query), linear_nearest(&points, query), "query {i}");
        }
        // Query exactly on a duplicated position: the tie must go to the
        // lower index.
        let duplicated = points[0];
        assert_eq!(index.nearest(duplicated), linear_nearest(&points, duplicated));
    }

    #[test]
    fn within_radius_matches_linear_filter_order_and_content() {
        let points = test_points();
        let mut index = NnIndex::new();
        index.reset(2.5, test_box());
        for &point in &points {
            index.insert(point);
        }
        let mut out = Vec::new();
        for i in 0..60_i64 {
            let f = i as f64;
            let query =
                Vec3::new((f * 0.37).sin() * 22.0, (f * 0.83).cos() * 14.0, (f * 0.53).sin() * 7.0);
            for radius in [0.0, 1.0, 5.0, 12.0] {
                index.within_radius(query, radius, &mut out);
                assert_eq!(out, linear_within(&points, query, radius), "query {i} r={radius}");
            }
        }
    }

    #[test]
    fn incremental_inserts_keep_agreeing() {
        let points = test_points();
        let mut index = NnIndex::new();
        index.reset(1.5, test_box());
        let mut inserted = Vec::new();
        let mut out = Vec::new();
        for &point in &points {
            index.insert(point);
            inserted.push(point);
            let query = point + Vec3::new(0.4, -0.7, 0.2);
            assert_eq!(index.nearest(query), linear_nearest(&inserted, query));
            index.within_radius(query, 4.0, &mut out);
            assert_eq!(out, linear_within(&inserted, query, 4.0));
        }
    }

    #[test]
    fn reset_reuses_storage_and_changes_cell_size() {
        let mut index = NnIndex::new();
        index.reset(0.5, test_box());
        for &point in &test_points() {
            index.insert(point);
        }
        let heads = (index.heads.as_ptr(), index.heads.capacity());
        let chains = (index.next.as_ptr(), index.positions.as_ptr());
        // A different cell size and a different (smaller) box: the head
        // array is refilled in place, the chains keep their storage.
        let small_box = Aabb::new(Vec3::splat(-4.0), Vec3::new(6.0, 2.0, 3.0));
        index.reset(2.0, small_box);
        assert!(index.is_empty());
        assert_eq!(index.cell_size(), 2.0);
        assert_eq!(index.heads.len(), 6 * 4 * 4, "cells -2..=3, -2..=1, -2..=1");
        assert!(index.heads.iter().all(|&head| head == NONE));
        assert_eq!((index.heads.as_ptr(), index.heads.capacity()), heads);
        assert_eq!((index.next.as_ptr(), index.positions.as_ptr()), chains);
        assert_eq!(index.insert(Vec3::new(1.0, 1.0, 1.0)), 0);
        assert_eq!(index.insert(Vec3::new(9.0, 1.0, 1.0)), 1, "outside the new box");
        assert_eq!(index.nearest(Vec3::ZERO), 0);
        assert_eq!(index.nearest(Vec3::new(20.0, 0.0, 0.0)), 1);
    }

    #[test]
    fn nodes_outside_the_box_overflow_and_are_still_found() {
        let points = test_points();
        // A box far from every point: the whole tree lives on the overflow
        // chain, past the linear cutoff too.
        let far_box = Aabb::new(Vec3::splat(100.0), Vec3::splat(110.0));
        let mut index = NnIndex::new();
        index.reset(2.5, far_box);
        let mut inserted = Vec::new();
        let mut out = Vec::new();
        for _ in 0..3 {
            for &point in &points {
                index.insert(point);
                inserted.push(point);
            }
        }
        assert!(inserted.len() > LINEAR_NEAREST_CUTOFF);
        assert_eq!(index.min_cell.x, i64::MAX, "no node landed inside the box");
        for query in [Vec3::ZERO, Vec3::new(105.0, 105.0, 105.0), points[7]] {
            assert_eq!(index.nearest(query), linear_nearest(&inserted, query));
            index.within_radius(query, 6.0, &mut out);
            assert_eq!(out, linear_within(&inserted, query, 6.0));
        }
    }

    #[test]
    fn oversized_remote_and_non_finite_boxes_keep_queries_exact() {
        let points = test_points();
        let huge = Aabb::new(Vec3::splat(-1e6), Vec3::splat(1e6));
        let remote = Aabb::new(Vec3::splat(1e15), Vec3::splat(1e15 + 10.0));
        let infinite = Aabb::new(Vec3::splat(f64::NEG_INFINITY), Vec3::ZERO);
        let mut out = Vec::new();
        for bounds in [huge, remote, infinite] {
            let mut index = NnIndex::new();
            index.reset(0.1, bounds);
            assert!(index.heads.len() <= MAX_CELLS);
            for &point in points.iter().chain(&points).chain(&points) {
                index.insert(point);
            }
            let inserted: Vec<Vec3> =
                points.iter().chain(&points).chain(&points).copied().collect();
            for query in [Vec3::ZERO, Vec3::new(3.0, -2.0, 1.0), Vec3::splat(500.0)] {
                assert_eq!(index.nearest(query), linear_nearest(&inserted, query));
                index.within_radius(query, 5.0, &mut out);
                assert_eq!(out, linear_within(&inserted, query, 5.0));
            }
        }
    }

    /// `-30.000000000000004 / 0.1` rounds to exactly `-300.0`, so the point
    /// keys into cell -300 although it lies an ulp below that cell's
    /// computed lower face: only the absolute pruning slack keeps a
    /// zero-radius query at the point from skipping its own cell.
    #[test]
    fn a_point_keyed_across_a_cell_face_is_found_at_zero_distance() {
        let point = Vec3::new(-30.000000000000004, 0.05, 0.05);
        let mut index = NnIndex::new();
        index.reset(0.1, Aabb::new(Vec3::new(-31.0, -1.0, -1.0), Vec3::new(31.0, 1.0, 1.0)));
        assert_eq!(index.key_for(point).x, -300);
        assert!(index.axis_gap_sq(-300, point.x) > 0.0, "the cell misses the point");
        index.insert(point);
        let (mut nodes, mut distances) = (Vec::new(), Vec::new());
        index.within_radius_with_distances(point, 0.0, &mut nodes, &mut distances);
        assert_eq!((nodes, distances), (vec![0], vec![0.0]));
    }

    #[test]
    #[should_panic(expected = "empty index")]
    fn nearest_on_empty_index_panics() {
        let index = NnIndex::new();
        let _ = index.nearest(Vec3::ZERO);
    }

    #[test]
    fn within_radius_on_empty_index_is_empty() {
        let mut index = NnIndex::new();
        let mut out = vec![7usize];
        index.within_radius(Vec3::ZERO, 10.0, &mut out);
        assert!(out.is_empty());
    }
}
