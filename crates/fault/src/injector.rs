//! The fault injector: a [`StageTap`] that corrupts inter-kernel states and
//! kernel outputs in flight, exactly once per mission.

use mavfi_ppc::kernel::KernelId;
use mavfi_ppc::perception::occupancy::OccupancyGrid;
use mavfi_ppc::states::{
    CollisionEstimate, MonitoredStates, PointCloud, Stage, StateField, Trajectory,
};
use mavfi_ppc::tap::{StageTap, TapAction};
use mavfi_sim::vehicle::FlightCommand;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::model::{CorruptionDetail, FaultModel};
use crate::target::InjectionTarget;

/// A complete description of one fault-injection experiment: what to
/// corrupt, how, and when.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Where the fault lands.
    pub target: InjectionTarget,
    /// The corruption applied.
    pub model: FaultModel,
    /// Pipeline tick at which the fault fires (the paper injects a one-time
    /// fault at a random instant during the mission).
    pub trigger_tick: u64,
    /// Seed controlling all random choices inside the injector.
    pub seed: u64,
}

impl FaultSpec {
    /// Convenience constructor with the default single-random-bit model.
    pub fn new(target: InjectionTarget, trigger_tick: u64, seed: u64) -> Self {
        Self { target, model: FaultModel::default(), trigger_tick, seed }
    }
}

/// Record of the fault that actually fired.
#[derive(Debug, PartialEq)]
pub struct FaultRecord {
    /// Tick at which the corruption happened.
    pub tick: u64,
    /// Human-readable target description.
    pub target: String,
    /// The corrupted scalar field, when applicable.
    pub field: Option<StateField>,
    /// Details of the value corruption.
    pub detail: CorruptionDetail,
}

/// `clone_from` reuses the target's label storage, so refreshing a flight
/// checkpoint after the fault fired allocates nothing.
impl Clone for FaultRecord {
    fn clone(&self) -> Self {
        Self { target: self.target.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        self.target.clone_from(&source.target);
        self.tick = source.tick;
        self.field = source.field;
        self.detail = source.detail;
    }
}

/// One-shot fault injector attached to the pipeline as a [`StageTap`].
///
/// The injector counts pipeline ticks (one per `after_point_cloud` call),
/// and at the configured trigger tick corrupts its target.  If the target is
/// momentarily unavailable (for example an empty trajectory), it retries on
/// subsequent ticks until the corruption lands.
///
/// # Examples
///
/// ```
/// use mavfi_fault::prelude::*;
/// use mavfi_ppc::prelude::*;
/// use mavfi_sim::prelude::*;
///
/// let spec = FaultSpec::new(InjectionTarget::State(StateField::CommandVx), 0, 1);
/// let mut injector = FaultInjector::new(spec);
/// let mut command = FlightCommand::new(Vec3::new(1.0, 0.0, 0.0), 0.0);
/// // Drive the tick counter and the control hook directly.
/// injector.after_point_cloud(&mut PointCloud::default());
/// injector.after_control(&mut command);
/// assert!(injector.record().is_some());
/// ```
#[derive(Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    rng: StdRng,
    current_tick: u64,
    ticks_seen: u64,
    record: Option<FaultRecord>,
}

/// `clone_from` reuses the target's storage (see [`FaultRecord`]).
impl Clone for FaultInjector {
    fn clone(&self) -> Self {
        Self { rng: self.rng.clone(), record: self.record.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        self.spec = source.spec;
        self.rng.clone_from(&source.rng);
        self.current_tick = source.current_tick;
        self.ticks_seen = source.ticks_seen;
        self.record.clone_from(&source.record);
    }
}

impl FaultInjector {
    /// Creates an injector for one experiment.
    pub fn new(spec: FaultSpec) -> Self {
        Self {
            spec,
            rng: StdRng::seed_from_u64(spec.seed),
            current_tick: 0,
            ticks_seen: 0,
            record: None,
        }
    }

    /// The experiment specification.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Returns the record of the injected fault once it has fired.
    pub fn record(&self) -> Option<&FaultRecord> {
        self.record.as_ref()
    }

    /// Returns `true` once the fault has been injected.
    pub fn has_fired(&self) -> bool {
        self.record.is_some()
    }

    fn armed(&self) -> bool {
        self.record.is_none() && self.current_tick >= self.spec.trigger_tick
    }

    /// Applies the fault model to `field` of `states` and records it.
    fn corrupt_field(&mut self, field: StateField, states: &mut MonitoredStates) -> f64 {
        let (corrupted, detail) = self.spec.model.apply(states.field(field), &mut self.rng);
        states.set_field(field, corrupted);
        self.record = Some(FaultRecord {
            tick: self.current_tick,
            target: self.spec.target.label(),
            field: Some(field),
            detail,
        });
        corrupted
    }

    /// Chooses which scalar field to corrupt for the current target at the
    /// given hook's stage, or `None` when this hook is not the right place.
    fn field_for_stage(&mut self, stage: Stage) -> Option<StateField> {
        match self.spec.target {
            InjectionTarget::State(field) if field.stage() == stage => Some(field),
            InjectionTarget::Stage(target_stage) if target_stage == stage => {
                stage_fields(stage).choose(&mut self.rng).copied()
            }
            InjectionTarget::Kernel(kernel) if kernel.stage() == stage => match kernel {
                // Point-cloud and OctoMap faults are handled on their own
                // hooks, not through scalar states.
                KernelId::PointCloudGeneration | KernelId::OctoMap => None,
                // Every other kernel's output manifests on its stage's
                // scalar states: collision check, planners, smoothing,
                // mission planning, path tracking and PID.
                _ => stage_fields(stage).choose(&mut self.rng).copied(),
            },
            _ => None,
        }
    }
}

/// The monitored fields `stage` produces: a contiguous run of
/// [`StateField::ALL`].
fn stage_fields(stage: Stage) -> &'static [StateField] {
    let all: &'static [StateField] = &StateField::ALL;
    match stage {
        Stage::Perception => &all[..2],
        Stage::Planning => &all[2..9],
        Stage::Control => &all[9..],
    }
}

impl StageTap for FaultInjector {
    fn after_point_cloud(&mut self, cloud: &mut PointCloud) {
        self.current_tick = self.ticks_seen;
        self.ticks_seen += 1;
        if !self.armed() {
            return;
        }
        if self.spec.target == InjectionTarget::Kernel(KernelId::PointCloudGeneration) {
            if cloud.points.is_empty() {
                return;
            }
            let index = self.rng.gen_range(0..cloud.points.len());
            let axis = self.rng.gen_range(0..3);
            let point = &mut cloud.points[index];
            let value = match axis {
                0 => &mut point.x,
                1 => &mut point.y,
                _ => &mut point.z,
            };
            let (corrupted, detail) = self.spec.model.apply(*value, &mut self.rng);
            *value = corrupted;
            self.record = Some(FaultRecord {
                tick: self.current_tick,
                target: self.spec.target.label(),
                field: None,
                detail,
            });
        }
    }

    fn after_occupancy(&mut self, grid: &mut OccupancyGrid) {
        if !self.armed() || self.spec.target != InjectionTarget::Kernel(KernelId::OctoMap) {
            return;
        }
        let mut keys: Vec<_> = grid.occupied_voxels().collect();
        if keys.is_empty() {
            return;
        }
        keys.sort();
        let key = keys[self.rng.gen_range(0..keys.len())];
        // A bit flip in the map manifests as an occupied voxel read as free
        // (the case the paper discusses) or, less often, a spurious voxel.
        if self.rng.gen_bool(0.8) {
            grid.set_voxel(key, false);
            self.record = Some(FaultRecord {
                tick: self.current_tick,
                target: self.spec.target.label(),
                field: None,
                detail: CorruptionDetail { original: 1.0, corrupted: 0.0, bit: None, field: None },
            });
        } else {
            // Saturating: the chosen voxel may itself sit at the edge of the
            // key range after earlier corruption.
            let spurious = mavfi_ppc::perception::occupancy::VoxelKey {
                x: key.x.saturating_add(self.rng.gen_range(-3..=3)),
                y: key.y.saturating_add(self.rng.gen_range(-3..=3)),
                z: key.z,
            };
            grid.set_voxel(spurious, true);
            self.record = Some(FaultRecord {
                tick: self.current_tick,
                target: self.spec.target.label(),
                field: None,
                detail: CorruptionDetail { original: 0.0, corrupted: 1.0, bit: None, field: None },
            });
        }
    }

    fn after_perception(&mut self, estimate: &mut CollisionEstimate) -> TapAction {
        if self.armed() {
            if let Some(field) = self.field_for_stage(Stage::Perception) {
                let mut states = MonitoredStates { collision: *estimate, ..Default::default() };
                // Collapse non-finite clear-path sentinels to a large finite
                // value so the bit flip produces a representative corruption.
                if !states.field(field).is_finite() {
                    states.set_field(field, 1.0e6);
                }
                let value = self.corrupt_field(field, &mut states);
                *estimate = states.collision;
                estimate.obstacle_ahead = if field == StateField::TimeToCollision {
                    value.is_finite() && value < 1.0e5
                } else {
                    estimate.obstacle_ahead || value >= 0.0
                };
            }
        }
        TapAction::Continue
    }

    fn after_planning(&mut self, trajectory: &mut Trajectory, active_index: usize) -> TapAction {
        if self.armed() && !trajectory.is_empty() {
            if let Some(field) = self.field_for_stage(Stage::Planning) {
                let index = active_index.min(trajectory.len() - 1);
                let waypoint = &mut trajectory.waypoints[index];
                let mut states = MonitoredStates { waypoint: *waypoint, ..Default::default() };
                self.corrupt_field(field, &mut states);
                *waypoint = states.waypoint;
            }
        }
        TapAction::Continue
    }

    fn after_control(&mut self, command: &mut FlightCommand) -> TapAction {
        if self.armed() {
            if let Some(field) = self.field_for_stage(Stage::Control) {
                let mut states = MonitoredStates { command: *command, ..Default::default() };
                self.corrupt_field(field, &mut states);
                *command = states.command;
            }
        }
        TapAction::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BitSelection;
    use mavfi_sim::geometry::Vec3;

    fn drive_tick(injector: &mut FaultInjector) {
        injector.after_point_cloud(&mut PointCloud::default());
    }

    #[test]
    fn fires_only_once_and_at_the_trigger_tick() {
        let spec = FaultSpec::new(InjectionTarget::State(StateField::CommandVx), 2, 5);
        let mut injector = FaultInjector::new(spec);
        let mut command = FlightCommand::new(Vec3::new(1.0, 0.0, 0.0), 0.0);

        for tick in 0..5 {
            drive_tick(&mut injector);
            let before = command;
            injector.after_control(&mut command);
            if tick < 2 {
                assert_eq!(command, before, "must not fire before the trigger tick");
            }
        }
        let record = injector.record().expect("fault fired");
        assert_eq!(record.tick, 2);
        assert_eq!(record.field, Some(StateField::CommandVx));
        assert!(injector.has_fired());
        // Exactly one corruption: subsequent commands are untouched.
        let mut again = FlightCommand::new(Vec3::new(1.0, 0.0, 0.0), 0.0);
        injector.after_control(&mut again);
        assert_eq!(again, FlightCommand::new(Vec3::new(1.0, 0.0, 0.0), 0.0));
    }

    #[test]
    fn waypoint_fault_corrupts_active_waypoint() {
        let spec = FaultSpec {
            target: InjectionTarget::State(StateField::WaypointX),
            model: FaultModel::SingleBitFlip { selection: BitSelection::Exact(62) },
            trigger_tick: 0,
            seed: 3,
        };
        let mut injector = FaultInjector::new(spec);
        drive_tick(&mut injector);
        let mut trajectory = Trajectory::new(vec![
            mavfi_ppc::states::Waypoint {
                position: Vec3::new(1.0, 2.0, 3.0),
                ..Default::default()
            },
            mavfi_ppc::states::Waypoint {
                position: Vec3::new(4.0, 5.0, 6.0),
                ..Default::default()
            },
        ]);
        injector.after_planning(&mut trajectory, 1);
        assert_ne!(trajectory.waypoints[1].position.x, 4.0);
        assert_eq!(trajectory.waypoints[0].position.x, 1.0);
    }

    #[test]
    fn empty_trajectory_defers_the_fault() {
        let spec = FaultSpec::new(InjectionTarget::Stage(Stage::Planning), 0, 9);
        let mut injector = FaultInjector::new(spec);
        drive_tick(&mut injector);
        let mut empty = Trajectory::default();
        injector.after_planning(&mut empty, 0);
        assert!(!injector.has_fired());
        // Next tick with a real trajectory the fault lands.
        drive_tick(&mut injector);
        let mut trajectory = Trajectory::new(vec![mavfi_ppc::states::Waypoint::default()]);
        injector.after_planning(&mut trajectory, 0);
        assert!(injector.has_fired());
    }

    #[test]
    fn octomap_fault_flips_a_voxel() {
        let spec = FaultSpec::new(InjectionTarget::Kernel(KernelId::OctoMap), 0, 11);
        let mut injector = FaultInjector::new(spec);
        drive_tick(&mut injector);
        let mut grid = OccupancyGrid::new(0.5);
        for i in 0..20 {
            grid.insert_point(Vec3::new(i as f64, 0.0, 1.0));
        }
        let before = grid.occupied_count();
        injector.after_occupancy(&mut grid);
        assert!(injector.has_fired());
        assert_ne!(grid.occupied_count(), before);
    }

    #[test]
    fn point_cloud_fault_corrupts_a_point() {
        let spec = FaultSpec::new(InjectionTarget::Kernel(KernelId::PointCloudGeneration), 0, 2);
        let mut injector = FaultInjector::new(spec);
        let mut cloud = PointCloud::new(vec![Vec3::new(1.0, 2.0, 3.0); 8]);
        injector.after_point_cloud(&mut cloud);
        assert!(injector.has_fired());
        assert!(cloud.points.iter().any(|p| *p != Vec3::new(1.0, 2.0, 3.0)));
    }

    #[test]
    fn stage_target_picks_a_field_of_that_stage() {
        let spec = FaultSpec::new(InjectionTarget::Stage(Stage::Perception), 0, 21);
        let mut injector = FaultInjector::new(spec);
        drive_tick(&mut injector);
        let mut estimate = CollisionEstimate::default();
        injector.after_perception(&mut estimate);
        let record = injector.record().expect("fired");
        assert_eq!(record.field.unwrap().stage(), Stage::Perception);
    }

    #[test]
    fn injection_is_deterministic_per_seed() {
        let spec = FaultSpec::new(InjectionTarget::State(StateField::CommandVy), 0, 77);
        let run = |spec: FaultSpec| {
            let mut injector = FaultInjector::new(spec);
            drive_tick(&mut injector);
            let mut command = FlightCommand::new(Vec3::new(0.5, 1.5, -0.5), 0.2);
            injector.after_control(&mut command);
            (command, injector.record().cloned())
        };
        // Compare via Debug: the corrupted value can legitimately be NaN
        // (exponent-field flips reach the NaN encodings), and NaN != NaN
        // would fail a direct equality even for identical runs.
        assert_eq!(format!("{:?}", run(spec)), format!("{:?}", run(spec)));
    }

    /// Fires `target` at tick 0 through its stage's hook on fixed states.
    fn fire(target: InjectionTarget, seed: u64) -> FaultRecord {
        let mut injector = FaultInjector::new(FaultSpec::new(target, 0, seed));
        drive_tick(&mut injector);
        match target.stage() {
            Stage::Perception => {
                let mut estimate = CollisionEstimate {
                    time_to_collision: 2.5,
                    future_collision_seq: 3.0,
                    obstacle_ahead: true,
                };
                injector.after_perception(&mut estimate);
            }
            Stage::Planning => {
                let mut trajectory = Trajectory::new(vec![mavfi_ppc::states::Waypoint {
                    position: Vec3::new(1.0, 2.0, 3.0),
                    yaw: 0.5,
                    velocity: Vec3::new(0.5, -0.5, 0.25),
                }]);
                injector.after_planning(&mut trajectory, 0);
            }
            Stage::Control => {
                injector.after_control(&mut FlightCommand::new(Vec3::new(1.0, -2.0, 0.5), 0.3));
            }
        }
        injector.record().cloned().expect("fault fired")
    }

    #[test]
    fn scalar_kernel_targets_corrupt_what_their_stage_target_corrupts() {
        for stage in Stage::ALL {
            let fields: Vec<_> =
                StateField::ALL.into_iter().filter(|field| field.stage() == stage).collect();
            assert_eq!(stage_fields(stage), fields.as_slice());
        }
        let scalar_kernels = KernelId::FIG3_KERNELS
            .into_iter()
            .filter(|kernel| !matches!(kernel, KernelId::PointCloudGeneration | KernelId::OctoMap));
        for kernel in scalar_kernels {
            let mut hit = Vec::new();
            for seed in 0..16 {
                let by_kernel = fire(InjectionTarget::Kernel(kernel), seed);
                let by_stage = fire(InjectionTarget::Stage(kernel.stage()), seed);
                assert_eq!(by_kernel.field, by_stage.field, "{kernel:?} seed {seed}");
                assert_eq!(by_kernel.detail.bit, by_stage.detail.bit, "{kernel:?} seed {seed}");
                assert_eq!(
                    by_kernel.detail.corrupted.to_bits(),
                    by_stage.detail.corrupted.to_bits(),
                    "{kernel:?} seed {seed}"
                );
                let field = by_kernel.field.expect("kernel targets corrupt a scalar");
                assert_eq!(field.stage(), kernel.stage());
                if !hit.contains(&field) {
                    hit.push(field);
                }
            }
            assert!(hit.len() > 1, "{kernel:?} always hit {hit:?}");
        }
    }
}
