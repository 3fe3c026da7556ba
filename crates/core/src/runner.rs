//! The mission runner: one closed-loop flight of the PPC pipeline in the
//! simulated world, optionally with a fault injected and a detection and
//! recovery scheme supervising the inter-kernel states — and the fault-job
//! trunk, which flies a seed's golden run and a fault's unprotected and
//! protected settings as one flight until the fault first fires or a
//! detector first acts.

use mavfi_detect::detector_node::{DetectionScheme, DetectorStats, DetectorTap, ShadowDetector};
use mavfi_detect::training::TelemetrySet;
use mavfi_detect::{AadDetector, GadBank};
use mavfi_fault::injector::{FaultInjector, FaultRecord, FaultSpec};
use mavfi_ppc::perception::occupancy::OccupancyGrid;
use mavfi_ppc::pipeline::{PipelineStats, PpcConfig, PpcPipeline, PpcTick};
use mavfi_ppc::states::{CollisionEstimate, PointCloud, Trajectory};
use mavfi_ppc::tap::{StageTap, TapAction};
use mavfi_sim::energy::PowerModel;
use mavfi_sim::env::Environment;
use mavfi_sim::geometry::Vec3;
use mavfi_sim::sensors::{CaptureScratch, DepthCamera, DepthFrame, RayHits};
use mavfi_sim::vehicle::FlightCommand;
use mavfi_sim::world::{MissionStatus, World};
use mavfi_telemetry::MissionTelemetry;

use crate::config::{MissionSpec, Protection};
use crate::error::MavfiError;
use crate::qof::QofMetrics;
use crate::trace::{DetectorProvenance, MissionTrace, TraceCapture, TraceMeta};

/// Detectors trained on error-free telemetry, shared across campaign runs.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainedDetectors {
    /// The Gaussian detector bank (primed baselines).
    pub gad: GadBank,
    /// The trained autoencoder detector.
    pub aad: AadDetector,
}

/// Everything produced by one mission run.
#[derive(Debug, Clone, PartialEq)]
pub struct MissionOutcome {
    /// Quality-of-flight metrics.
    pub qof: QofMetrics,
    /// Sampled flight trajectory.
    pub trail: Vec<Vec3>,
    /// Record of the injected fault, if one fired.
    pub fault: Option<FaultRecord>,
    /// Detector activity, when a protection scheme was active.
    pub detector: Option<DetectorStats>,
    /// Pipeline kernel/recomputation statistics.
    pub pipeline: PipelineStats,
}

impl MissionOutcome {
    /// Returns `true` when the mission reached its goal.
    pub fn is_success(&self) -> bool {
        self.qof.is_success()
    }
}

/// Composite tap: fault injector first (corrupting states in flight), then
/// the detector (observing exactly what the downstream kernels would see),
/// then any shadow detectors (seeing the same values, changing nothing).
/// Shared with the replay harness, which rebuilds the identical tap from a
/// trace's metadata.
#[derive(Default)]
pub(crate) struct MissionTap {
    pub(crate) injector: Option<FaultInjector>,
    pub(crate) detector: Option<DetectorTap>,
    pub(crate) shadows: Vec<ShadowDetector>,
}

/// `clone_from` reuses the target's storage (see [`Flight`]).
impl Clone for MissionTap {
    fn clone(&self) -> Self {
        Self {
            injector: self.injector.clone(),
            detector: self.detector.clone(),
            shadows: self.shadows.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.injector.clone_from(&source.injector);
        self.detector.clone_from(&source.detector);
        self.shadows.clone_from(&source.shadows);
    }
}

impl std::fmt::Debug for MissionTap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MissionTap")
            .field("injector", &self.injector.as_ref().map(FaultInjector::spec))
            .field("detector", &self.detector.as_ref().map(|detector| detector.scheme().label()))
            .field("shadows", &self.shadows.len())
            .finish()
    }
}

impl TrainedDetectors {
    /// The detector tap of a protection scheme (none for
    /// [`Protection::None`]) — the one place the scheme→detector wiring
    /// lives, shared by the runner, the fault-job trunk and the replay
    /// harness so all construct identical taps.
    fn tap(&self, protection: Protection) -> Option<DetectorTap> {
        match protection {
            Protection::None => None,
            Protection::Gaussian => {
                Some(DetectorTap::new(DetectionScheme::Gaussian(self.gad.clone())))
            }
            Protection::Autoencoder => {
                Some(DetectorTap::new(DetectionScheme::Autoencoder(self.aad.clone())))
            }
        }
    }
}

/// Builds the detector tap for a protection scheme (see
/// `TrainedDetectors::tap`), failing when a scheme lacks its detectors.
pub(crate) fn detector_tap(
    protection: Protection,
    detectors: Option<&TrainedDetectors>,
) -> Result<Option<DetectorTap>, MavfiError> {
    if protection == Protection::None {
        return Ok(None);
    }
    let detectors = detectors
        .ok_or_else(|| MavfiError::MissingDetectors { scheme: protection.label().to_owned() })?;
    Ok(detectors.tap(protection))
}

impl MissionTap {
    /// The tap of a single flight: `fault`'s injector, when given, and
    /// `detector`, with no shadows.
    pub(crate) fn new(fault: Option<FaultSpec>, detector: Option<DetectorTap>) -> Self {
        Self { injector: fault.map(FaultInjector::new), detector, shadows: Vec::new() }
    }
}

impl StageTap for MissionTap {
    fn after_point_cloud(&mut self, cloud: &mut PointCloud) {
        if let Some(injector) = &mut self.injector {
            injector.after_point_cloud(cloud);
        }
        if let Some(detector) = &mut self.detector {
            detector.after_point_cloud(cloud);
        }
        for shadow in &mut self.shadows {
            shadow.after_point_cloud(cloud);
        }
    }

    fn after_occupancy(&mut self, grid: &mut OccupancyGrid) {
        if let Some(injector) = &mut self.injector {
            injector.after_occupancy(grid);
        }
        if let Some(detector) = &mut self.detector {
            detector.after_occupancy(grid);
        }
    }

    fn after_perception(&mut self, estimate: &mut CollisionEstimate) -> TapAction {
        let mut action = TapAction::Continue;
        if let Some(injector) = &mut self.injector {
            action = action.merge(injector.after_perception(estimate));
        }
        if let Some(detector) = &mut self.detector {
            action = action.merge(detector.after_perception(estimate));
        }
        for shadow in &mut self.shadows {
            shadow.after_perception(estimate);
        }
        action
    }

    fn after_planning(&mut self, trajectory: &mut Trajectory, active_index: usize) -> TapAction {
        let mut action = TapAction::Continue;
        if let Some(injector) = &mut self.injector {
            action = action.merge(injector.after_planning(trajectory, active_index));
        }
        if let Some(detector) = &mut self.detector {
            action = action.merge(detector.after_planning(trajectory, active_index));
        }
        for shadow in &mut self.shadows {
            shadow.after_planning(trajectory, active_index);
        }
        action
    }

    fn after_control(&mut self, command: &mut FlightCommand) -> TapAction {
        let mut action = TapAction::Continue;
        if let Some(injector) = &mut self.injector {
            action = action.merge(injector.after_control(command));
        }
        if let Some(detector) = &mut self.detector {
            action = action.merge(detector.after_control(command));
        }
        for shadow in &mut self.shadows {
            shadow.after_control(command);
        }
        action
    }
}

/// One closed-loop flight in progress: the simulated world, the PPC
/// pipeline, the stage tap (fault injector, detector and shadow detectors)
/// and, on instrumented flights, one telemetry sink.
///
/// A clone carries the flight's whole semantic state — the planner's random
/// stream included — so it flies on exactly as the original would.
/// `clone_from` into a reused checkpoint allocates nothing once warm (the
/// per-tick capture scratch is not copied: each tick overwrites it).
///
/// A *trunk* ([`MissionRunner::trunk`]) is the unprotected flight of a fault
/// carrying the D&R(G) and D&R(A) detectors as [`ShadowDetector`]s: up to
/// the first tick where a detector would act, each protected flight is
/// bit-identical to the unprotected one, and up to the tick where the fault
/// fires, so is the golden flight of the same seed.  The campaign engine
/// therefore flies a seed's golden run and the three settings of its fault
/// as one trunk, and forks the golden flight and each protected flight only
/// from there (see `docs/ARCHITECTURE.md`).  [`Flight::step`] flies single
/// ticks; shadows observe them but never fork.
///
/// Until a shadow trips, its setting's telemetry is the flight's own: a
/// shadow counts no alarm and no abandonment before it would act, and a
/// trunk carries no live detector.  So the one sink serves every setting,
/// and a branch takes the sink of the checkpoint it forks from.
#[derive(Debug)]
pub struct Flight {
    world: World,
    pipeline: PpcPipeline,
    tap: MissionTap,
    /// The flight's telemetry sink, when instrumented.
    sink: Option<MissionTelemetry>,
    tick_index: u64,
    dt: f64,
    camera: DepthCamera,
    // Per-tick capture scratch, reused for the whole mission: the closed
    // loop performs zero steady-state heap allocations (see
    // docs/PERFORMANCE.md) — telemetry included, its buffers are
    // preallocated at sink construction.
    frame: DepthFrame,
    capture_scratch: CaptureScratch,
    ray_hits: RayHits,
}

impl Clone for Flight {
    fn clone(&self) -> Self {
        Self {
            world: self.world.clone(),
            pipeline: self.pipeline.clone(),
            tap: self.tap.clone(),
            sink: self.sink.clone(),
            tick_index: self.tick_index,
            dt: self.dt,
            camera: self.camera,
            frame: DepthFrame::default(),
            capture_scratch: CaptureScratch::new(),
            ray_hits: RayHits::default(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Destructured, so a new field cannot silently miss checkpoints.
        let Self {
            world,
            pipeline,
            tap,
            sink,
            tick_index,
            dt,
            camera,
            frame: _,
            capture_scratch: _,
            ray_hits: _,
        } = source;
        self.world.clone_from(world);
        self.pipeline.clone_from(pipeline);
        self.tap.clone_from(tap);
        self.sink.clone_from(sink);
        self.tick_index = *tick_index;
        self.dt = *dt;
        self.camera = *camera;
    }
}

/// One setting's finished flight.
pub(crate) struct Landing {
    pub(crate) outcome: MissionOutcome,
    /// The setting's telemetry sink, when the flight was instrumented.
    pub(crate) sink: Option<MissionTelemetry>,
    /// Ticks taken from a trunk instead of flown: all of them for a shadow
    /// that never tripped, the ticks before the fork for a branch, none for
    /// a flight of its own.
    pub(crate) shared_ticks: u64,
}

impl Landing {
    /// For a shadow's or the golden flight's landing: whether it forked off
    /// the trunk (a branch flies at least its fork tick).
    pub(crate) fn branched(&self) -> bool {
        self.shared_ticks < self.outcome.pipeline.ticks
    }
}

/// Everything one [`Flight::fly`] lands.
struct Landings {
    /// The flight's own setting.
    live: Landing,
    /// One landing per shadow, in shadow order.
    shadows: Vec<Landing>,
    /// The fault-free flight of the same mission, when it was asked for.
    golden: Option<Landing>,
}

/// What [`MissionRunner::fly_fault_settings`] lands.
pub(crate) struct FaultJobLandings {
    /// The seed's golden flight, when it was asked for.
    pub(crate) golden: Option<Landing>,
    /// Unprotected, D&R(G) and D&R(A), in that order.
    pub(crate) settings: [Landing; 3],
}

/// The environment `spec` flies in and its PPC pipeline at tick 0: the
/// deterministic setup the runner and the replay harness share.  Building the
/// environment is pure configuration (bounds, start, goal, obstacles).
pub(crate) fn mission_pipeline(spec: &MissionSpec) -> (Environment, PpcPipeline) {
    let environment = spec.environment.build(spec.seed);
    let ppc_config = PpcConfig::new(spec.planner, environment.bounds(), spec.seed);
    let pipeline = PpcPipeline::new(ppc_config, environment.start(), environment.goal());
    (environment, pipeline)
}

impl Flight {
    /// A flight of `spec` at tick 0, feeding `sink` each tick when given.
    fn new(spec: MissionSpec, tap: MissionTap, sink: Option<MissionTelemetry>) -> Self {
        let (environment, mut pipeline) = mission_pipeline(&spec);
        pipeline.set_timing_enabled(sink.is_some());
        Self {
            world: World::new(environment, spec.vehicle, PowerModel::default(), spec.mission),
            pipeline,
            tap,
            sink,
            tick_index: 0,
            dt: spec.control_period,
            camera: DepthCamera::default(),
            frame: DepthFrame::default(),
            capture_scratch: CaptureScratch::new(),
            ray_hits: RayHits::default(),
        }
    }

    /// Whether the mission is still flying.
    pub fn is_in_progress(&self) -> bool {
        self.world.status() == MissionStatus::InProgress
    }

    /// Flies one closed-loop tick: depth capture, pipeline tick (with every
    /// tap), world step.  Shadows observe the tick; a shadow that trips
    /// stops observing, but the flight does not fork.
    pub fn step(&mut self) -> PpcTick {
        self.step_recorded(None)
    }

    /// [`Flight::step`], recording the tick's topic traffic into `capture`
    /// when given: the one tick body, feeding the sink when instrumented.
    fn step_recorded(&mut self, mut capture: Option<&mut TraceCapture>) -> PpcTick {
        let sim_time = self.world.elapsed();
        let pose = self.world.vehicle().pose();
        let state = self.world.vehicle().state();
        match capture.as_deref_mut() {
            Some(capture) => {
                // Record the frame in (ray, t) form and resolve it back: the
                // pipeline consumes exactly the point cloud a replay will
                // reconstruct from the trace, so both sides are
                // bit-identical by construction (`resolve_rays` is itself
                // bit-identical to `capture_into`, and keeps the capture's
                // ray tables).
                self.camera.capture_rays_into(
                    self.world.environment(),
                    &pose,
                    &mut self.capture_scratch,
                    &mut self.ray_hits,
                );
                self.camera.resolve_rays(
                    &pose,
                    &self.ray_hits,
                    &mut self.capture_scratch,
                    &mut self.frame,
                );
                capture.record_inputs(self.tick_index, sim_time, &state, &self.ray_hits);
            }
            None => self.camera.capture_into(
                self.world.environment(),
                &pose,
                &mut self.capture_scratch,
                &mut self.frame,
            ),
        }
        let tick = self.pipeline.tick(&self.frame, &state, self.dt, &mut self.tap);
        if let Some(capture) = capture {
            capture.record_outputs(
                self.tick_index,
                sim_time,
                &tick,
                self.pipeline.trajectory(),
                self.pipeline.trajectory_revision(),
                self.tap.detector.as_ref().map(|detector| detector.stats()),
                self.tap.injector.as_ref().and_then(|injector| injector.record()),
            );
        }
        self.world.step(&tick.command, self.dt);

        if let Some(sink) = &mut self.sink {
            sink.observe_tick(
                self.tick_index,
                self.world.elapsed(),
                &tick,
                &self.pipeline,
                self.tap.detector.as_ref().map(|detector| detector.stats()),
                self.tap.injector.as_ref().and_then(|injector| injector.record()),
            );
        }
        self.tick_index += 1;
        tick
    }

    /// The flight's outcome so far (its final outcome once landed).
    pub fn outcome(&self) -> MissionOutcome {
        MissionOutcome {
            qof: QofMetrics {
                status: self.world.status(),
                flight_time_s: self.world.elapsed(),
                energy_j: self.world.energy_joules(),
                distance_m: self.world.distance_travelled(),
            },
            trail: self.world.trail().to_vec(),
            fault: self.tap.injector.as_ref().and_then(|injector| injector.record().cloned()),
            detector: self.tap.detector.as_ref().map(|detector| detector.stats().clone()),
            pipeline: self.pipeline.stats().clone(),
        }
    }

    /// Flies to the end of the mission under the trunk's fork rule.  Lands
    /// the flight's own setting, one setting per shadow, in shadow order,
    /// and with `fork_golden` the fault-free flight of the same mission.
    ///
    /// While a shadow or the golden flight is pending, the flight copies
    /// itself into a reused checkpoint before each tick.  A shadow that
    /// trips in a tick forks a branch: the checkpoint taken before that
    /// tick, with the shadow made live and the checkpoint's sink, flies to
    /// the end under this same rule.  A shadow that never trips takes the
    /// flight's outcome with its own detector statistics, and a copy of the
    /// flight's sink.
    ///
    /// The golden flight forks the same way in the tick where the injector
    /// first fires: the checkpoint flies on with no injector, detector or
    /// shadows.  Until then the injector writes no value and draws no
    /// random number and shadows never write, so the flight so far *is* the
    /// golden flight; one whose fault never fires takes the flight's
    /// outcome.  `fork_golden` is for trunks, which carry no live detector.
    fn fly(mut self, fork_golden: bool) -> Landings {
        let mut branches: Vec<Option<Landing>> = self.tap.shadows.iter().map(|_| None).collect();
        let mut golden: Option<Landing> = None;
        let mut golden_pending = fork_golden;
        let mut checkpoint: Option<Flight> = None;
        while self.is_in_progress() {
            let pending =
                golden_pending || self.tap.shadows.iter().any(|shadow| !shadow.is_tripped());
            if pending {
                match &mut checkpoint {
                    Some(checkpoint) => checkpoint.clone_from(&self),
                    None => checkpoint = Some(self.clone()),
                }
            }
            self.step();
            if pending {
                let start = checkpoint.as_ref().expect("checkpointed while pending");
                for (index, shadow) in self.tap.shadows.iter().enumerate() {
                    if shadow.is_tripped() && branches[index].is_none() {
                        branches[index] = Some(start.branch(index));
                    }
                }
                if golden_pending
                    && self.tap.injector.as_ref().is_some_and(FaultInjector::has_fired)
                {
                    golden = Some(start.golden_branch());
                    golden_pending = false;
                }
            }
        }

        let trunk_ticks = self.tick_index;
        let shadows = std::mem::take(&mut self.tap.shadows);
        let live = Landing { outcome: self.outcome(), sink: self.sink.take(), shared_ticks: 0 };
        // A fault that never fired leaves the whole flight golden: its
        // outcome already has no fault record and no detector statistics.
        let golden = fork_golden.then(|| {
            golden.unwrap_or_else(|| Landing {
                outcome: live.outcome.clone(),
                sink: live.sink.clone(),
                shared_ticks: trunk_ticks,
            })
        });
        let shadows = shadows
            .into_iter()
            .zip(branches)
            .map(|(shadow, branch)| {
                branch.unwrap_or_else(|| Landing {
                    outcome: MissionOutcome {
                        detector: Some(shadow.tap().stats().clone()),
                        ..live.outcome.clone()
                    },
                    sink: live.sink.clone(),
                    shared_ticks: trunk_ticks,
                })
            })
            .collect();
        Landings { live, shadows, golden }
    }

    /// Forks shadow `index` off this checkpoint: a copy with that shadow
    /// made live flies to the end.
    fn branch(&self, index: usize) -> Landing {
        let mut branch = self.clone();
        let shadow = std::mem::take(&mut branch.tap.shadows).swap_remove(index);
        branch.tap.detector = Some(shadow.into_live());
        branch.land_from(self)
    }

    /// Forks the golden flight off this checkpoint: a copy with no
    /// injector, detector or shadows (and the live sink as it stands) flies
    /// to the end.
    fn golden_branch(&self) -> Landing {
        let mut golden = self.clone();
        golden.tap = MissionTap::default();
        golden.land_from(self)
    }

    /// Flies a branch forked off `checkpoint` to the end; the ticks before
    /// the fork count as shared.
    fn land_from(self, checkpoint: &Flight) -> Landing {
        let live = self.fly(false).live;
        Landing { shared_ticks: checkpoint.tick_index, ..live }
    }
}

/// Runs missions described by a [`MissionSpec`].
///
/// # Examples
///
/// ```no_run
/// use mavfi::prelude::*;
///
/// let spec = MissionSpec::new(EnvironmentKind::Sparse, 42);
/// let outcome = MissionRunner::new(spec).run_golden();
/// println!("flight time: {:.1} s", outcome.qof.flight_time_s);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissionRunner {
    spec: MissionSpec,
}

impl MissionRunner {
    /// Creates a runner for one mission specification.
    pub fn new(spec: MissionSpec) -> Self {
        Self { spec }
    }

    /// The mission specification.
    pub fn spec(&self) -> MissionSpec {
        self.spec
    }

    /// Runs an error-free mission with no protection (a "golden run").
    pub fn run_golden(&self) -> MissionOutcome {
        self.fly_setting(MissionTap::default(), None)
    }

    /// Runs a golden run while feeding the telemetry sink each tick:
    /// wall-clock kernel timing is enabled on the pipeline and every tick
    /// is observed.  Results are bit-identical to [`Self::run_golden`] —
    /// the sink only reads.
    pub fn run_golden_instrumented(&self, sink: &mut MissionTelemetry) -> MissionOutcome {
        self.fly_setting(MissionTap::default(), Some(sink))
    }

    /// Runs an error-free mission while recording preprocessed telemetry
    /// into `telemetry` (used to train the detectors).
    pub fn run_collecting_telemetry(&self, telemetry: &mut TelemetrySet) -> MissionOutcome {
        let mut flight = Flight::new(self.spec, MissionTap::default(), None);
        while flight.is_in_progress() {
            telemetry.record(&flight.step().monitored);
        }
        telemetry.end_mission();
        flight.outcome()
    }

    /// Runs a mission with an optional fault and protection scheme.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::MissingDetectors`] if a protection scheme other
    /// than [`Protection::None`] is requested without trained detectors.
    pub fn run(
        &self,
        fault: Option<FaultSpec>,
        protection: Protection,
        detectors: Option<&TrainedDetectors>,
    ) -> Result<MissionOutcome, MavfiError> {
        let tap = MissionTap::new(fault, detector_tap(protection, detectors)?);
        Ok(self.fly_setting(tap, None))
    }

    /// Like [`Self::run`], but feeds the telemetry sink each tick.  The
    /// sink is purely observational: qof/trail are bit-identical with and
    /// without it.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::MissingDetectors`] under the same conditions
    /// as [`Self::run`].
    pub fn run_instrumented(
        &self,
        fault: Option<FaultSpec>,
        protection: Protection,
        detectors: Option<&TrainedDetectors>,
        sink: &mut MissionTelemetry,
    ) -> Result<MissionOutcome, MavfiError> {
        let tap = MissionTap::new(fault, detector_tap(protection, detectors)?);
        Ok(self.fly_setting(tap, Some(sink)))
    }

    /// Flies one setting on its own, feeding `sink` when given.  The flight
    /// owns its sink (checkpoints copy it), so the caller's is moved in and
    /// comes back once the mission lands.
    fn fly_setting(
        &self,
        tap: MissionTap,
        mut sink: Option<&mut MissionTelemetry>,
    ) -> MissionOutcome {
        let owned = sink
            .as_deref_mut()
            .map(|sink| std::mem::replace(sink, MissionTelemetry::with_timeline_capacity(0)));
        let landing = Flight::new(self.spec, tap, owned).fly(false).live;
        if let (Some(sink), Some(flown)) = (sink, landing.sink) {
            *sink = flown;
        }
        landing.outcome
    }

    /// The trunk of a fault job at tick 0: the unprotected flight of
    /// `fault`, carrying the D&R(G) and D&R(A) detectors as shadows (see
    /// [`Flight`]).
    pub fn trunk(&self, fault: FaultSpec, detectors: &TrainedDetectors) -> Flight {
        Flight::new(self.spec, Self::trunk_tap(fault, detectors), None)
    }

    fn trunk_tap(fault: FaultSpec, detectors: &TrainedDetectors) -> MissionTap {
        MissionTap {
            shadows: [Protection::Gaussian, Protection::Autoencoder]
                .into_iter()
                .filter_map(|protection| detectors.tap(protection))
                .map(ShadowDetector::new)
                .collect(),
            ..MissionTap::new(Some(fault), None)
        }
    }

    /// Flies one planned fault in the three settings of Table I —
    /// unprotected, D&R(G) and D&R(A), in that order — and, with `golden`,
    /// the mission's golden run, as one trunk that forks the golden flight
    /// only where the fault first fires and a protected flight only where
    /// its detector first acts.  Each outcome is bit-identical to
    /// [`Self::run`]'s for that setting (to [`Self::run_golden`]'s for the
    /// golden flight), and so is each sink's content when `instrument` gives
    /// every setting one.
    pub(crate) fn fly_fault_settings(
        &self,
        fault: FaultSpec,
        detectors: &TrainedDetectors,
        instrument: bool,
        golden: bool,
    ) -> FaultJobLandings {
        let sink = instrument.then(MissionTelemetry::new);
        let trunk = Flight::new(self.spec, Self::trunk_tap(fault, detectors), sink);
        let landings = trunk.fly(golden);
        let mut shadows = landings.shadows.into_iter();
        let mut next = || shadows.next().expect("a trunk carries two shadows");
        FaultJobLandings { golden: landings.golden, settings: [landings.live, next(), next()] }
    }

    /// Flies the mission's golden run on its own, with a sink of its own
    /// when `instrument` is set.  The outcome is [`Self::run_golden`]'s.
    pub(crate) fn fly_golden(&self, instrument: bool) -> Landing {
        Flight::new(self.spec, MissionTap::default(), instrument.then(MissionTelemetry::new))
            .fly(false)
            .live
    }

    /// Runs a mission — optionally fault-injected and protected — while
    /// recording its closed-loop topic traffic into a [`MissionTrace`]:
    /// per-tick vehicle states and depth rays (inputs), commands, monitored
    /// states, tick flags, planned paths, detector verdicts and the fault
    /// record (outputs).  The outcome is bit-identical to [`Self::run`]'s.
    ///
    /// Pass `provenance` when the trace should be self-contained: the
    /// replay harness then retrains bit-identical detectors via the global
    /// [`TrainedDetectorCache`](crate::exec::TrainedDetectorCache) instead
    /// of requiring them to be supplied at replay time.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::MissingDetectors`] under the same conditions
    /// as [`Self::run`].
    pub fn run_recorded(
        &self,
        fault: Option<FaultSpec>,
        protection: Protection,
        detectors: Option<&TrainedDetectors>,
        provenance: Option<DetectorProvenance>,
    ) -> Result<(MissionOutcome, MissionTrace), MavfiError> {
        let tap = MissionTap::new(fault, detector_tap(protection, detectors)?);
        let meta = TraceMeta {
            spec: self.spec,
            protection,
            fault,
            camera: DepthCamera::default(),
            detectors: provenance,
        };
        let mut capture = TraceCapture::new(&meta)?;
        let mut flight = Flight::new(self.spec, tap, None);
        while flight.is_in_progress() {
            flight.step_recorded(Some(&mut capture));
        }
        let outcome = flight.outcome();
        let trace = capture.finish(&outcome.qof, outcome.pipeline.ticks);
        Ok((outcome, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavfi_fault::target::InjectionTarget;
    use mavfi_ppc::states::Stage;
    use mavfi_sim::env::EnvironmentKind;

    fn quick_spec(kind: EnvironmentKind, seed: u64) -> MissionSpec {
        MissionSpec::new(kind, seed).with_time_budget(200.0)
    }

    #[test]
    fn golden_run_in_sparse_environment_succeeds() {
        let outcome = MissionRunner::new(quick_spec(EnvironmentKind::Sparse, 3)).run_golden();
        assert!(outcome.is_success(), "golden run should succeed: {:?}", outcome.qof.status);
        assert!(outcome.qof.flight_time_s > 5.0);
        assert!(outcome.qof.energy_j > 0.0);
        assert!(outcome.trail.len() > 3);
        assert!(outcome.fault.is_none());
        assert!(outcome.detector.is_none());
        assert!(outcome.pipeline.ticks > 10);
    }

    #[test]
    fn golden_runs_are_deterministic() {
        let spec = quick_spec(EnvironmentKind::Sparse, 8);
        let a = MissionRunner::new(spec).run_golden();
        let b = MissionRunner::new(spec).run_golden();
        assert_eq!(a.qof, b.qof);
        assert_eq!(a.trail, b.trail);
    }

    #[test]
    fn recorded_golden_run_is_bit_identical_and_replays() {
        let spec = quick_spec(EnvironmentKind::Sparse, 3);
        let (outcome, trace) =
            MissionRunner::new(spec).run_recorded(None, Protection::None, None, None).unwrap();
        // Recording is observational: same outcome as the unrecorded run.
        let baseline = MissionRunner::new(spec).run_golden();
        assert_eq!(outcome.qof, baseline.qof);
        assert_eq!(outcome.trail, baseline.trail);
        // And the trace replays bit-identically without the sim.
        let report = crate::replay::ReplayHarness::new(&trace).replay().unwrap();
        assert!(report.is_match(), "diverged: {:?}", report.divergence);
        assert_eq!(report.ticks, outcome.pipeline.ticks);
        assert_eq!(report.status, Some(MissionStatus::Succeeded));
        assert_eq!(report.qof.map(|qof| qof.flight_time_s), Some(outcome.qof.flight_time_s));
    }

    #[test]
    fn recorded_fault_run_replays_bit_identically() {
        let spec = quick_spec(EnvironmentKind::Sparse, 5);
        let fault = FaultSpec::new(InjectionTarget::Stage(Stage::Planning), 20, 123);
        let (outcome, trace) = MissionRunner::new(spec)
            .run_recorded(Some(fault), Protection::None, None, None)
            .unwrap();
        assert!(outcome.fault.is_some());
        let report = crate::replay::ReplayHarness::new(&trace).replay().unwrap();
        assert!(report.is_match(), "diverged: {:?}", report.divergence);
    }

    #[test]
    fn fault_injection_fires_and_is_recorded() {
        let spec = quick_spec(EnvironmentKind::Sparse, 5);
        let fault = FaultSpec::new(InjectionTarget::Stage(Stage::Planning), 20, 123);
        let outcome = MissionRunner::new(spec).run(Some(fault), Protection::None, None).unwrap();
        let record = outcome.fault.expect("fault should have fired");
        assert_eq!(record.field.unwrap().stage(), Stage::Planning);
    }

    fn quick_detectors() -> TrainedDetectors {
        let training = crate::config::TrainingSpec {
            missions: 1,
            base_seed: 77,
            mission_time_budget: 25.0,
            epochs: 5,
        };
        crate::training::train_detectors(&training).0
    }

    #[test]
    fn shadows_tripping_in_one_tick_fork_from_one_checkpoint() {
        // Two shadows of one detector trip in the same tick by construction.
        let detectors = quick_detectors();
        let spec = quick_spec(EnvironmentKind::Sparse, 5).with_time_budget(40.0);
        let fault = FaultSpec::new(InjectionTarget::Stage(Stage::Planning), 20, 123);
        let runner = MissionRunner::new(spec);
        let gaussian = detectors.tap(Protection::Gaussian).unwrap();
        let tap = MissionTap {
            injector: Some(FaultInjector::new(fault)),
            detector: None,
            shadows: vec![ShadowDetector::new(gaussian.clone()), ShadowDetector::new(gaussian)],
        };
        let Landings { live: injected, shadows, .. } = Flight::new(spec, tap, None).fly(false);

        assert_eq!(injected.outcome, runner.run(Some(fault), Protection::None, None).unwrap());
        let protected = runner.run(Some(fault), Protection::Gaussian, Some(&detectors)).unwrap();
        assert!(shadows[0].branched(), "the Gaussian detector must act in this mission");
        assert_eq!(shadows[0].shared_ticks, shadows[1].shared_ticks);
        for shadow in &shadows {
            assert_eq!(shadow.outcome, protected);
        }
    }

    #[test]
    fn instrumented_trunk_feeds_each_setting_its_own_telemetry() {
        // Job 0 of the Sparse base seed 4 campaign: the Gaussian detector
        // acts after the fault fires, the autoencoder never does.  Job 2 of
        // the Dense base seed 9 campaign: both detectors act while the fault
        // never fires in the trunk, so each branch forks from a sink that no
        // fault has reached.  Each case: the campaign, its job, the tick
        // each protected setting branches at, the trunk's ticks and the tick
        // the fault fires at.
        let detectors = quick_detectors();
        let cases = [
            (EnvironmentKind::Sparse, 4, 30.0, 0, [Some(134), None], 186, Some(116)),
            (EnvironmentKind::Dense, 9, 15.0, 2, [Some(66), Some(111)], 151, None),
        ];
        for (environment, base_seed, budget, job, branch_ticks, trunk_ticks, fired) in cases {
            let config = crate::campaign::CampaignConfig {
                environment,
                golden_runs: 1,
                injections_per_stage: 1,
                base_seed,
                mission_time_budget: budget,
            };
            let fault = crate::exec::CampaignExecutor::plan_faults(&config).specs()[job];
            // The campaign engine's mission spec of job `job`.
            let seed = base_seed + job as u64 * 31 + 1;
            let runner =
                MissionRunner::new(MissionSpec::new(environment, seed).with_time_budget(budget));
            let landings = runner.fly_fault_settings(fault, &detectors, true, false).settings;
            let flown_branch_ticks = [&landings[1], &landings[2]]
                .map(|landing| landing.branched().then_some(landing.shared_ticks));
            assert_eq!(flown_branch_ticks, branch_ticks, "{environment:?}");
            let trunk = &landings[0].outcome;
            assert_eq!(trunk.pipeline.ticks, trunk_ticks, "{environment:?}");
            assert_eq!(trunk.fault.as_ref().map(|record| record.tick), fired, "{environment:?}");
            let protections = [Protection::None, Protection::Gaussian, Protection::Autoencoder];
            for (landing, protection) in landings.into_iter().zip(protections) {
                let mut sink = MissionTelemetry::new();
                let expected = runner
                    .run_instrumented(Some(fault), protection, Some(&detectors), &mut sink)
                    .unwrap();
                let label = format!("{environment:?} {protection:?}");
                assert_eq!(landing.outcome, expected, "{label}");
                let flown = landing.sink.expect("instrumented");
                assert_same_deterministic_telemetry(flown, sink, &expected.pipeline, &label);
            }
        }
    }

    /// The deterministic half of a sink's report: everything but
    /// wall-clock kernel latencies.
    fn assert_same_deterministic_telemetry(
        flown: MissionTelemetry,
        alone: MissionTelemetry,
        pipeline: &PipelineStats,
        label: &str,
    ) {
        let (flown, alone) = (flown.into_report(pipeline), alone.into_report(pipeline));
        assert_eq!(flown.counters, alone.counters, "{label}");
        assert_eq!(flown.events, alone.events, "{label}");
        assert_eq!(flown.events_dropped, alone.events_dropped, "{label}");
        assert_eq!(flown.kernel_invocations, alone.kernel_invocations, "{label}");
        assert_eq!(flown.fault_stage, alone.fault_stage, "{label}");
        assert_eq!(flown.detection_latency_ticks, alone.detection_latency_ticks, "{label}");
        assert_eq!(flown.recovery_latency_ticks, alone.recovery_latency_ticks, "{label}");
    }

    #[test]
    fn instrumented_trunk_feeds_the_golden_flight_its_own_telemetry() {
        // Sparse seed 5 under a planning fault at tick 20 fires mid-mission
        // and forks the golden flight there; with the trigger past the end
        // of a 10 s mission the fault never fires and the whole trunk is
        // golden.
        let detectors = quick_detectors();
        for (budget, forks) in [(30.0, true), (10.0, false)] {
            let spec = MissionSpec::new(EnvironmentKind::Sparse, 5).with_time_budget(budget);
            let trigger = if forks { 20 } else { 1_000 };
            let fault = FaultSpec::new(InjectionTarget::Stage(Stage::Planning), trigger, 123);
            let runner = MissionRunner::new(spec);
            let landings = runner.fly_fault_settings(fault, &detectors, true, true);
            let golden = landings.golden.expect("the golden flight was asked for");
            let mut sink = MissionTelemetry::new();
            let expected = runner.run_golden_instrumented(&mut sink);
            assert_eq!(golden.outcome, expected, "budget {budget}");
            assert_eq!(golden.branched(), forks, "budget {budget}");
            let fired = landings.settings[0].outcome.fault.as_ref().map(|record| record.tick);
            assert_eq!(fired.map(|tick| tick == golden.shared_ticks), forks.then_some(true));
            let flown = golden.sink.expect("instrumented");
            assert_same_deterministic_telemetry(flown, sink, &expected.pipeline, "golden");
        }
    }

    #[test]
    fn protection_without_detectors_is_an_error() {
        let spec = quick_spec(EnvironmentKind::Farm, 1);
        let err = MissionRunner::new(spec).run(None, Protection::Gaussian, None).unwrap_err();
        assert!(matches!(err, MavfiError::MissingDetectors { .. }));
    }

    #[test]
    fn telemetry_collection_accumulates_samples() {
        let mut telemetry = TelemetrySet::new();
        let spec = MissionSpec::new(EnvironmentKind::Farm, 2).with_time_budget(30.0);
        let outcome = MissionRunner::new(spec).run_collecting_telemetry(&mut telemetry);
        assert!(telemetry.len() as u64 >= outcome.pipeline.ticks);
        assert!(!telemetry.is_empty());
    }
}
