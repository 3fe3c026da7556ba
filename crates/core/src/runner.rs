//! The mission runner: one closed-loop flight of the PPC pipeline in the
//! simulated world, optionally with a fault injected and a detection and
//! recovery scheme supervising the inter-kernel states — and the fault-job
//! trunk, which flies a fault's unprotected and protected settings as one
//! flight until a detector first acts.

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
use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
/// and, on instrumented flights, a telemetry sink per setting.
///
/// A clone carries the flight's whole semantic state — the planner's random
/// stream included — so it flies on exactly as the original would.
/// `clone_from` into a reused checkpoint allocates nothing once warm (the
/// per-tick capture scratch is not copied: each tick overwrites it).
///
/// A *trunk* ([`MissionRunner::trunk`]) is the unprotected flight of a fault
/// carrying the D&R(G) and D&R(A) detectors as [`ShadowDetector`]s: up to
/// the first tick where a detector would act, each protected flight is
/// bit-identical to the unprotected one, so the campaign engine flies the
/// three settings of a fault job as one trunk and forks a protected flight
/// only from there (see `docs/ARCHITECTURE.md`).  [`Flight::step`] flies
/// single ticks; shadows observe them but never fork.
#[derive(Debug)]
pub struct Flight {
    world: World,
    pipeline: PpcPipeline,
    tap: MissionTap,
    /// The live setting's telemetry sink, when instrumented.
    sink: Option<MissionTelemetry>,
    /// One telemetry sink per shadow, in shadow order, when instrumented.
    shadow_sinks: Vec<MissionTelemetry>,
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
            shadow_sinks: self.shadow_sinks.clone(),
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
            shadow_sinks,
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
        self.shadow_sinks.clone_from(shadow_sinks);
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
    /// For a shadow's landing: whether its setting forked off the trunk (a
    /// branch flies at least its fork tick).
    pub(crate) fn branched(&self) -> bool {
        self.shared_ticks < self.outcome.pipeline.ticks
    }
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
    /// A flight of `spec` at tick 0.  With `sink`, every setting it carries
    /// is instrumented: the live one feeds `sink`, each shadow a fresh sink
    /// of its own.
    fn new(spec: MissionSpec, tap: MissionTap, sink: Option<MissionTelemetry>) -> Self {
        let (environment, mut pipeline) = mission_pipeline(&spec);
        pipeline.set_timing_enabled(sink.is_some());
        let shadow_sinks = match sink {
            Some(_) => tap.shadows.iter().map(|_| MissionTelemetry::new()).collect(),
            None => Vec::new(),
        };
        Self {
            world: World::new(environment, spec.vehicle, PowerModel::default(), spec.mission),
            pipeline,
            tap,
            sink,
            shadow_sinks,
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
    /// when given, and feeding the instrumented settings' sinks.
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

        let fault = self.tap.injector.as_ref().and_then(|injector| injector.record());
        if let Some(sink) = &mut self.sink {
            let detector = self.tap.detector.as_ref().map(|detector| detector.stats());
            sink.observe_tick(
                self.tick_index,
                self.world.elapsed(),
                &tick,
                &self.pipeline,
                detector,
                fault,
            );
        }
        for (shadow, sink) in self.tap.shadows.iter().zip(&mut self.shadow_sinks) {
            if !shadow.is_tripped() {
                sink.observe_tick(
                    self.tick_index,
                    self.world.elapsed(),
                    &tick,
                    &self.pipeline,
                    Some(shadow.tap().stats()),
                    fault,
                );
            }
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

    /// Flies to the end of the mission — the one mission loop, for single
    /// flights and trunks alike.  Returns the flight's own landing and one
    /// per shadow, in shadow order.
    ///
    /// While a shadow is pending, the flight copies itself into a reused
    /// checkpoint before each tick.  A shadow that trips in a tick forks a
    /// branch: the checkpoint taken before that tick, with the shadow made
    /// live, flies to the end through this same loop.  A shadow that never
    /// trips takes the flight's outcome with its own detector statistics.
    fn fly(
        mut self,
        mut capture: Option<&mut TraceCapture>,
        mut telemetry: Option<&mut TelemetrySet>,
    ) -> (Landing, Vec<Landing>) {
        let mut branches: Vec<Option<Landing>> = self.tap.shadows.iter().map(|_| None).collect();
        let mut checkpoint: Option<Flight> = None;
        while self.is_in_progress() {
            let pending = self.tap.shadows.iter().any(|shadow| !shadow.is_tripped());
            if pending {
                match &mut checkpoint {
                    Some(checkpoint) => checkpoint.clone_from(&self),
                    None => checkpoint = Some(self.clone()),
                }
            }
            let tick = self.step_recorded(capture.as_deref_mut());
            if let Some(telemetry) = telemetry.as_deref_mut() {
                telemetry.record(&tick.monitored);
            }
            if pending {
                for (index, shadow) in self.tap.shadows.iter().enumerate() {
                    if shadow.is_tripped() && branches[index].is_none() {
                        let start = checkpoint.as_ref().expect("checkpointed while pending");
                        branches[index] = Some(start.branch(index));
                    }
                }
            }
        }

        let trunk_ticks = self.tick_index;
        let shadows = std::mem::take(&mut self.tap.shadows);
        let mut shadow_sinks = std::mem::take(&mut self.shadow_sinks).into_iter();
        let landing = Landing { outcome: self.outcome(), sink: self.sink.take(), shared_ticks: 0 };
        let shadows = shadows
            .into_iter()
            .zip(branches)
            .map(|(shadow, branch)| {
                let sink = shadow_sinks.next();
                branch.unwrap_or_else(|| Landing {
                    outcome: MissionOutcome {
                        detector: Some(shadow.tap().stats().clone()),
                        ..landing.outcome.clone()
                    },
                    sink,
                    shared_ticks: trunk_ticks,
                })
            })
            .collect();
        (landing, shadows)
    }

    /// Forks shadow `index` off this checkpoint: a copy with that shadow
    /// made live (and its sink made the live one) flies to the end.
    fn branch(&self, index: usize) -> Landing {
        let mut branch = self.clone();
        let shadow = std::mem::take(&mut branch.tap.shadows).swap_remove(index);
        branch.tap.detector = Some(shadow.into_live());
        let mut sinks = std::mem::take(&mut branch.shadow_sinks);
        branch.sink = (index < sinks.len()).then(|| sinks.swap_remove(index));
        let (landing, _) = branch.fly(None, None);
        Landing { shared_ticks: self.tick_index, ..landing }
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
        self.run_internal(None, None, None, None, None)
    }

    /// Runs a golden run while feeding the telemetry sink each tick:
    /// wall-clock kernel timing is enabled on the pipeline and every tick
    /// is observed.  Results are bit-identical to [`Self::run_golden`] —
    /// the sink only reads.
    pub fn run_golden_instrumented(&self, sink: &mut MissionTelemetry) -> MissionOutcome {
        self.run_internal(None, None, None, Some(sink), None)
    }

    /// Runs an error-free mission while recording preprocessed telemetry
    /// into `telemetry` (used to train the detectors).
    pub fn run_collecting_telemetry(&self, telemetry: &mut TelemetrySet) -> MissionOutcome {
        let outcome = self.run_internal(None, None, Some(telemetry), None, None);
        telemetry.end_mission();
        outcome
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
        self.run_with_sink(fault, protection, detectors, None)
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
        self.run_with_sink(fault, protection, detectors, Some(sink))
    }

    fn run_with_sink(
        &self,
        fault: Option<FaultSpec>,
        protection: Protection,
        detectors: Option<&TrainedDetectors>,
        sink: Option<&mut MissionTelemetry>,
    ) -> Result<MissionOutcome, MavfiError> {
        let detector = detector_tap(protection, detectors)?;
        Ok(self.run_internal(fault.map(FaultInjector::new), detector, None, sink, None))
    }

    /// The trunk of a fault job at tick 0: the unprotected flight of
    /// `fault`, carrying the D&R(G) and D&R(A) detectors as shadows (see
    /// [`Flight`]).
    pub fn trunk(&self, fault: FaultSpec, detectors: &TrainedDetectors) -> Flight {
        Flight::new(self.spec, Self::trunk_tap(fault, detectors), None)
    }

    fn trunk_tap(fault: FaultSpec, detectors: &TrainedDetectors) -> MissionTap {
        MissionTap {
            injector: Some(FaultInjector::new(fault)),
            detector: None,
            shadows: [Protection::Gaussian, Protection::Autoencoder]
                .into_iter()
                .filter_map(|protection| detectors.tap(protection))
                .map(ShadowDetector::new)
                .collect(),
        }
    }

    /// Flies one planned fault in the three settings of Table I —
    /// unprotected, D&R(G) and D&R(A), in that order — as one trunk that
    /// forks a protected flight only where its detector first acts.  Each
    /// outcome is bit-identical to [`Self::run`]'s for that setting, and so
    /// is each sink's content when `instrument` gives every setting one.
    pub(crate) fn fly_fault_settings(
        &self,
        fault: FaultSpec,
        detectors: &TrainedDetectors,
        instrument: bool,
    ) -> [Landing; 3] {
        let sink = instrument.then(MissionTelemetry::new);
        let trunk = Flight::new(self.spec, Self::trunk_tap(fault, detectors), sink);
        let (injected, shadows) = trunk.fly(None, None);
        let mut shadows = shadows.into_iter();
        let mut next = || shadows.next().expect("a trunk carries two shadows");
        [injected, next(), next()]
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
        let detector = detector_tap(protection, detectors)?;
        let meta = TraceMeta {
            spec: self.spec,
            protection,
            fault,
            camera: DepthCamera::default(),
            detectors: provenance,
        };
        let mut capture = TraceCapture::new(&meta)?;
        let outcome = self.run_internal(
            fault.map(FaultInjector::new),
            detector,
            None,
            None,
            Some(&mut capture),
        );
        let trace = capture.finish(&outcome.qof, outcome.pipeline.ticks);
        Ok((outcome, trace))
    }

    fn run_internal(
        &self,
        injector: Option<FaultInjector>,
        detector: Option<DetectorTap>,
        telemetry: Option<&mut TelemetrySet>,
        mut sink: Option<&mut MissionTelemetry>,
        capture: Option<&mut TraceCapture>,
    ) -> MissionOutcome {
        // The flight owns its sink (checkpoints copy it); the caller's comes
        // back once the mission lands.
        let flight_sink = sink
            .as_deref_mut()
            .map(|sink| std::mem::replace(sink, MissionTelemetry::with_timeline_capacity(0)));
        let tap = MissionTap { injector, detector, shadows: Vec::new() };
        let (landing, _) = Flight::new(self.spec, tap, flight_sink).fly(capture, telemetry);
        if let (Some(sink), Some(flown)) = (sink, landing.sink) {
            *sink = flown;
        }
        landing.outcome
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
        let (injected, shadows) = Flight::new(spec, tap, None).fly(None, None);

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
        // The first job of the Sparse base seed 4 campaign: the Gaussian
        // detector acts after the fault fires, the autoencoder never does.
        let detectors = quick_detectors();
        let config = crate::campaign::CampaignConfig {
            environment: EnvironmentKind::Sparse,
            golden_runs: 1,
            injections_per_stage: 1,
            base_seed: 4,
            mission_time_budget: 30.0,
        };
        let fault = crate::exec::CampaignExecutor::plan_faults(&config).specs()[0];
        let spec = MissionSpec::new(EnvironmentKind::Sparse, 5).with_time_budget(30.0);
        let runner = MissionRunner::new(spec);
        let landings = runner.fly_fault_settings(fault, &detectors, true);
        assert!(landings[1].branched() && !landings[2].branched());
        let protections = [Protection::None, Protection::Gaussian, Protection::Autoencoder];
        for (landing, protection) in landings.into_iter().zip(protections) {
            let mut sink = MissionTelemetry::new();
            let expected = runner
                .run_instrumented(Some(fault), protection, Some(&detectors), &mut sink)
                .unwrap();
            assert_eq!(landing.outcome, expected, "{protection:?}");
            // The deterministic half of the sink: everything but wall-clock
            // kernel latencies.
            let flown = landing.sink.expect("instrumented").into_report(&expected.pipeline);
            let alone = sink.into_report(&expected.pipeline);
            assert_eq!(flown.counters, alone.counters, "{protection:?}");
            assert_eq!(flown.events, alone.events, "{protection:?}");
            assert_eq!(flown.events_dropped, alone.events_dropped, "{protection:?}");
            assert_eq!(flown.kernel_invocations, alone.kernel_invocations, "{protection:?}");
            assert_eq!(flown.fault_stage, alone.fault_stage, "{protection:?}");
            assert_eq!(flown.detection_latency_ticks, alone.detection_latency_ticks);
            assert_eq!(flown.recovery_latency_ticks, alone.recovery_latency_ticks);
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
