//! The traced mission loop, flown from the benchmark's own files:
//! `DepthCamera::capture_into` → `PpcPipeline::tick` → `World::step`.
//!
//! It builds the same closed loop `MissionRunner::run` does, with one
//! difference: the stage tap is a [`TimingTap`] that wraps the fault
//! injector and the detector tap (injector first, as the runner does) and
//! stamps the clock at every hook boundary.  The stamps split each tick
//! into point cloud, OctoMap, collision check, planning and control, and
//! time the injector and detector hook bodies on their own.  The returned
//! `PpcTick` says which ticks a planning interval or a recomputation belongs
//! to.  Callers compare the returned outcome with `MissionRunner::run`'s.

use mavfi::{MissionOutcome, MissionSpec, Protection, QofMetrics, TrainedDetectors};
use mavfi_detect::{DetectionScheme, DetectorTap};
use mavfi_fault::injector::{FaultInjector, FaultSpec};
use mavfi_ppc::perception::occupancy::OccupancyGrid;
use mavfi_ppc::states::{CollisionEstimate, PointCloud, Stage, Trajectory};
use mavfi_ppc::{KernelId, PpcConfig, PpcPipeline, PpcTick, StageTap, TapAction};
use mavfi_sim::sensors::{CaptureScratch, DepthCamera, DepthFrame};
use mavfi_sim::vehicle::FlightCommand;
use mavfi_sim::{MissionStatus, PowerModel, World};

use crate::spans::{Clock, SpanId, Tracer};

/// One mission flight: the mission, its optional fault and its protection.
#[derive(Debug, Clone, Copy)]
pub struct Flight {
    pub spec: MissionSpec,
    pub fault: Option<FaultSpec>,
    pub protection: Protection,
}

/// Deterministic counts and planner/recompute times gathered while flying.
#[derive(Debug, Clone, Default)]
pub struct FlightCounts {
    pub flights: u64,
    pub ticks: u64,
    /// Ticks whose planning stage replanned.
    pub replans: u64,
    /// Wall time of the planning intervals of those ticks (ns).
    pub replan_ns: u64,
    /// Stage recomputations a tap requested (from `PpcTick`).
    pub recomputes: u64,
    /// Wall time of the intervals holding those recomputations (ns).
    pub recompute_ns: u64,
    /// Ticks flown with a fault injector / with a detector.
    pub injected_ticks: u64,
    pub protected_ticks: u64,
    /// Wall time of flights with a detector (ns).
    pub protected_flight_ns: u64,
    pub faults_fired: u64,
    pub alarms: u64,
    pub abandonments: u64,
    /// Recomputations the detector requested, and those requested after
    /// the fault had fired.
    pub recompute_requests: u64,
    pub useful_recompute_requests: u64,
    pub kernel_invocations: [u64; KernelId::COUNT],
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

/// What ended the interval a stamp closes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mark {
    /// A hook was entered: the pipeline work before it is done.
    Hook(Hook),
    /// The fault injector's hook body returned.
    Fault,
    /// The detector's hook body returned.
    Detect,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Hook {
    PointCloud,
    Occupancy,
    Perception,
    Planning,
    Control,
}

/// The stage tap of the traced loop: the injector, then the detector, with
/// a clock stamp at the hook entry and after each body.
struct TimingTap {
    injector: Option<FaultInjector>,
    detector: Option<DetectorTap>,
    clock: Clock,
    marks: Vec<(Mark, u64)>,
    recompute_requests: u64,
    useful_recompute_requests: u64,
}

impl TimingTap {
    fn stamp(&mut self, mark: Mark) {
        let now = self.clock.now();
        self.marks.push((mark, now));
    }

    /// Counts a detector verdict that requests a recomputation, and whether
    /// the fault had already fired when it did.
    fn count_request(&mut self, verdict: TapAction) -> TapAction {
        if verdict == TapAction::Recompute {
            self.recompute_requests += 1;
            if self.injector.as_ref().is_some_and(FaultInjector::has_fired) {
                self.useful_recompute_requests += 1;
            }
        }
        verdict
    }
}

// Each hook runs the injector, then the detector, merging their actions
// exactly as the runner's composite tap does, with a stamp at the hook
// entry and after each body.
impl StageTap for TimingTap {
    fn after_point_cloud(&mut self, cloud: &mut PointCloud) {
        self.stamp(Mark::Hook(Hook::PointCloud));
        if let Some(injector) = &mut self.injector {
            injector.after_point_cloud(cloud);
            self.stamp(Mark::Fault);
        }
        if let Some(detector) = &mut self.detector {
            detector.after_point_cloud(cloud);
            self.stamp(Mark::Detect);
        }
    }

    fn after_occupancy(&mut self, grid: &mut OccupancyGrid) {
        self.stamp(Mark::Hook(Hook::Occupancy));
        if let Some(injector) = &mut self.injector {
            injector.after_occupancy(grid);
            self.stamp(Mark::Fault);
        }
        if let Some(detector) = &mut self.detector {
            detector.after_occupancy(grid);
            self.stamp(Mark::Detect);
        }
    }

    fn after_perception(&mut self, estimate: &mut CollisionEstimate) -> TapAction {
        self.stamp(Mark::Hook(Hook::Perception));
        let mut action = TapAction::Continue;
        if let Some(injector) = &mut self.injector {
            action = action.merge(injector.after_perception(estimate));
            self.stamp(Mark::Fault);
        }
        if let Some(detector) = &mut self.detector {
            let verdict = detector.after_perception(estimate);
            action = action.merge(self.count_request(verdict));
            self.stamp(Mark::Detect);
        }
        action
    }

    fn after_planning(&mut self, trajectory: &mut Trajectory, active_index: usize) -> TapAction {
        self.stamp(Mark::Hook(Hook::Planning));
        let mut action = TapAction::Continue;
        if let Some(injector) = &mut self.injector {
            action = action.merge(injector.after_planning(trajectory, active_index));
            self.stamp(Mark::Fault);
        }
        if let Some(detector) = &mut self.detector {
            let verdict = detector.after_planning(trajectory, active_index);
            action = action.merge(self.count_request(verdict));
            self.stamp(Mark::Detect);
        }
        action
    }

    fn after_control(&mut self, command: &mut FlightCommand) -> TapAction {
        self.stamp(Mark::Hook(Hook::Control));
        let mut action = TapAction::Continue;
        if let Some(injector) = &mut self.injector {
            action = action.merge(injector.after_control(command));
            self.stamp(Mark::Fault);
        }
        if let Some(detector) = &mut self.detector {
            let verdict = detector.after_control(command);
            action = action.merge(self.count_request(verdict));
            self.stamp(Mark::Detect);
        }
        action
    }
}

/// The detector tap for a protection scheme, built as the runner builds it.
fn detector_tap(
    protection: Protection,
    detectors: Option<&TrainedDetectors>,
) -> Option<DetectorTap> {
    let detectors = detectors?;
    match protection {
        Protection::None => None,
        Protection::Gaussian => {
            Some(DetectorTap::new(DetectionScheme::Gaussian(detectors.gad.clone())))
        }
        Protection::Autoencoder => {
            Some(DetectorTap::new(DetectionScheme::Autoencoder(detectors.aad.clone())))
        }
    }
}

/// Names the pipeline interval a hook-entry stamp closes.  The intervals
/// after the perception, planning and control hooks hold a tap-requested
/// recomputation when the tick reports one for that stage; the interval
/// after the perception hook is planning otherwise.
fn interval_name(hook: Hook, tick: &PpcTick) -> &'static str {
    match hook {
        Hook::PointCloud => "ppc.pointcloud",
        Hook::Occupancy => "ppc.octomap",
        Hook::Perception => "ppc.collision",
        Hook::Planning if tick.replanned => "ppc.plan",
        Hook::Planning if tick.recomputed_stages.contains(Stage::Perception) => "ppc.recompute",
        Hook::Planning => "ppc.plan",
        Hook::Control if tick.recomputed_stages.contains(Stage::Planning) => "ppc.recompute",
        Hook::Control => "ppc.control",
    }
}

/// Flies one mission through the traced loop, recording a `mission` span
/// under `parent` with every tick's layers beneath it.
pub fn fly(
    flight: &Flight,
    detectors: Option<&TrainedDetectors>,
    tracer: &mut Tracer,
    parent: SpanId,
    counts: &mut FlightCounts,
) -> MissionOutcome {
    let clock = tracer.clock();
    let mission = tracer.open("mission", Some(parent));
    let start = clock.now();
    let spec = flight.spec;
    let environment = spec.environment.build(spec.seed);
    let config = PpcConfig::new(spec.planner, environment.bounds(), spec.seed);
    let mut pipeline = PpcPipeline::new(config, environment.start(), environment.goal());
    let camera = DepthCamera::default();
    let mut world = World::new(environment, spec.vehicle, PowerModel::default(), spec.mission);
    let mut tap = TimingTap {
        injector: flight.fault.map(FaultInjector::new),
        detector: detector_tap(flight.protection, detectors),
        clock,
        marks: Vec::with_capacity(24),
        recompute_requests: 0,
        useful_recompute_requests: 0,
    };
    let mut frame = DepthFrame::default();
    let mut scratch = CaptureScratch::new();
    let mut last = clock.now();
    tracer.record("flight.setup", Some(mission), start, last);

    let dt = spec.control_period;
    let mut ticks = 0;
    while world.status() == MissionStatus::InProgress {
        let pose = world.vehicle().pose();
        let state = world.vehicle().state();
        camera.capture_into(world.environment(), &pose, &mut scratch, &mut frame);
        let tick_start = clock.now();
        tracer.record("sim.capture", Some(mission), last, tick_start);

        tap.marks.clear();
        let tick = pipeline.tick(&frame, &state, dt, &mut tap);
        let tick_end = clock.now();
        let ppc = tracer.record("ppc", Some(mission), tick_start, tick_end);
        let mut from = tick_start;
        for &(mark, at) in &tap.marks {
            let name = match mark {
                Mark::Hook(hook) => interval_name(hook, &tick),
                Mark::Fault => "fault.tap",
                Mark::Detect => "detect.tap",
            };
            note_interval(name, mark, &tick, at - from, counts);
            tracer.record(name, Some(ppc), from, at);
            from = at;
        }
        let name = if tick.recomputed_stages.contains(Stage::Control) {
            "ppc.recompute"
        } else {
            "ppc.control"
        };
        note_interval(name, Mark::Hook(Hook::Control), &tick, tick_end - from, counts);
        tracer.record(name, Some(ppc), from, tick_end);
        counts.recomputes += tick.recomputed_stages.len() as u64;
        ticks += 1;

        world.step(&tick.command, dt);
        last = clock.now();
        tracer.record("sim.step", Some(mission), tick_end, last);
    }

    let outcome = MissionOutcome {
        qof: QofMetrics {
            status: world.status(),
            flight_time_s: world.elapsed(),
            energy_j: world.energy_joules(),
            distance_m: world.distance_travelled(),
        },
        trail: world.trail().to_vec(),
        fault: tap.injector.as_ref().and_then(|injector| injector.record().cloned()),
        detector: tap.detector.as_ref().map(|detector| detector.stats().clone()),
        pipeline: pipeline.stats().clone(),
    };
    tracer.record("flight.finish", Some(mission), last, clock.now());
    let flight_ns = tracer.close(mission);

    counts.flights += 1;
    counts.ticks += ticks;
    if tap.injector.is_some() {
        counts.injected_ticks += ticks;
    }
    counts.faults_fired += u64::from(outcome.fault.is_some());
    if let Some(stats) = &outcome.detector {
        counts.protected_ticks += ticks;
        counts.protected_flight_ns += flight_ns;
        counts.alarms += stats.total_alarms();
        counts.abandonments += stats.abandonments;
    }
    counts.recompute_requests += tap.recompute_requests;
    counts.useful_recompute_requests += tap.useful_recompute_requests;
    for (total, kernel) in counts.kernel_invocations.iter_mut().zip(KernelId::ALL) {
        *total += outcome.pipeline.invocations(kernel);
    }
    let cache = pipeline.collision_cache_stats();
    counts.cache_hits += cache.hits();
    counts.cache_lookups += cache.lookups();
    outcome
}

/// Adds a planning or recompute interval's time to the counts.
fn note_interval(name: &str, mark: Mark, tick: &PpcTick, nanos: u64, counts: &mut FlightCounts) {
    match name {
        "ppc.plan" if tick.replanned && mark == Mark::Hook(Hook::Planning) => {
            counts.replans += 1;
            counts.replan_ns += nanos;
        }
        "ppc.recompute" => counts.recompute_ns += nanos,
        _ => {}
    }
}
