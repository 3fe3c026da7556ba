//! Asserts the tentpole property of the scratch-buffer tick path: once warm,
//! one `PpcPipeline::tick` — depth capture included — and one AAD
//! detector-score iteration perform **zero heap allocations**; and so does
//! refreshing a reused checkpoint of a mid-mission fault-job trunk.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! that grows every scratch buffer to capacity, the allocation counter must
//! not move across hundreds of ticks.  The vehicle is held stationary so
//! the steady state is exact: no new voxels, no replans, no buffer growth.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use mavfi::{Flight, MissionRunner, MissionSpec, TrainedDetectors};
use mavfi_detect::detector_node::{DetectionScheme, DetectorTap};
use mavfi_detect::prelude::*;
use mavfi_fault::injector::FaultSpec;
use mavfi_fault::target::InjectionTarget;
use mavfi_nn::train::TrainConfig;
use mavfi_ppc::kernel::KernelId;
use mavfi_ppc::pipeline::{PpcConfig, PpcPipeline};
use mavfi_ppc::planning::PlannerAlgorithm;
use mavfi_ppc::states::{MonitoredStates, Stage, StateField, Trajectory};
use mavfi_ppc::tap::{NoopTap, StageTap, TapAction};
use mavfi_sim::env::{Environment, EnvironmentKind, Obstacle};
use mavfi_sim::geometry::{Aabb, Pose, Vec3};
use mavfi_sim::sensors::{CaptureScratch, DepthCamera, DepthFrame};
use mavfi_sim::vehicle::QuadrotorState;
use mavfi_telemetry::MissionTelemetry;

/// System allocator wrapper counting allocations and reallocations — but
/// only those made by the thread currently registered as *measuring*.  The
/// tests in this binary run on parallel libtest threads on multi-core
/// machines, so an unfiltered process-global counter would pick up another
/// test's allocations inside this test's steady-state window.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Thread token of the measuring thread; 0 = nobody measuring.
static MEASURED_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Const-initialised, destructor-free thread-local whose address serves
    /// as an allocation-free per-thread token (safe to read inside the
    /// allocator).
    static THREAD_TOKEN: Cell<u8> = const { Cell::new(0) };
}

fn thread_token() -> usize {
    THREAD_TOKEN.with(|cell| cell as *const Cell<u8> as usize)
}

fn count_if_measured() {
    let measured = MEASURED_THREAD.load(Ordering::Relaxed);
    if measured != 0 && measured == thread_token() {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measured();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measured();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

static MEASURE_LOCK: Mutex<()> = Mutex::new(());

/// Registers the calling thread as the measuring thread for the guard's
/// lifetime (one measurer at a time; serialises the counting tests).
struct MeasureGuard {
    _lock: MutexGuard<'static, ()>,
}

fn start_measuring() -> MeasureGuard {
    let lock = MEASURE_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    MEASURED_THREAD.store(thread_token(), Ordering::Relaxed);
    MeasureGuard { _lock: lock }
}

impl Drop for MeasureGuard {
    fn drop(&mut self) {
        MEASURED_THREAD.store(0, Ordering::Relaxed);
    }
}

/// A small world with an obstacle ahead of the camera (so capture, point
/// cloud and occupancy all carry real data) and a clear corridor to a goal.
fn test_environment() -> Environment {
    Environment::new(
        "zero-alloc",
        Aabb::new(Vec3::new(-10.0, -20.0, 0.0), Vec3::new(40.0, 20.0, 10.0)),
        vec![Obstacle::from_center(Vec3::new(15.0, 8.0, 2.0), Vec3::splat(3.0))],
        Vec3::new(0.0, 0.0, 2.0),
        Vec3::new(30.0, 0.0, 2.0),
    )
}

fn synthetic_states(step: usize) -> MonitoredStates {
    let t = step as f64 * 0.1;
    let mut states = MonitoredStates::default();
    states.set_field(StateField::TimeToCollision, 4.0 + (t * 0.1).sin());
    states.set_field(StateField::WaypointX, 5.0 + 2.0 * t);
    states.set_field(StateField::WaypointY, -3.0 + 1.5 * t);
    states.set_field(StateField::CommandVx, 2.0 + 0.3 * (t * 0.5).sin());
    states.set_field(StateField::CommandVy, 1.5 + 0.3 * (t * 0.5).cos());
    states
}

fn trained_aad() -> AadDetector {
    let mut telemetry = TelemetrySet::new();
    for step in 0..300 {
        telemetry.record(&synthetic_states(step));
    }
    telemetry
        .train_aad(AadConfig::default(), &TrainConfig { epochs: 5, ..TrainConfig::default() })
        .0
}

/// Trains an AAD detector that never alarms (astronomical threshold
/// margin).  The steady-state test measures the *allocation* behaviour of
/// the per-stage scoring path; keeping the tap alarm-free keeps the
/// pipeline out of its (legitimately allocating) replan path — a detector
/// trained on unrelated telemetry alarm-locks on a hovering vehicle, and
/// planning abandonment then consumes the trajectory until a replan.
fn never_alarming_aad() -> AadDetector {
    let mut telemetry = TelemetrySet::new();
    for step in 0..300 {
        telemetry.record(&synthetic_states(step));
    }
    telemetry
        .train_aad(
            AadConfig { threshold_margin: 1.0e12, ..AadConfig::default() },
            &TrainConfig { epochs: 5, ..TrainConfig::default() },
        )
        .0
}

/// Runs `ticks` capture+tick iterations from a stationary pose and returns
/// the number of heap allocations they performed.  The frame and capture
/// scratch persist in the caller: they are part of the steady state.
fn allocations_over_ticks(
    camera: &DepthCamera,
    env: &Environment,
    pipeline: &mut PpcPipeline,
    tap: &mut dyn mavfi_ppc::tap::StageTap,
    scratch: &mut CaptureScratch,
    frame: &mut DepthFrame,
    ticks: usize,
) -> u64 {
    let pose = Pose::new(env.start(), 0.0);
    let vehicle = QuadrotorState { position: env.start(), ..QuadrotorState::default() };
    let before = allocation_count();
    for _ in 0..ticks {
        camera.capture_into(env, &pose, scratch, frame);
        let tick = pipeline.tick(frame, &vehicle, 0.1, tap);
        std::hint::black_box(&tick);
    }
    allocation_count() - before
}

/// Like [`allocations_over_ticks`], but with the full telemetry sink
/// attached: pipeline wall-clock timing on and every tick observed — the
/// exact per-tick work the instrumented runner does.
#[allow(clippy::too_many_arguments)]
fn allocations_over_instrumented_ticks(
    camera: &DepthCamera,
    env: &Environment,
    pipeline: &mut PpcPipeline,
    tap: &mut dyn mavfi_ppc::tap::StageTap,
    scratch: &mut CaptureScratch,
    frame: &mut DepthFrame,
    sink: &mut MissionTelemetry,
    ticks: usize,
) -> u64 {
    let pose = Pose::new(env.start(), 0.0);
    let vehicle = QuadrotorState { position: env.start(), ..QuadrotorState::default() };
    pipeline.set_timing_enabled(true);
    let before = allocation_count();
    for index in 0..ticks {
        camera.capture_into(env, &pose, scratch, frame);
        let tick = pipeline.tick(frame, &vehicle, 0.1, tap);
        sink.observe_tick(index as u64, index as f64 * 0.1, &tick, pipeline, None, None);
        std::hint::black_box(&tick);
    }
    allocation_count() - before
}

#[test]
fn steady_state_tick_with_noop_tap_allocates_nothing() {
    let env = test_environment();
    let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), 7);
    let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
    let camera = DepthCamera::default();

    // Warm-up: first ticks plan, grow voxel storage, scratch buffers and
    // stats maps to capacity.
    let _measuring = start_measuring();
    let mut scratch = CaptureScratch::new();
    let mut frame = DepthFrame::default();
    let warmup = allocations_over_ticks(
        &camera,
        &env,
        &mut pipeline,
        &mut NoopTap,
        &mut scratch,
        &mut frame,
        20,
    );
    assert!(warmup > 0, "warm-up is expected to allocate while buffers grow");

    let steady = allocations_over_ticks(
        &camera,
        &env,
        &mut pipeline,
        &mut NoopTap,
        &mut scratch,
        &mut frame,
        200,
    );
    assert_eq!(
        steady, 0,
        "steady-state capture+tick must not allocate (200 ticks allocated {steady} times)"
    );
}

/// A tap that requests a planning-stage recomputation on every tick — the
/// recovery feedback the detector issues after a detected planning fault
/// (the paper's 83 ms re-plan path), distilled to its deterministic core.
struct ReplanEveryTick;

impl StageTap for ReplanEveryTick {
    fn after_planning(&mut self, _trajectory: &mut Trajectory, _active_index: usize) -> TapAction {
        TapAction::Recompute
    }
}

/// A world whose start → goal line is blocked by a wall, so every replan is
/// a real search (not the two-way-point line-of-sight shortcut).
fn walled_environment() -> Environment {
    Environment::new(
        "zero-alloc-replan",
        Aabb::new(Vec3::new(-10.0, -20.0, 0.0), Vec3::new(40.0, 20.0, 10.0)),
        vec![Obstacle::from_center(Vec3::new(12.0, 0.0, 2.0), Vec3::new(4.0, 12.0, 6.0))],
        Vec3::new(0.0, 0.0, 2.0),
        Vec3::new(30.0, 0.0, 2.0),
    )
}

/// The tentpole property of the `plan_into` refactor: a fault-triggered
/// replan — planner search, path smoothing, trajectory resampling, tracker
/// and PID resets — performs **zero heap allocations** once warm.
///
/// The pipeline flies RRT\*, whose pooled tree, spatial index and path
/// buffers are allocation-free once at capacity; a replan whose tree is
/// larger than every earlier one still grows them.  With planner seed 3 and
/// a replan on every tick, the first 1 000 ticks allocate at ticks 0, 1, 5,
/// 21 and 937 only (tick 21 regrows a 4 096-byte buffer to 8 192 bytes,
/// tick 937 a 96-byte one to 192), so the 60-tick warm-up reaches the
/// high-water mark of the measured window: growth to a new high-water mark
/// is the contract, not a leak.
#[test]
fn fault_triggered_replan_allocates_nothing() {
    let env = walled_environment();
    let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), 3);
    let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
    let camera = DepthCamera::default();

    let _measuring = start_measuring();
    let mut scratch = CaptureScratch::new();
    let mut frame = DepthFrame::default();
    let warmup = allocations_over_ticks(
        &camera,
        &env,
        &mut pipeline,
        &mut ReplanEveryTick,
        &mut scratch,
        &mut frame,
        60,
    );
    assert!(warmup > 0, "warm-up is expected to allocate while buffers grow");

    let replans_before = pipeline.stats().replans;
    let steady = allocations_over_ticks(
        &camera,
        &env,
        &mut pipeline,
        &mut ReplanEveryTick,
        &mut scratch,
        &mut frame,
        200,
    );
    let replans = pipeline.stats().replans - replans_before;
    assert!(replans >= 200, "every tick must have replanned (got {replans})");
    assert_eq!(
        steady, 0,
        "{replans} fault-triggered replans must not allocate (allocated {steady} times)"
    );
    // The searches were real detours, not line-of-sight shortcuts.
    assert!(
        pipeline.trajectory().path_length() > env.start().distance(env.goal()),
        "the wall must force a detour"
    );
}

/// The telemetry tentpole property: attaching the full observability stack —
/// wall-clock kernel timing, histograms, counters and the event timeline —
/// adds **zero heap allocations** to the steady-state tick.  Everything the
/// sink touches was preallocated when it was constructed.
#[test]
fn steady_state_tick_with_telemetry_allocates_nothing() {
    let env = test_environment();
    let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), 7);
    let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
    let camera = DepthCamera::default();
    let mut sink = MissionTelemetry::new();

    let _measuring = start_measuring();
    let mut scratch = CaptureScratch::new();
    let mut frame = DepthFrame::default();
    let warmup = allocations_over_instrumented_ticks(
        &camera,
        &env,
        &mut pipeline,
        &mut NoopTap,
        &mut scratch,
        &mut frame,
        &mut sink,
        20,
    );
    assert!(warmup > 0, "warm-up is expected to allocate while buffers grow");

    let steady = allocations_over_instrumented_ticks(
        &camera,
        &env,
        &mut pipeline,
        &mut NoopTap,
        &mut scratch,
        &mut frame,
        &mut sink,
        200,
    );
    assert_eq!(
        steady, 0,
        "steady-state tick with telemetry must not allocate (200 ticks allocated {steady} times)"
    );
    // The sink really observed the window: ticks counted, kernel latencies
    // recorded.
    assert_eq!(sink.counters().ticks, 220);
    assert!(sink.kernel_latency(KernelId::OctoMap).count() > 0, "timing must have been recorded");
}

/// Telemetry stays allocation-free through the *eventful* path too: a
/// replan on every tick emits Replan (and cache-activity) timeline events,
/// and the timeline keeps absorbing them without allocating — including
/// after it fills and switches to counting dropped events.  The RRT\*
/// replans are those of `fault_triggered_replan_allocates_nothing`, with
/// the same 60-tick warm-up.
#[test]
fn fault_triggered_replan_with_telemetry_allocates_nothing() {
    let env = walled_environment();
    let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), 3);
    let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
    let camera = DepthCamera::default();
    // A timeline that the warm-up does not fill but the measured window
    // does: every forced replan logs at least a planning recovery and a
    // Replan event, so the 60 warm-up ticks log fewer than 256 events and
    // the 260 ticks in all more than 256 (measured: 121 and 521).  The
    // asserts after the warm-up check that the measured window crosses
    // into the drop-counting regime.
    const TIMELINE_CAPACITY: usize = 256;
    let mut sink = MissionTelemetry::with_timeline_capacity(TIMELINE_CAPACITY);

    let _measuring = start_measuring();
    let mut scratch = CaptureScratch::new();
    let mut frame = DepthFrame::default();
    let warmup = allocations_over_instrumented_ticks(
        &camera,
        &env,
        &mut pipeline,
        &mut ReplanEveryTick,
        &mut scratch,
        &mut frame,
        &mut sink,
        60,
    );
    assert!(warmup > 0, "warm-up is expected to allocate while buffers grow");
    let warm_events = sink.timeline().events().len();
    assert!(
        warm_events < TIMELINE_CAPACITY,
        "the warm-up must leave the timeline unfilled (logged {warm_events} events)"
    );
    assert_eq!(sink.timeline().dropped(), 0, "the warm-up must not overflow the timeline");

    let steady = allocations_over_instrumented_ticks(
        &camera,
        &env,
        &mut pipeline,
        &mut ReplanEveryTick,
        &mut scratch,
        &mut frame,
        &mut sink,
        200,
    );
    assert_eq!(
        steady, 0,
        "replanning ticks with telemetry must not allocate (allocated {steady} times)"
    );
    // Tap-requested replans are recorded as planning-stage recoveries.
    assert!(
        sink.counters().recomputations[mavfi_ppc::states::Stage::Planning.index()] >= 200,
        "every tick must have recomputed the planning stage"
    );
    let timeline = sink.timeline();
    assert_eq!(timeline.events().len(), TIMELINE_CAPACITY, "the timeline must have filled");
    assert!(timeline.dropped() > 0, "overflow must have been counted, not stored");
}

#[test]
fn steady_state_tick_with_aad_detector_allocates_nothing() {
    let env = test_environment();
    let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), 11);
    let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
    let camera = DepthCamera::default();
    let mut tap = DetectorTap::new(DetectionScheme::Autoencoder(never_alarming_aad()));

    let _measuring = start_measuring();
    let mut scratch = CaptureScratch::new();
    let mut frame = DepthFrame::default();
    let warmup = allocations_over_ticks(
        &camera,
        &env,
        &mut pipeline,
        &mut tap,
        &mut scratch,
        &mut frame,
        20,
    );
    assert!(warmup > 0, "warm-up is expected to allocate while buffers grow");

    let steady = allocations_over_ticks(
        &camera,
        &env,
        &mut pipeline,
        &mut tap,
        &mut scratch,
        &mut frame,
        200,
    );
    assert_eq!(
        steady, 0,
        "steady-state tick + AAD score must not allocate (200 ticks allocated {steady} times)"
    );
}

/// The spatial-index pooling property: once one reset → insert → query
/// cycle has grown the head array, chain table and position store to
/// capacity, an identical cycle on the same [`NnIndex`] instance performs
/// **zero heap allocations** — the lifecycle every warm `plan_into` call
/// runs.
#[test]
fn warm_nn_index_cycle_allocates_nothing() {
    use mavfi_ppc::planning::NnIndex;

    // Deterministic point cloud, no RNG: a coarse lattice walk that spreads
    // across many cells while revisiting some (multi-entry bucket chains).
    fn point(step: usize) -> Vec3 {
        let t = step as f64;
        Vec3::new((t * 0.713).sin() * 20.0, (t * 0.292).cos() * 20.0, (t * 0.177).sin() * 6.0)
    }

    fn run_cycle(index: &mut NnIndex, out: &mut Vec<usize>) -> usize {
        // The box covers most of the walk; points outside it go on the
        // overflow chain, which must not allocate either.
        index.reset(1.5, Aabb::new(Vec3::new(-18.0, -18.0, -5.0), Vec3::new(18.0, 18.0, 5.0)));
        let mut sink = 0;
        for step in 0..400 {
            index.insert(point(step));
            let query = point(step) + Vec3::new(0.4, -0.2, 0.1);
            sink += index.nearest(query);
            index.within_radius(query, 3.0, out);
            sink += out.len();
        }
        sink
    }

    let mut index = NnIndex::new();
    let mut out = Vec::new();

    let _measuring = start_measuring();
    let warm_sink = run_cycle(&mut index, &mut out);

    let before = allocation_count();
    let steady_sink = run_cycle(&mut index, &mut out);
    let allocated = allocation_count() - before;
    assert_eq!(allocated, 0, "warm reset+insert+query cycle allocated {allocated} times");
    assert_eq!(steady_sink, warm_sink, "the warm cycle must repeat the cold one exactly");
}

/// The planner-level pooling property the spatial index must preserve: warm
/// RRT* replans — tree growth, indexed nearest/radius queries, rewiring cost
/// propagation, goal selection — perform **zero heap allocations**.  The
/// vendored RNG makes the whole replan sequence deterministic per seed, so
/// the warm-up provably grows every pooled buffer (including the index's
/// head array and chain table) past the measured window's high-water mark.
#[test]
fn warm_rrt_star_replans_allocate_nothing() {
    use mavfi_ppc::planning::{MotionPlanner, PlannedPath, PlannerAlgorithm, PlannerConfig};

    let env = walled_environment();
    let mut planner =
        PlannerAlgorithm::RrtStar.instantiate(PlannerConfig::for_bounds(env.bounds()).with_seed(5));
    let mut out = PlannedPath::default();

    let _measuring = start_measuring();
    let before_warmup = allocation_count();
    for _ in 0..60 {
        std::hint::black_box(planner.plan_into(&env, env.start(), env.goal(), &mut out));
    }
    let warmup = allocation_count() - before_warmup;
    assert!(warmup > 0, "warm-up is expected to allocate while buffers grow");

    let before = allocation_count();
    for _ in 0..120 {
        let path = planner.plan_into(&env, env.start(), env.goal(), &mut out);
        assert!(path, "the walled world is always solvable");
    }
    let allocated = allocation_count() - before;
    assert_eq!(allocated, 0, "120 warm RRT* replans allocated {allocated} times");
}

#[test]
fn aad_score_iteration_with_scratch_allocates_nothing() {
    let detector = trained_aad();
    let mut scratch = AadScratch::new();
    let mut preprocessor = Preprocessor::new();
    let deltas = preprocessor.process(&synthetic_states(0));

    // Warm the scratch to capacity, then score repeatedly.
    let _measuring = start_measuring();
    let warm_score = detector.score_with(&deltas, &mut scratch);
    let before = allocation_count();
    let mut sink = 0.0;
    for _ in 0..1_000 {
        sink += detector.score_with(&deltas, &mut scratch);
    }
    let allocated = allocation_count() - before;
    std::hint::black_box(sink);
    assert_eq!(allocated, 0, "scored 1000 vectors with {allocated} allocations");
    assert_eq!(detector.score(&deltas), warm_score, "scratch path must match allocating path");
}

/// The fault-job trunk's checkpoint: a mid-mission Dense trunk — world,
/// pipeline and planner, the fired fault's injector, both shadow detectors —
/// copied into a reused checkpoint with `clone_from` performs **zero heap
/// allocations** once the checkpoint has been warmed on the same flight.
#[test]
fn warm_trunk_checkpoint_allocates_nothing() {
    let mut telemetry = TelemetrySet::new();
    for step in 0..300 {
        telemetry.record(&synthetic_states(step));
    }
    let detectors =
        TrainedDetectors { gad: telemetry.build_gad(CgadConfig::default()), aad: trained_aad() };
    let fault = FaultSpec::new(InjectionTarget::Stage(Stage::Planning), 5, 3);
    let mut trunk: Flight =
        MissionRunner::new(MissionSpec::new(EnvironmentKind::Dense, 10)).trunk(fault, &detectors);
    for _ in 0..40 {
        trunk.step();
    }
    assert!(trunk.is_in_progress(), "the checkpoint must be taken mid-mission");
    assert!(trunk.outcome().fault.is_some(), "the fault must have fired");

    let _measuring = start_measuring();
    let mut checkpoint = trunk.clone();
    let mut steady = 0;
    for _ in 0..20 {
        trunk.step();
        // Warm: the checkpoint's tables and buffers grow to this tick's
        // sizes.  Measured: refreshing a warm checkpoint.
        checkpoint.clone_from(&trunk);
        let before = allocation_count();
        checkpoint.clone_from(&trunk);
        steady += allocation_count() - before;
    }
    assert_eq!(steady, 0, "20 warm checkpoint refreshes allocated {steady} times");
    assert_eq!(checkpoint.outcome(), trunk.outcome());
}
