//! Microbenchmarks of the replan path: per-planner `plan_into` latency on a
//! mission-observed occupancy grid (for the RRT family also vs the O(n)
//! linear nearest/radius scans the pooled spatial index replaced), the share
//! of an RRT* replan spent answering map queries, and the end-to-end
//! throughput of a pipeline forced to replan on every tick — the
//! fault-triggered recovery workload of the paper's §VI-C.
//!
//! Prints `ns/replan`, `map queries` and `ticks/s` lines before the
//! Criterion group.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::prelude::*;
use mavfi_ppc::perception::occupancy::OccupancyGrid;
use mavfi_ppc::pipeline::{PpcConfig, PpcPipeline};
use mavfi_ppc::planning::{
    MotionPlanner, ObstacleModel, PlannedPath, PlannerAlgorithm, PlannerConfig,
};
use mavfi_ppc::states::Trajectory;
use mavfi_ppc::tap::{NoopTap, StageTap, TapAction};
use mavfi_sim::sensors::{CaptureScratch, DepthCamera, DepthFrame};
use mavfi_sim::world::World;

/// Flies a prefix of a Dense mission and returns the occupancy grid the
/// vehicle observed plus its position — a realistic replan problem (the
/// straight line to the goal is blocked by observed voxels).
fn observed_replan_problem() -> (OccupancyGrid, Vec3, Vec3) {
    let env = EnvironmentKind::Dense.build(8);
    let goal = env.goal();
    let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), 8);
    let mut pipeline = PpcPipeline::new(config, env.start(), goal);
    let camera = DepthCamera::default();
    let mut world = World::new(
        env,
        QuadrotorParams::default(),
        PowerModel::default(),
        MissionConfig::default(),
    );
    let mut frame = DepthFrame::default();
    let mut scratch = CaptureScratch::new();
    for _ in 0..150 {
        camera.capture_into(world.environment(), &world.vehicle().pose(), &mut scratch, &mut frame);
        let tick = pipeline.tick(&frame, &world.vehicle().state(), 0.1, &mut NoopTap);
        world.step(&tick.command, 0.1);
    }
    let position = world.vehicle().state().position;
    (pipeline.occupancy().clone(), position, goal)
}

/// Times `iters` warm replans through `plan_into` on one planner instance.
fn time_plan_into(
    planner: &mut Box<dyn MotionPlanner + Send>,
    grid: &OccupancyGrid,
    start: Vec3,
    goal: Vec3,
    warmups: u32,
    iters: u32,
) -> f64 {
    let mut out = PlannedPath::default();
    for _ in 0..warmups {
        planner.plan_into(grid, start, goal, &mut out);
    }
    let begin = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(planner.plan_into(grid, start, goal, &mut out));
    }
    begin.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// Times per-planner replans on the observed grid: `plan_into` with the
/// spatial index on (the default) and — for the three RRT-family planners —
/// with it disabled, i.e. the O(n) linear nearest/radius scans it
/// replaced.
fn measure_planner_latency(grid: &OccupancyGrid, start: Vec3, goal: Vec3) {
    const ITERS: u32 = 24;
    /// Linear RRT* replans cost close to a second each; a few iterations
    /// are enough for a stable mean without stalling the bench run.
    const LINEAR_STAR_ITERS: u32 = 4;
    let bounds = EnvironmentKind::Dense.build(8).bounds();
    let config = PlannerConfig::for_bounds(bounds).with_seed(8);
    for algorithm in PlannerAlgorithm::EXTENDED {
        let label = format!("{algorithm:?}").to_lowercase();

        let mut pooled = algorithm.instantiate(config);
        let pooled_ns = time_plan_into(&mut pooled, grid, start, goal, 3, ITERS);
        println!("observed Dense seed-8 grid: {label}_plan_into {pooled_ns:.0} ns/replan");

        if matches!(
            algorithm,
            PlannerAlgorithm::Rrt | PlannerAlgorithm::RrtConnect | PlannerAlgorithm::RrtStar
        ) {
            let iters =
                if algorithm == PlannerAlgorithm::RrtStar { LINEAR_STAR_ITERS } else { ITERS };
            let mut linear = algorithm.instantiate(config);
            linear.set_spatial_index_enabled(false);
            let linear_ns = time_plan_into(&mut linear, grid, start, goal, 1, iters);
            println!(
                "observed Dense seed-8 grid: {label}_plan_into_linear {linear_ns:.0} ns/replan"
            );
        }
    }
}

/// One obstacle query a planner made.
#[derive(Debug, Clone, Copy)]
enum MapQuery {
    Point(Vec3, f64),
    Segment(Vec3, Vec3, f64),
}

impl MapQuery {
    fn answer(self, model: &dyn ObstacleModel) -> bool {
        match self {
            MapQuery::Point(point, margin) => model.point_free(point, margin),
            MapQuery::Segment(a, b, margin) => model.segment_free(a, b, margin),
        }
    }
}

/// Answers from a grid and records every query, in order.
struct RecordingModel<'a> {
    grid: &'a OccupancyGrid,
    queries: RefCell<Vec<MapQuery>>,
}

impl RecordingModel<'_> {
    fn record(&self, query: MapQuery) -> bool {
        self.queries.borrow_mut().push(query);
        query.answer(self.grid)
    }
}

impl ObstacleModel for RecordingModel<'_> {
    fn point_free(&self, point: Vec3, margin: f64) -> bool {
        self.record(MapQuery::Point(point, margin))
    }

    fn segment_free(&self, a: Vec3, b: Vec3, margin: f64) -> bool {
        self.record(MapQuery::Segment(a, b, margin))
    }
}

/// Times the map queries of one RRT* replan against the whole replan: the
/// first `plan_into` of a fresh seed-8 planner is recorded, then that replan
/// (on fresh planners, so each makes exactly the recorded queries) and a
/// replay of its queries against the grid are timed.
fn measure_map_query_share(grid: &OccupancyGrid, start: Vec3, goal: Vec3) {
    const ITERS: u32 = 8;
    let config = PlannerConfig::for_bounds(EnvironmentKind::Dense.build(8).bounds()).with_seed(8);
    let mut out = PlannedPath::default();
    let recorder = RecordingModel { grid, queries: RefCell::new(Vec::new()) };
    PlannerAlgorithm::RrtStar.instantiate(config).plan_into(&recorder, start, goal, &mut out);
    let queries = recorder.queries.into_inner();

    // The recorded replan warmed the caches for both timings.
    let plan: Duration = (0..ITERS)
        .map(|_| {
            let mut planner = PlannerAlgorithm::RrtStar.instantiate(config);
            let begin = Instant::now();
            std::hint::black_box(planner.plan_into(grid, start, goal, &mut out));
            begin.elapsed()
        })
        .sum();
    let replay = || queries.iter().filter(|query| query.answer(grid)).count();
    let begin = Instant::now();
    for _ in 0..ITERS {
        std::hint::black_box(replay());
    }
    let query_ms = begin.elapsed().as_secs_f64() * 1e3 / f64::from(ITERS);
    let plan_ms = plan.as_secs_f64() * 1e3 / f64::from(ITERS);
    println!(
        "observed Dense seed-8 grid: map queries: {query_ms:.2} of {plan_ms:.2} ms per \
         `plan_into` ({} queries, {:.0}%)",
        queries.len(),
        100.0 * query_ms / plan_ms.max(1e-9)
    );
}

/// A tap that requests a planning recomputation on every tick — the
/// deterministic core of the detector's fault-triggered recovery replan.
struct ReplanEveryTick;

impl StageTap for ReplanEveryTick {
    fn after_planning(&mut self, _trajectory: &mut Trajectory, _active_index: usize) -> TapAction {
        TapAction::Recompute
    }
}

/// Times the end-to-end recovery workload: a stationary pipeline replanning
/// (A*, deterministic search) on every tick, capture included.
fn measure_forced_replan_throughput() {
    let env = Environment::new(
        "replan-bench",
        Aabb::new(Vec3::new(-10.0, -20.0, 0.0), Vec3::new(40.0, 20.0, 10.0)),
        vec![Obstacle::from_center(Vec3::new(12.0, 0.0, 2.0), Vec3::new(4.0, 12.0, 6.0))],
        Vec3::new(0.0, 0.0, 2.0),
        Vec3::new(30.0, 0.0, 2.0),
    );
    let config = PpcConfig::new(PlannerAlgorithm::AStar, env.bounds(), 3);
    let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
    let camera = DepthCamera::default();
    let pose = Pose::new(env.start(), 0.0);
    let vehicle = QuadrotorState { position: env.start(), ..QuadrotorState::default() };
    let mut frame = DepthFrame::default();
    let mut scratch = CaptureScratch::new();
    let mut tap = ReplanEveryTick;

    const TICKS: u32 = 2_000;
    for _ in 0..50 {
        camera.capture_into(&env, &pose, &mut scratch, &mut frame);
        std::hint::black_box(pipeline.tick(&frame, &vehicle, 0.1, &mut tap));
    }
    let begin = Instant::now();
    for _ in 0..TICKS {
        camera.capture_into(&env, &pose, &mut scratch, &mut frame);
        std::hint::black_box(pipeline.tick(&frame, &vehicle, 0.1, &mut tap));
    }
    let elapsed = begin.elapsed().as_secs_f64();
    println!(
        "A* replan every tick, stationary walled world: {:.0} ticks/s",
        f64::from(TICKS) / elapsed.max(1e-9)
    );
}

fn bench(c: &mut Criterion) {
    let (grid, position, goal) = observed_replan_problem();
    measure_planner_latency(&grid, position, goal);
    measure_map_query_share(&grid, position, goal);
    measure_forced_replan_throughput();
    let mut group = c.benchmark_group("replan");
    group.sample_size(10);
    group.bench_function("rrt_star_plan_into_observed_grid", |b| {
        let config = PlannerConfig::for_bounds(EnvironmentKind::Dense.build(8).bounds());
        let mut planner = PlannerAlgorithm::RrtStar.instantiate(config.with_seed(8));
        let mut out = PlannedPath::default();
        b.iter(|| planner.plan_into(&grid, position, goal, &mut out))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
