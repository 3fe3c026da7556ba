//! Microbenchmarks of the replan path: per-planner `plan_into` latency on
//! mission-observed occupancy grids (also vs the O(n) linear nearest/radius
//! scans the pooled spatial index replaced), the share
//! of an RRT* replan spent answering map queries, and the end-to-end
//! throughput of a pipeline forced to replan on every tick — the
//! fault-triggered recovery workload of the paper's §VI-C.
//!
//! Prints `ms/replan` (with a digest of the planned paths), `map queries`
//! and `ticks/s` lines before the Criterion group.

use std::cell::RefCell;
use std::hash::Hasher;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::prelude::*;
use mavfi_ppc::perception::occupancy::OccupancyGrid;
use mavfi_ppc::pipeline::{PpcConfig, PpcPipeline};
use mavfi_ppc::planning::{
    MotionPlanner, ObstacleModel, PlannedPath, Planner, PlannerAlgorithm, PlannerConfig,
};
use mavfi_ppc::states::Trajectory;
use mavfi_ppc::tap::{NoopTap, StageTap, TapAction};
use mavfi_sim::sensors::{CaptureScratch, DepthCamera, DepthFrame};
use mavfi_sim::world::World;

/// The replan problems the latency lines time: `(Dense seed, ticks flown)`.
/// Each seed also seeds its planners.
const PROBLEMS: [(u64, u32); 4] = [(8, 150), (12, 60), (20, 100), (31, 120)];

/// One mission-observed replan problem.
struct ReplanProblem {
    seed: u64,
    grid: OccupancyGrid,
    start: Vec3,
    goal: Vec3,
}

/// Flies `ticks` ticks of a Dense mission and returns the occupancy grid
/// the vehicle observed plus its position — a realistic replan problem (the
/// straight line to the goal is blocked by observed voxels).
fn observed_replan_problem(seed: u64, ticks: u32) -> ReplanProblem {
    let env = EnvironmentKind::Dense.build(seed);
    let goal = env.goal();
    let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), seed);
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
    for _ in 0..ticks {
        camera.capture_into(world.environment(), &world.vehicle().pose(), &mut scratch, &mut frame);
        let tick = pipeline.tick(&frame, &world.vehicle().state(), 0.1, &mut NoopTap);
        world.step(&tick.command, 0.1);
    }
    let start = world.vehicle().state().position;
    ReplanProblem { seed, grid: pipeline.occupancy().clone(), start, goal }
}

/// The planner configuration of a problem's Dense seed.
fn planner_config(seed: u64) -> PlannerConfig {
    PlannerConfig::for_bounds(EnvironmentKind::Dense.build(seed).bounds()).with_seed(seed)
}

/// Times `rounds` rounds of one warm `plan_into` per problem, each problem on
/// its own planner instance (warmed by one untimed replan), and returns the
/// fastest round's mean time per replan (ns) with a digest of every planned
/// path.  The digest depends only on the paths, so it changes exactly when
/// a planner's behaviour does.
fn time_rounds(
    algorithm: PlannerAlgorithm,
    problems: &[ReplanProblem],
    linear: bool,
    rounds: u32,
) -> (f64, u64) {
    let mut planners: Vec<_> = problems
        .iter()
        .map(|problem| {
            let mut planner = algorithm.instantiate(planner_config(problem.seed));
            planner.set_spatial_index_enabled(!linear);
            planner
        })
        .collect();
    let mut out = PlannedPath::default();
    let mut digest = std::collections::hash_map::DefaultHasher::new();
    let mut plan = |planner: &mut Planner, problem: &ReplanProblem| {
        let found = planner.plan_into(&problem.grid, problem.start, problem.goal, &mut out);
        digest.write_u8(u8::from(found));
        for waypoint in &out.waypoints {
            for coordinate in [waypoint.x, waypoint.y, waypoint.z] {
                digest.write_u64(coordinate.to_bits());
            }
        }
    };
    for (planner, problem) in planners.iter_mut().zip(problems) {
        plan(planner, problem);
    }
    let mut fastest = Duration::MAX;
    for _ in 0..rounds {
        let begin = Instant::now();
        for (planner, problem) in planners.iter_mut().zip(problems) {
            plan(planner, problem);
        }
        fastest = fastest.min(begin.elapsed());
    }
    (fastest.as_nanos() as f64 / problems.len() as f64, digest.finish())
}

/// Times per-planner replans over the observed problems: `plan_into` with
/// the spatial index on (the default) and with it disabled, i.e. the O(n)
/// linear nearest/radius scans it replaced.  Both sides plan the same paths, so their digests must
/// match.
fn measure_planner_latency(problems: &[ReplanProblem]) {
    /// Rounds per timing.  On a shared 2-core host a mean over one problem
    /// spread by ±15%; the minimum of many short rounds sheds most of the
    /// interference.
    const ROUNDS: u32 = 15;
    let seeds: Vec<String> = problems.iter().map(|problem| problem.seed.to_string()).collect();
    let label = format!("observed Dense seeds {} grids", seeds.join("/"));
    for algorithm in PlannerAlgorithm::ALL {
        let name = format!("{algorithm:?}").to_lowercase();
        let (indexed_ns, digest) = time_rounds(algorithm, problems, false, ROUNDS);
        println!(
            "{label}: {name}_plan_into {:.3} ms/replan (min of {ROUNDS} rounds), paths {digest:016x}",
            indexed_ns / 1e6
        );
        let (linear_ns, linear_digest) = time_rounds(algorithm, problems, true, ROUNDS);
        let agreement = if linear_digest == digest { "identical paths" } else { "PATHS DIFFER" };
        println!(
            "{label}: {name}_plan_into_linear {:.3} ms/replan (min of {ROUNDS} rounds), {agreement}",
            linear_ns / 1e6
        );
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
/// first `plan_into` of a fresh planner is recorded, then that replan
/// (on fresh planners, so each makes exactly the recorded queries) and a
/// replay of its queries against the grid are timed.
fn measure_map_query_share(problem: &ReplanProblem) {
    const ITERS: u32 = 8;
    let ReplanProblem { seed, ref grid, start, goal } = *problem;
    let config = planner_config(seed);
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
        "observed Dense seed-{seed} grid: map queries: {query_ms:.2} of {plan_ms:.2} ms per \
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

/// Times the end-to-end recovery workload: a stationary RRT\* pipeline
/// replanning on every tick, capture included.
fn measure_forced_replan_throughput() {
    let env = Environment::new(
        "replan-bench",
        Aabb::new(Vec3::new(-10.0, -20.0, 0.0), Vec3::new(40.0, 20.0, 10.0)),
        vec![Obstacle::from_center(Vec3::new(12.0, 0.0, 2.0), Vec3::new(4.0, 12.0, 6.0))],
        Vec3::new(0.0, 0.0, 2.0),
        Vec3::new(30.0, 0.0, 2.0),
    );
    let config = PpcConfig::new(PlannerAlgorithm::RrtStar, env.bounds(), 3);
    let mut pipeline = PpcPipeline::new(config, env.start(), env.goal());
    let camera = DepthCamera::default();
    let pose = Pose::new(env.start(), 0.0);
    let vehicle = QuadrotorState { position: env.start(), ..QuadrotorState::default() };
    let mut frame = DepthFrame::default();
    let mut scratch = CaptureScratch::new();
    let mut tap = ReplanEveryTick;

    const TICKS: u32 = 200;
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
        "RRT* replan every tick, stationary walled world: {:.0} ticks/s",
        f64::from(TICKS) / elapsed.max(1e-9)
    );
}

fn bench(c: &mut Criterion) {
    let problems: Vec<ReplanProblem> =
        PROBLEMS.iter().map(|&(seed, ticks)| observed_replan_problem(seed, ticks)).collect();
    measure_planner_latency(&problems);
    measure_map_query_share(&problems[0]);
    measure_forced_replan_throughput();
    let mut group = c.benchmark_group("replan");
    group.sample_size(10);
    group.bench_function("rrt_star_plan_into_observed_grid", |b| {
        let problem = &problems[0];
        let mut planner = PlannerAlgorithm::RrtStar.instantiate(planner_config(problem.seed));
        let mut out = PlannedPath::default();
        b.iter(|| planner.plan_into(&problem.grid, problem.start, problem.goal, &mut out))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
