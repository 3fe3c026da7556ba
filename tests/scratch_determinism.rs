//! Golden-run determinism regression for the scratch-buffer tick path.
//!
//! The `_into` scratch APIs (depth capture, point cloud, smoothing,
//! trajectory resampling, AAD scoring) must give *bit-identical* results
//! whether their buffers are fresh or reused: a mission that captures into
//! a fresh frame and scratch every tick produces exactly the same
//! `MissionOutcome` (qof, trail, pipeline stats) as `MissionRunner`'s
//! reused-buffer loop, across seeds and environments.

use mavfi::prelude::*;
use mavfi::qof::QofMetrics;
use mavfi_ppc::pipeline::PpcPipeline;
use mavfi_ppc::tap::NoopTap;

/// Flies `spec` capturing into a fresh frame and scratch every tick,
/// mirroring `MissionRunner`'s loop.
fn fly_with_allocating_capture(spec: MissionSpec) -> (QofMetrics, Vec<Vec3>, u64) {
    let environment = spec.environment.build(spec.seed);
    let ppc_config = PpcConfig::new(spec.planner, environment.bounds(), spec.seed);
    let mut pipeline = PpcPipeline::new(ppc_config, environment.start(), environment.goal());
    let camera = DepthCamera::default();
    let mut world = World::new(environment, spec.vehicle, PowerModel::default(), spec.mission);
    let dt = spec.control_period;
    while world.status() == MissionStatus::InProgress {
        let mut frame = DepthFrame::default();
        let pose = world.vehicle().pose();
        camera.capture_into(world.environment(), &pose, &mut CaptureScratch::new(), &mut frame);
        let tick = pipeline.tick(&frame, &world.vehicle().state(), dt, &mut NoopTap);
        world.step(&tick.command, dt);
    }
    let qof = QofMetrics {
        status: world.status(),
        flight_time_s: world.elapsed(),
        energy_j: world.energy_joules(),
        distance_m: world.distance_travelled(),
    };
    (qof, world.trail().to_vec(), pipeline.stats().ticks)
}

#[test]
fn scratch_path_outcomes_are_bit_identical_to_allocating_path() {
    // 3 seeds x 2 environments, as the refactor's acceptance demands.
    for environment in [EnvironmentKind::Sparse, EnvironmentKind::Farm] {
        for seed in [3_u64, 8, 21] {
            let spec = MissionSpec::new(environment, seed).with_time_budget(150.0);
            let (qof, trail, ticks) = fly_with_allocating_capture(spec);
            let outcome = MissionRunner::new(spec).run_golden();
            assert_eq!(
                qof, outcome.qof,
                "qof diverged for {environment:?} seed {seed} (reused vs fresh buffers)"
            );
            assert_eq!(
                trail, outcome.trail,
                "trail diverged for {environment:?} seed {seed} (reused vs fresh buffers)"
            );
            assert_eq!(ticks, outcome.pipeline.ticks, "tick count diverged for seed {seed}");
        }
    }
}

#[test]
fn capture_into_reused_buffers_match_fresh_buffers_including_cull() {
    // Frames must be identical pose by pose, including poses that look away
    // from (behind-cull) and beyond (range-cull) the obstacles.
    for environment in [EnvironmentKind::Sparse, EnvironmentKind::Dense] {
        let env = environment.build(5);
        let camera = DepthCamera::default();
        let mut scratch = CaptureScratch::new();
        let mut reused = DepthFrame::default();
        for step in 0..48 {
            let angle = step as f64 * (std::f64::consts::TAU / 12.0);
            let offset = Vec3::new((step % 7) as f64 * 3.0, (step % 5) as f64 * 4.0, 2.0);
            let pose = Pose::new(env.start() + offset, angle);
            let mut fresh = DepthFrame::default();
            camera.capture_into(&env, &pose, &mut CaptureScratch::new(), &mut fresh);
            camera.capture_into(&env, &pose, &mut scratch, &mut reused);
            assert_eq!(
                fresh, reused,
                "{environment:?} frame diverged at step {step} (pose {pose:?})"
            );
        }
    }
}

#[test]
fn detector_supervised_outcome_is_deterministic_across_runs() {
    // The scratch buffers inside the detector tap must not leak state
    // between runs: two identical protected missions give identical
    // outcomes (detector stats included).
    let training =
        TrainingSpec { missions: 1, base_seed: 42, mission_time_budget: 20.0, epochs: 5 };
    let detectors = mavfi::exec::TrainedDetectorCache::global()
        .get_or_train(EnvironmentKind::Randomized, &training);
    let spec = MissionSpec::new(EnvironmentKind::Sparse, 9).with_time_budget(120.0);
    let first = MissionRunner::new(spec)
        .run(None, Protection::Autoencoder, Some(&detectors))
        .expect("protected run");
    let second = MissionRunner::new(spec)
        .run(None, Protection::Autoencoder, Some(&detectors))
        .expect("protected run");
    assert_eq!(first.qof, second.qof);
    assert_eq!(first.trail, second.trail);
    assert_eq!(first.detector, second.detector);
}
