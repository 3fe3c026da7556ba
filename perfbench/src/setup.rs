//! Set-up: cold detector training for the workloads' `TrainingSpec`.

use std::sync::Arc;
use std::time::Instant;

use mavfi::exec::TrainedDetectorCache;
use mavfi::{MissionRunner, MissionSpec, TrainedDetectors, TrainingSpec};
use mavfi_detect::{AadConfig, CgadConfig, TelemetrySet};
use mavfi_nn::train::TrainConfig;
use mavfi_sim::EnvironmentKind;

use crate::report::{median, Outcome};
use crate::spans::{SpanId, Tracer};

/// Environment the training missions fly in (the paper's randomized
/// training environments).
pub const TRAINING_ENVIRONMENT: EnvironmentKind = EnvironmentKind::Randomized;

/// The training configuration every workload uses: two error-free
/// missions of at most 30 s, 25 autoencoder epochs.
pub const TRAINING: TrainingSpec =
    TrainingSpec { missions: 2, base_seed: 9_000, mission_time_budget: 30.0, epochs: 25 };

/// Cold trainings per run; `setup_s` is their median.  A training takes
/// about 2 s, within one spell of the host's speed; with three, the
/// medians of ten runs spread by up to 0.46 of their median.
const REPETITIONS: usize = 5;

/// Trains the detectors cold `REPETITIONS` times, each through a fresh
/// `TrainedDetectorCache`, checks that every training produced the same
/// bank, seeds the process-wide cache with it (the campaign server and the
/// replay harness look detectors up there) and returns it with the median
/// training time in seconds.
pub fn train(outcome: &mut Outcome) -> (Arc<TrainedDetectors>, f64) {
    let mut seconds = Vec::with_capacity(REPETITIONS);
    let mut banks: Vec<Arc<TrainedDetectors>> = Vec::with_capacity(REPETITIONS);
    for _ in 0..REPETITIONS {
        let cache = TrainedDetectorCache::new();
        let start = Instant::now();
        let bank = cache.get_or_train(TRAINING_ENVIRONMENT, &TRAINING);
        seconds.push(start.elapsed().as_secs_f64());
        banks.push(bank);
    }
    for (index, bank) in banks.iter().enumerate().skip(1) {
        outcome
            .check(**bank == *banks[0], || format!("cold training {index} differs from the first"));
    }
    let bank = TrainedDetectorCache::global().insert(
        TRAINING_ENVIRONMENT,
        &TRAINING,
        TrainedDetectors::clone(&banks[0]),
    );
    (bank, median(&seconds))
}

/// Training split into its three steps — telemetry collection
/// (`run_collecting_telemetry`), `build_gad` and `train_aad` — each under
/// its own span, with the same settings the library trains with.  Checks
/// that the result equals `expected` and returns `(collect_s, fit_s)`.
pub fn train_traced(
    expected: &TrainedDetectors,
    tracer: &mut Tracer,
    parent: SpanId,
    outcome: &mut Outcome,
) -> (f64, f64) {
    let training = tracer.open("training", Some(parent));
    let (telemetry, collect_ns) = tracer.time("training.collect", Some(training), || {
        let mut telemetry = TelemetrySet::new();
        for index in 0..TRAINING.missions {
            let mission = MissionSpec::new(TRAINING_ENVIRONMENT, TRAINING.base_seed + index as u64)
                .with_time_budget(TRAINING.mission_time_budget);
            MissionRunner::new(mission).run_collecting_telemetry(&mut telemetry);
        }
        telemetry
    });
    let (gad, gad_ns) =
        tracer.time("training.gad", Some(training), || telemetry.build_gad(CgadConfig::default()));
    let (aad, aad_ns) = tracer.time("training.aad", Some(training), || {
        let config = TrainConfig { epochs: TRAINING.epochs, ..TrainConfig::default() };
        telemetry.train_aad(AadConfig::default(), &config).0
    });
    tracer.close(training);
    outcome.check(TrainedDetectors { gad, aad } == *expected, || {
        "step-by-step training differs from the library's".to_owned()
    });
    (collect_ns as f64 / 1e9, (gad_ns + aad_ns) as f64 / 1e9)
}
