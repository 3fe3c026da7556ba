//! Ablation benches: the Gaussian `n_sigma` sweep, the autoencoder
//! threshold-margin sweep, the detector-family comparison (GAD /
//! Mahalanobis / AAD) and the autoencoder architecture sweep.
//!
//! These are the design-choice ablations DESIGN.md calls out; they operate
//! on stream-level detection quality so they stay cheap.  Set
//! `MAVFI_RUNS` >= 3 to collect telemetry from more training missions.

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::experiments::ablation::{self, AblationConfig};
use mavfi_bench::{print_experiment, runs_per_target};
use mavfi_detect::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn run_experiment() {
    let config = AblationConfig {
        training_missions: runs_per_target(2),
        mission_time_budget: 40.0,
        epochs: 15,
        ..AblationConfig::default()
    };
    let result = ablation::run(&config).expect("ablation experiment");
    print_experiment("Ablation — detector calibration and design choices", &result.to_table());
}

/// Synthetic correlated telemetry for the micro-benchmarks.
fn synthetic_samples(count: usize, seed: u64) -> Vec<[f64; 13]> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let a: f64 = rng.gen_range(-8.0..8.0);
            std::array::from_fn(|i| if i < 7 { a } else { -a } + rng.gen_range(-0.5..0.5))
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    run_experiment();

    let training = synthetic_samples(600, 1);
    let mut gad = GadBank::new(CgadConfig::default());
    gad.prime(&training);
    let mahalanobis = MahalanobisDetector::fit(&training, MahalanobisConfig::default());
    let (aad, _) = AadDetector::train(
        &training,
        AadConfig::default(),
        &mavfi_nn::train::TrainConfig { epochs: 10, ..Default::default() },
    );
    let sample = training[0];

    let mut group = c.benchmark_group("ablation_scoring");
    group.bench_function("gad_score", |b| b.iter(|| gad.score(&sample)));
    group.bench_function("mahalanobis_distance", |b| b.iter(|| mahalanobis.distance(&sample)));
    group.bench_function("aad_reconstruction_error", |b| b.iter(|| aad.score(&sample)));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
