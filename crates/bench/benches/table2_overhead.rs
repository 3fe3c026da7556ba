//! Table II: compute-time overhead of detection and recovery per stage and
//! per environment, for the Gaussian and autoencoder schemes.
//!
//! Set `MAVFI_RUNS=100` for paper-scale counts.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::exec::TrainedDetectorCache;
use mavfi::experiments::table1::{self, Table1Config};
use mavfi::experiments::table2;
use mavfi::prelude::*;
use mavfi_bench::{print_campaign_experiment, runs_per_target};
use mavfi_sim::env::EnvironmentKind as Env;

/// Measures protected-mission throughput (ticks per second with the
/// autoencoder detector supervising every tick — the overhead Table II
/// quantifies) and prints it.
fn measure_protected_throughput() {
    let training = TrainingSpec {
        missions: 2,
        mission_time_budget: 40.0,
        epochs: 15,
        ..TrainingSpec::default()
    };
    let detectors = TrainedDetectorCache::global().get_or_train(Env::Randomized, &training);
    let spec = MissionSpec::new(Env::Sparse, 3).with_time_budget(200.0);
    let runner = MissionRunner::new(spec);
    let _ = runner.run(None, Protection::Autoencoder, Some(&detectors)).expect("protected run");
    let start = Instant::now();
    let outcome =
        runner.run(None, Protection::Autoencoder, Some(&detectors)).expect("protected run");
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "AAD-protected golden Sparse seed 3: {:.0} ticks/s",
        outcome.pipeline.ticks as f64 / elapsed.max(1e-9)
    );
}

fn run_experiment() {
    let runs = runs_per_target(1);
    let config = Table1Config {
        golden_runs: runs.max(1),
        injections_per_stage: runs,
        mission_time_budget: 300.0,
        training: TrainingSpec {
            missions: 2,
            mission_time_budget: 40.0,
            epochs: 15,
            ..TrainingSpec::default()
        },
        ..Table1Config::default()
    };
    let (result, _) = table1::run(&config).expect("table2 campaign");
    let overheads = table2::from_campaigns(&result.campaigns);
    print_campaign_experiment(
        "Table II — detection and recovery compute-time overhead",
        &overheads.to_table(),
    );
    println!(
        "Autoencoder cheaper than Gaussian in every environment: {}",
        overheads.autoencoder_is_cheaper_everywhere()
    );
}

fn bench(c: &mut Criterion) {
    measure_protected_throughput();
    run_experiment();
    // Microbenchmark of the recovery cost model itself.
    let mut group = c.benchmark_group("table2");
    group.bench_function("stage_recompute_cost_model", |b| {
        b.iter(|| Stage::ALL.iter().map(|stage| table2::stage_recompute_ms(*stage)).sum::<f64>())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
