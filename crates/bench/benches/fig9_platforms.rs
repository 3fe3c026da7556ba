//! Fig. 9: desktop (i9) versus embedded (Cortex-A57/TX2) companion
//! computer: specification table, modelled flight time/energy, and measured
//! recovery from a reduced Sparse fault-injection campaign.
//!
//! Set `MAVFI_RUNS=100` for paper-scale counts.

use criterion::{criterion_group, criterion_main, Criterion};
use mavfi::experiments::fig9::{self, Fig9Config};
use mavfi::experiments::table1::{self, Table1Config};
use mavfi::prelude::*;
use mavfi_bench::{print_campaign_experiment, runs_per_target};

fn run_experiment() {
    // A reduced Sparse campaign supplies the measured recovery percentages.
    let runs = runs_per_target(1);
    let config = Table1Config {
        golden_runs: runs.max(1) * 2,
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
    let (table1_result, _) =
        table1::run_in(&config, &[EnvironmentKind::Sparse], None).expect("sparse campaign");
    let campaign = table1_result.campaign(EnvironmentKind::Sparse);

    let result = fig9::run(&Fig9Config::default(), campaign);
    print_campaign_experiment(
        "Fig. 9 — computing platform comparison (i9 vs Cortex-A57)",
        &result.to_table(),
    );
    println!(
        "Embedded platform flies {:.1}x slower than the desktop platform (paper: ~2.8x).",
        result.embedded_slowdown()
    );
}

fn bench(c: &mut Criterion) {
    run_experiment();
    let mut group = c.benchmark_group("fig9");
    group.bench_function("platform_model_evaluation", |b| {
        b.iter(|| fig9::run(&Fig9Config::default(), None))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
