//! Smoke tests of the experiment drivers that regenerate the paper's tables
//! and figures (the model-based ones run at full fidelity; the
//! simulation-based ones run in reduced "quick" configurations).

use mavfi_suite::mavfi::experiments::{fig3, fig8, fig9, table2};
use mavfi_suite::prelude::*;

#[test]
fn fig8_reproduces_the_redundancy_penalty_shape() {
    let result = fig8::run(&fig8::Fig8Config::default());
    let table = result.to_table();
    assert!(table.contains("DJI Spark"));
    assert!(table.contains("TMR"));
    let airsim = result.tmr_energy_ratio("AirSim UAV").unwrap();
    let spark = result.tmr_energy_ratio("DJI Spark").unwrap();
    // Paper: TMR costs 1.06x (AirSim) and 1.91x (Spark) relative to anomaly
    // detection; the shape to preserve is ">1 on both, larger on the Spark".
    assert!(airsim > 1.0 && spark > 1.0);
    assert!(spark > airsim);
}

#[test]
fn fig9_reproduces_the_platform_gap_shape() {
    let result = fig9::run(&fig9::Fig9Config::default(), None);
    assert!(result.embedded_slowdown() > 1.8);
    assert!(result.to_table().contains("i9-9940X"));
}

#[test]
fn fig3_quick_campaign_runs_end_to_end() {
    let mut config = fig3::Fig3Config::quick();
    config.runs_per_kernel = 1;
    config.golden_runs = 1;
    let result = fig3::run(&config).expect("quick fig3 campaign");
    assert_eq!(result.kernels.len(), KernelId::FIG3_KERNELS.len());
    assert!(result.golden.runs == 1);
    let table = result.to_table();
    assert!(table.contains("OctoMap"));
    assert!(table.contains("PID"));
}

#[test]
fn table2_overheads_follow_the_paper_ordering() {
    // Build a small campaign on the obstacle-free Farm environment and
    // derive Table II from it.
    let training =
        TrainingSpec { missions: 1, base_seed: 931, mission_time_budget: 25.0, epochs: 5 };
    let scheme = SchemeConfig::shared(
        TrainedDetectorCache::global().get_or_train(EnvironmentKind::Randomized, &training),
    );
    let config = CampaignConfig {
        environment: EnvironmentKind::Farm,
        golden_runs: 1,
        injections_per_stage: 1,
        base_seed: 88,
        mission_time_budget: 150.0,
    };
    let campaign = CampaignExecutor::new(0).run_campaign(&config, &scheme).expect("quick campaign");
    let overheads = table2::from_campaigns(std::slice::from_ref(&campaign));
    assert_eq!(overheads.environments.len(), 1);
    let env = &overheads.environments[0];
    // The qualitative Table II findings: the autoencoder's total overhead is
    // far below the Gaussian scheme's, and both are small fractions.
    assert!(env.autoencoder_total <= env.gaussian_total);
    assert!(env.gaussian_total < 0.25, "overheads are small fractions of compute time");
    assert!(overheads.to_table().contains("Farm"));
}
