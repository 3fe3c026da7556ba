//! Integration tests of the fault-injection campaign machinery.

use mavfi_suite::prelude::*;

#[test]
fn stage_faults_fire_and_are_attributed_to_the_right_stage() {
    for stage in Stage::ALL {
        let spec = MissionSpec::new(EnvironmentKind::Sparse, 9).with_time_budget(200.0);
        let fault = FaultSpec::new(InjectionTarget::Stage(stage), 30, 1000 + stage as u64);
        let outcome = MissionRunner::new(spec)
            .run(Some(fault), Protection::None, None)
            .expect("unprotected runs cannot fail to configure");
        let record = outcome.fault.unwrap_or_else(|| panic!("{stage:?} fault never fired"));
        assert_eq!(record.field.expect("stage faults corrupt a scalar").stage(), stage);
        assert!(record.tick >= 30);
    }
}

#[test]
fn faulty_runs_with_same_spec_are_reproducible() {
    let spec = MissionSpec::new(EnvironmentKind::Sparse, 14).with_time_budget(200.0);
    let fault = FaultSpec::new(InjectionTarget::State(StateField::WaypointY), 40, 77);
    let a = MissionRunner::new(spec).run(Some(fault), Protection::None, None).unwrap();
    let b = MissionRunner::new(spec).run(Some(fault), Protection::None, None).unwrap();
    assert_eq!(a.qof, b.qof);
    assert_eq!(a.fault, b.fault);
}

#[test]
fn campaign_plans_have_paper_shape() {
    let plan = |targets: &[InjectionTarget]| {
        CampaignPlan::new(targets, 100, FaultModel::default(), TriggerWindow::new(10, 300), 0)
    };
    // Fig. 3: 100 runs per kernel over 7 kernels.
    let kernels: Vec<_> = KernelId::FIG3_KERNELS.into_iter().map(InjectionTarget::Kernel).collect();
    assert_eq!(plan(&kernels).len(), 700);
    // Fig. 4: 100 runs per monitored inter-kernel state (13 states).
    let states: Vec<_> = StateField::ALL.into_iter().map(InjectionTarget::State).collect();
    assert_eq!(plan(&states).len(), 1300);
    // Table I / Fig. 6: 100 runs per PPC stage -> 300 injection runs.
    assert_eq!(CampaignPlan::per_stage(100, 0).len(), 300);
}

#[test]
fn quick_campaign_produces_consistent_summaries() {
    let training =
        TrainingSpec { missions: 1, base_seed: 321, mission_time_budget: 25.0, epochs: 5 };
    let scheme = SchemeConfig::shared(
        TrainedDetectorCache::global().get_or_train(EnvironmentKind::Randomized, &training),
    );
    let config = CampaignConfig {
        environment: EnvironmentKind::Farm,
        golden_runs: 2,
        injections_per_stage: 1,
        base_seed: 17,
        mission_time_budget: 150.0,
    };
    let campaign =
        CampaignExecutor::new(0).run_campaign(&config, &scheme).expect("campaign should run");

    assert_eq!(campaign.golden.runs.len(), 2);
    assert_eq!(campaign.injected.runs.len(), 3);
    assert_eq!(campaign.gaussian.runs.len(), 3);
    assert_eq!(campaign.autoencoder.runs.len(), 3);
    for setting in campaign.settings() {
        assert!((0.0..=1.0).contains(&setting.summary.success_rate), "{}", setting.label);
        assert_eq!(setting.summary.runs, setting.runs.len());
    }
    assert!(campaign.golden_mean_ticks > 0.0);
    assert!(campaign.golden_mean_compute_ms > 0.0);
    // Farm is obstacle-free: golden runs must succeed.
    assert_eq!(campaign.golden.summary.success_rate, 1.0);
}
