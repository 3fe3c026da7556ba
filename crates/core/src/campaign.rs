//! Fault-injection campaigns: golden runs, injection runs and detection &
//! recovery runs over an environment, mirroring the paper's evaluation
//! protocol (§VI).

use mavfi_ppc::states::Stage;
use mavfi_sim::env::EnvironmentKind;
use serde::Serialize;

use crate::qof::{QofMetrics, QofSummary};

/// Configuration of one environment's campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignConfig {
    /// Environment under test.
    pub environment: EnvironmentKind,
    /// Number of error-free golden runs.
    pub golden_runs: usize,
    /// Number of fault injections per PPC stage (the paper uses 100,
    /// giving 300 injection runs per environment).
    pub injections_per_stage: usize,
    /// Base seed; every run derives its own seed deterministically.
    pub base_seed: u64,
    /// Mission time budget per run (s).
    pub mission_time_budget: f64,
}

impl CampaignConfig {
    /// A reduced campaign suitable for tests and quick benches.
    pub fn quick(environment: EnvironmentKind, base_seed: u64) -> Self {
        Self {
            environment,
            golden_runs: 3,
            injections_per_stage: 2,
            base_seed,
            mission_time_budget: 240.0,
        }
    }
}

/// Aggregate result of one experiment setting (golden / injection / D&R).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SettingResult {
    /// Setting label ("Golden Run", "Injection Run", ...).
    pub label: String,
    /// Per-run QoF metrics.
    pub runs: Vec<QofMetrics>,
    /// Aggregate summary.
    pub summary: QofSummary,
}

impl SettingResult {
    pub(crate) fn new(label: impl Into<String>, runs: Vec<QofMetrics>) -> Self {
        let summary = QofSummary::from_runs(&runs);
        Self { label: label.into(), runs, summary }
    }
}

/// Full campaign result for one environment: the four rows of Table I and
/// the four distributions of one Fig. 6 subplot.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct EnvironmentCampaign {
    /// Environment under test.
    pub environment: EnvironmentKind,
    /// Error-free baseline.
    pub golden: SettingResult,
    /// Faults injected, no protection.
    pub injected: SettingResult,
    /// Faults injected, Gaussian-based detection and recovery.
    pub gaussian: SettingResult,
    /// Faults injected, autoencoder-based detection and recovery.
    pub autoencoder: SettingResult,
    /// Total recomputations requested by the Gaussian scheme, per stage.
    pub gaussian_recomputations: Vec<(Stage, u64)>,
    /// Total recomputations requested by the autoencoder scheme, per stage.
    pub autoencoder_recomputations: Vec<(Stage, u64)>,
    /// Mean number of pipeline ticks per golden mission.
    pub golden_mean_ticks: f64,
    /// Mean nominal compute time per golden mission (ms, i9 latencies).
    pub golden_mean_compute_ms: f64,
}

impl EnvironmentCampaign {
    /// The four settings in Table I row order.
    pub fn settings(&self) -> [&SettingResult; 4] {
        [&self.golden, &self.injected, &self.gaussian, &self.autoencoder]
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::config::TrainingSpec;
    use crate::exec::{CampaignExecutor, SchemeConfig};
    use crate::runner::TrainedDetectors;
    use crate::training::train_detectors;

    fn quick_detectors() -> TrainedDetectors {
        let spec =
            TrainingSpec { missions: 1, base_seed: 77, mission_time_budget: 25.0, epochs: 5 };
        train_detectors(&spec).0
    }

    #[test]
    fn fault_plan_covers_every_stage_equally() {
        let config = CampaignConfig::quick(EnvironmentKind::Sparse, 1);
        let faults = CampaignExecutor::plan_faults(&config);
        assert_eq!(faults.len(), 3 * config.injections_per_stage);
        for stage in Stage::ALL {
            let count = faults.specs().iter().filter(|f| f.target.stage() == stage).count();
            assert_eq!(count, config.injections_per_stage);
        }
    }

    #[test]
    fn quick_campaign_produces_all_four_settings() {
        let detectors = quick_detectors();
        let config = CampaignConfig {
            environment: EnvironmentKind::Farm,
            golden_runs: 1,
            injections_per_stage: 1,
            base_seed: 5,
            mission_time_budget: 120.0,
        };
        let campaign = CampaignExecutor::new(0)
            .run_campaign(&config, &SchemeConfig::shared(Arc::new(detectors)))
            .unwrap();
        assert_eq!(campaign.golden.runs.len(), 1);
        assert_eq!(campaign.injected.runs.len(), 3);
        assert_eq!(campaign.gaussian.runs.len(), 3);
        assert_eq!(campaign.autoencoder.runs.len(), 3);
        assert!(campaign.golden.summary.success_rate > 0.0, "farm golden run should succeed");
        for setting in campaign.settings() {
            assert_eq!(setting.summary.runs, setting.runs.len());
        }
    }
}
