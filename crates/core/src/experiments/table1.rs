//! Table I: flight success rate across the four evaluation environments for
//! golden runs, injection runs and both detection & recovery schemes.

use std::sync::Arc;

use mavfi_sim::env::EnvironmentKind;
use serde::{Deserialize, Serialize};

use crate::campaign::{CampaignConfig, EnvironmentCampaign};
use crate::config::TrainingSpec;
use crate::error::MavfiError;
use crate::exec::{CampaignExecutor, SchemeConfig, TrainedDetectorCache};
use crate::report;
use crate::runner::TrainedDetectors;

/// Configuration of the Table I (and Fig. 6) campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Table1Config {
    /// Golden runs per environment (the paper uses 100).
    pub golden_runs: usize,
    /// Injection runs per PPC stage per environment (the paper uses 100).
    pub injections_per_stage: usize,
    /// Base seed.
    pub base_seed: u64,
    /// Mission time budget per run (s).
    pub mission_time_budget: f64,
    /// Detector training specification.
    pub training: TrainingSpec,
}

impl Default for Table1Config {
    fn default() -> Self {
        Self {
            golden_runs: 100,
            injections_per_stage: 100,
            base_seed: 60,
            mission_time_budget: 400.0,
            training: TrainingSpec::default(),
        }
    }
}

impl Table1Config {
    /// A reduced configuration for tests and quick benches.
    pub fn quick() -> Self {
        Self {
            golden_runs: 2,
            injections_per_stage: 1,
            mission_time_budget: 240.0,
            training: TrainingSpec {
                missions: 1,
                base_seed: 9_100,
                mission_time_budget: 30.0,
                epochs: 8,
            },
            ..Self::default()
        }
    }
}

/// Full Table I result: one campaign per evaluation environment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Result {
    /// Per-environment campaigns in paper order (Factory, Farm, Sparse,
    /// Dense).
    pub campaigns: Vec<EnvironmentCampaign>,
}

impl Table1Result {
    /// Renders the success-rate table exactly as Table I lays it out.
    pub fn to_table(&self) -> String {
        report::table1_success_rates(&self.campaigns)
    }

    /// The campaign for one environment, if it was run.
    pub fn campaign(&self, environment: EnvironmentKind) -> Option<&EnvironmentCampaign> {
        self.campaigns.iter().find(|campaign| campaign.environment == environment)
    }
}

/// Runs the Table I campaign over the given environments (pass
/// [`EnvironmentKind::EVALUATION`] for the paper's full set).
///
/// # Errors
///
/// Propagates campaign errors.
pub fn run_in(
    config: &Table1Config,
    environments: &[EnvironmentKind],
    detectors: Option<TrainedDetectors>,
) -> Result<(Table1Result, Arc<TrainedDetectors>), MavfiError> {
    // Explicit detectors are used as-is; otherwise the shared cache trains
    // this configuration once and every later experiment in the process
    // (fig6, fig9, benches, ...) reuses the same bank.  The trained bank is
    // returned as a shared handle — for cache-sourced detectors the cache
    // keeps its own reference, so handing out an `Arc` (rather than an
    // owned bank) is what avoids deep-cloning the autoencoder weights and
    // Gaussian statistics on every call.
    let detectors: Arc<TrainedDetectors> = match detectors {
        Some(detectors) => Arc::new(detectors),
        None => TrainedDetectorCache::global()
            .get_or_train(EnvironmentKind::Randomized, &config.training),
    };
    let scheme = SchemeConfig::shared(Arc::clone(&detectors));
    let executor = CampaignExecutor::new(0);
    let mut campaigns = Vec::with_capacity(environments.len());
    for (index, &environment) in environments.iter().enumerate() {
        let campaign_config = CampaignConfig {
            environment,
            golden_runs: config.golden_runs,
            injections_per_stage: config.injections_per_stage,
            base_seed: config.base_seed + index as u64 * 1_000,
            mission_time_budget: config.mission_time_budget,
        };
        campaigns.push(executor.run_campaign(&campaign_config, &scheme)?);
    }
    Ok((Table1Result { campaigns }, detectors))
}

/// Runs the full four-environment Table I campaign.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn run(config: &Table1Config) -> Result<(Table1Result, Arc<TrainedDetectors>), MavfiError> {
    run_in(config, &EnvironmentKind::EVALUATION, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_reduced() {
        let config = Table1Config::quick();
        assert!(config.golden_runs <= 5);
        assert!(config.injections_per_stage <= 2);
        assert!(config.training.missions <= 2);
    }

    #[test]
    fn default_config_matches_paper_scale() {
        let config = Table1Config::default();
        assert_eq!(config.golden_runs, 100);
        assert_eq!(config.injections_per_stage, 100);
    }
}
