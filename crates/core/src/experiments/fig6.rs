//! Fig. 6: flight-time distributions for golden, fault-injection and both
//! detection & recovery settings, per environment.
//!
//! Fig. 6 is computed from the same campaign as Table I; this module adds
//! the flight-time-centric view (worst-case inflation of the injection runs
//! and the fraction of that inflation recovered by each scheme).

use std::sync::Arc;

use crate::campaign::EnvironmentCampaign;
use crate::error::MavfiError;
use crate::experiments::table1::{self, Table1Config};
use crate::report;
use crate::runner::TrainedDetectors;

/// Fig. 6 result: the same campaigns as Table I, viewed through flight time.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Result {
    /// Per-environment campaigns.
    pub campaigns: Vec<EnvironmentCampaign>,
}

impl Fig6Result {
    /// Builds the Fig. 6 view from already-run campaigns (avoids re-running
    /// the expensive experiment when Table I was just produced).
    pub fn from_campaigns(campaigns: Vec<EnvironmentCampaign>) -> Self {
        Self { campaigns }
    }

    /// Renders the per-environment flight-time summary table.
    pub fn to_table(&self) -> String {
        report::fig6_flight_time_summary(&self.campaigns)
    }

    /// Worst-case flight-time recovery of the autoencoder scheme, per
    /// environment, as fractions.
    pub fn autoencoder_recoveries(&self) -> Vec<(String, f64)> {
        self.campaigns
            .iter()
            .map(|campaign| {
                (
                    campaign.environment.label().to_owned(),
                    campaign
                        .autoencoder
                        .summary
                        .recovery_vs(&campaign.golden.summary, &campaign.injected.summary),
                )
            })
            .collect()
    }
}

/// Runs the Fig. 6 experiment from scratch (training detectors and running
/// the full campaign).  Prefer [`Fig6Result::from_campaigns`] when Table I
/// results are already available.
///
/// # Errors
///
/// Propagates campaign errors.
pub fn run(config: &Table1Config) -> Result<(Fig6Result, Arc<TrainedDetectors>), MavfiError> {
    let (table1, detectors) = table1::run(config)?;
    Ok((Fig6Result::from_campaigns(table1.campaigns), detectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::SettingResult;
    use crate::qof::{QofMetrics, QofSummary};
    use mavfi_ppc::states::Stage;
    use mavfi_sim::env::EnvironmentKind;
    use mavfi_sim::world::MissionStatus;

    fn setting(label: &str, time: f64) -> SettingResult {
        let runs = vec![QofMetrics {
            status: MissionStatus::Succeeded,
            flight_time_s: time,
            energy_j: time * 100.0,
            distance_m: time * 3.0,
        }];
        SettingResult { label: label.into(), summary: QofSummary::from_runs(&runs), runs }
    }

    fn fake_campaign() -> EnvironmentCampaign {
        EnvironmentCampaign {
            environment: EnvironmentKind::Sparse,
            golden: setting("Golden Run", 100.0),
            injected: setting("Injection Run", 160.0),
            gaussian: setting("Gaussian-based", 130.0),
            autoencoder: setting("Autoencoder-based", 110.0),
            gaussian_recomputations: Stage::ALL.iter().map(|s| (*s, 1)).collect(),
            autoencoder_recomputations: Stage::ALL.iter().map(|s| (*s, 1)).collect(),
            golden_mean_ticks: 1_000.0,
            golden_mean_compute_ms: 60_000.0,
        }
    }

    #[test]
    fn table_reports_inflation_and_recovery() {
        let result = Fig6Result::from_campaigns(vec![fake_campaign()]);
        let table = result.to_table();
        assert!(table.contains("Sparse"));
        assert!(table.contains("60.0%"), "injection inflation should be 60%: {table}");
        let recoveries = result.autoencoder_recoveries();
        assert_eq!(recoveries.len(), 1);
        assert!((recoveries[0].1 - 0.8333).abs() < 0.01);
    }
}
