//! Fig. 9: computing-platform comparison (desktop i9 versus embedded
//! Cortex-A57/TX2): specification table, modelled flight time and energy,
//! and fault-injection recovery on the embedded platform.

use mavfi_platform::perf_model::{ScenarioParams, VisualPerformanceModel};
use mavfi_platform::redundancy::ProtectionScheme;
use mavfi_platform::spec::ComputePlatform;
use mavfi_platform::uav::UavSpec;

use crate::campaign::EnvironmentCampaign;
use crate::report::{percent, TextTable};

/// Configuration of the Fig. 9 comparison.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fig9Config {
    /// Scenario parameters of the performance model.
    pub scenario: ScenarioParams,
}

/// One platform row of the Fig. 9 table.
#[derive(Debug, Clone, PartialEq)]
pub struct PlatformRow {
    /// Platform name.
    pub name: String,
    /// Core count.
    pub cores: u32,
    /// Core frequency (GHz).
    pub frequency_ghz: f64,
    /// Compute power (W).
    pub power_w: f64,
    /// Modelled mission flight time (s).
    pub flight_time_s: f64,
    /// Modelled mission energy (kJ).
    pub flight_energy_kj: f64,
}

/// Full Fig. 9 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Result {
    /// One row per platform (i9 first, Cortex-A57 second).
    pub platforms: Vec<PlatformRow>,
    /// Worst-case flight-time recovery of the Gaussian scheme measured by a
    /// fault-injection campaign, if one was supplied.
    pub gaussian_recovery: Option<f64>,
    /// Worst-case flight-time recovery of the autoencoder scheme measured by
    /// a fault-injection campaign, if one was supplied.
    pub autoencoder_recovery: Option<f64>,
}

impl Fig9Result {
    /// Renders the platform-specification and QoF table.
    pub fn to_table(&self) -> String {
        let mut table = TextTable::new([
            "Platform",
            "Cores",
            "Freq (GHz)",
            "Power (W)",
            "Flight time (s)",
            "Flight energy (kJ)",
        ]);
        for row in &self.platforms {
            table.push_row([
                row.name.clone(),
                row.cores.to_string(),
                format!("{:.1}", row.frequency_ghz),
                format!("{:.0}", row.power_w),
                format!("{:.1}", row.flight_time_s),
                format!("{:.1}", row.flight_energy_kj),
            ]);
        }
        let mut output = table.render();
        if let (Some(gaussian), Some(autoencoder)) =
            (self.gaussian_recovery, self.autoencoder_recovery)
        {
            output.push_str(&format!(
                "Embedded-platform worst-case flight time recovered: {} (Gaussian), {} (Autoencoder)\n",
                percent(gaussian),
                percent(autoencoder)
            ));
        }
        output
    }

    /// Flight-time ratio of the embedded platform over the desktop platform.
    pub fn embedded_slowdown(&self) -> f64 {
        if self.platforms.len() < 2 || self.platforms[0].flight_time_s <= 0.0 {
            return 1.0;
        }
        self.platforms[1].flight_time_s / self.platforms[0].flight_time_s
    }
}

/// Runs the Fig. 9 comparison.  Pass a campaign (for example the Sparse
/// campaign from Table I) to also report the measured recovery percentages.
pub fn run(config: &Fig9Config, campaign: Option<&EnvironmentCampaign>) -> Fig9Result {
    let model = VisualPerformanceModel::new(config.scenario);
    let uav = UavSpec::airsim_uav();
    let platforms = ComputePlatform::paper_platforms()
        .into_iter()
        .map(|platform| {
            let estimate = model.evaluate(&uav, &platform, ProtectionScheme::AnomalyDetection);
            PlatformRow {
                name: platform.name.clone(),
                cores: platform.core_count,
                frequency_ghz: platform.core_frequency_ghz,
                power_w: platform.power_watts,
                flight_time_s: estimate.flight_time_s,
                flight_energy_kj: estimate.energy_j / 1000.0,
            }
        })
        .collect();

    let (gaussian_recovery, autoencoder_recovery) = match campaign {
        Some(campaign) => (
            Some(
                campaign
                    .gaussian
                    .summary
                    .recovery_vs(&campaign.golden.summary, &campaign.injected.summary),
            ),
            Some(
                campaign
                    .autoencoder
                    .summary
                    .recovery_vs(&campaign.golden.summary, &campaign.injected.summary),
            ),
        ),
        None => (None, None),
    };

    Fig9Result { platforms, gaussian_recovery, autoencoder_recovery }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_platform_is_substantially_slower() {
        let result = run(&Fig9Config::default(), None);
        assert_eq!(result.platforms.len(), 2);
        assert_eq!(result.platforms[0].name, "i9-9940X");
        assert_eq!(result.platforms[1].name, "Cortex-A57");
        // The paper's table shows 115 s vs 322 s (~2.8x).
        let slowdown = result.embedded_slowdown();
        assert!(slowdown > 1.8, "expected a clear slowdown, got {slowdown:.2}x");
        // Energy is also higher on the slower platform despite lower power.
        assert!(result.platforms[1].flight_energy_kj > result.platforms[0].flight_energy_kj);
    }

    #[test]
    fn table_contains_spec_columns() {
        let table = run(&Fig9Config::default(), None).to_table();
        assert!(table.contains("Cortex-A57"));
        assert!(table.contains("14"));
        assert!(table.contains("3.3"));
    }
}
