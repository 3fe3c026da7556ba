//! Fig. 8: DMR/TMR hardware redundancy versus software anomaly detection,
//! evaluated with the cyber-physical visual performance model on the AirSim
//! UAV and the DJI Spark (Cortex-A57 companion computer).

use mavfi_platform::perf_model::{ScenarioParams, VisualPerformanceModel};
use mavfi_platform::redundancy::ProtectionScheme;
use mavfi_platform::spec::ComputePlatform;
use mavfi_platform::uav::UavSpec;

use crate::report::TextTable;

/// Configuration of the Fig. 8 study.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fig8Config {
    /// Scenario parameters of the performance model.
    pub scenario: ScenarioParams,
}

/// One (airframe, scheme) data point, normalised to the anomaly-detection
/// baseline as in the paper's bar chart.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Point {
    /// Airframe name.
    pub uav: String,
    /// Protection scheme.
    pub scheme: String,
    /// Flight time (s).
    pub flight_time_s: f64,
    /// Mission energy (J).
    pub energy_j: f64,
    /// Flight time normalised to the anomaly-detection baseline.
    pub flight_time_ratio: f64,
    /// Energy normalised to the anomaly-detection baseline.
    pub energy_ratio: f64,
}

/// Full Fig. 8 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Result {
    /// All data points (two airframes × three schemes).
    pub points: Vec<Fig8Point>,
}

impl Fig8Result {
    /// Renders the comparison table.
    pub fn to_table(&self) -> String {
        let mut table = TextTable::new([
            "UAV",
            "Scheme",
            "Flight time (s)",
            "Energy (kJ)",
            "Time vs D&R",
            "Energy vs D&R",
        ]);
        for point in &self.points {
            table.push_row([
                point.uav.clone(),
                point.scheme.clone(),
                format!("{:.1}", point.flight_time_s),
                format!("{:.1}", point.energy_j / 1000.0),
                format!("{:.2}x", point.flight_time_ratio),
                format!("{:.2}x", point.energy_ratio),
            ]);
        }
        table.render()
    }

    /// The TMR-versus-anomaly-detection energy ratio for a given airframe.
    pub fn tmr_energy_ratio(&self, uav_name: &str) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.uav == uav_name && p.scheme == ProtectionScheme::Tmr.label())
            .map(|p| p.energy_ratio)
    }
}

/// Runs the Fig. 8 study.
pub fn run(config: &Fig8Config) -> Fig8Result {
    let model = VisualPerformanceModel::new(config.scenario);
    let platform = ComputePlatform::cortex_a57();
    let mut points = Vec::new();
    for uav in UavSpec::paper_uavs() {
        let series = model.fig8_series(&uav, &platform);
        let baseline = series
            .iter()
            .find(|(scheme, _)| *scheme == ProtectionScheme::AnomalyDetection)
            .map(|(_, estimate)| *estimate)
            .expect("anomaly detection is always in the series");
        for (scheme, estimate) in series {
            points.push(Fig8Point {
                uav: uav.name.clone(),
                scheme: scheme.label().to_owned(),
                flight_time_s: estimate.flight_time_s,
                energy_j: estimate.energy_j,
                flight_time_ratio: estimate.flight_time_s / baseline.flight_time_s,
                energy_ratio: estimate.energy_j / baseline.energy_j,
            });
        }
    }
    Fig8Result { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundancy_costs_more_on_both_airframes() {
        let result = run(&Fig8Config::default());
        assert_eq!(result.points.len(), 6);
        for uav in ["AirSim UAV", "DJI Spark"] {
            let ratio = result.tmr_energy_ratio(uav).unwrap();
            assert!(ratio > 1.0, "TMR should cost more than anomaly D&R on {uav}");
        }
        // The penalty is larger on the smaller airframe (paper: 1.06x vs 1.91x).
        let airsim = result.tmr_energy_ratio("AirSim UAV").unwrap();
        let spark = result.tmr_energy_ratio("DJI Spark").unwrap();
        assert!(spark > airsim);
    }

    #[test]
    fn table_contains_all_schemes() {
        let table = run(&Fig8Config::default()).to_table();
        for scheme in ["Anomaly D&R", "DMR", "TMR"] {
            assert!(table.contains(scheme));
        }
    }
}
