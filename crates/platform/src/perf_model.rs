//! The cyber-physical visual performance model (after Krishnan et al., "The
//! Sky Is Not the Limit") used by the paper's Fig. 8 to compare DMR/TMR
//! against software anomaly detection.
//!
//! The chain of effects: more compute (redundant boards) means more power
//! and more mass, which lowers the safe maximum velocity reachable within
//! the sensing horizon and raises hover power — so flight time and mission
//! energy both inflate.

use crate::redundancy::ProtectionScheme;
use crate::spec::ComputePlatform;
use crate::uav::UavSpec;

/// Scenario-level parameters of the performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioParams {
    /// Mission length (m).
    pub mission_distance_m: f64,
    /// Sensing range of the depth sensor (m).
    pub sensing_range_m: f64,
    /// Fraction of the theoretical maximum velocity actually sustained over
    /// a mission (accounts for turns, accelerations, re-planning pauses).
    pub velocity_utilisation: f64,
    /// Nominal end-to-end pipeline latency on the i9 baseline (ms).
    pub baseline_response_ms: f64,
    /// Maximum distance the vehicle may travel per pipeline response before
    /// it would outrun its own decision rate (m).  This throughput cap is
    /// what makes slow embedded platforms fly much slower end-to-end, as in
    /// the paper's Fig. 9.
    pub max_travel_per_response_m: f64,
}

impl Default for ScenarioParams {
    fn default() -> Self {
        Self {
            mission_distance_m: 600.0,
            sensing_range_m: 20.0,
            velocity_utilisation: 0.7,
            baseline_response_ms: 400.0,
            max_travel_per_response_m: 4.0,
        }
    }
}

/// Output of the performance model for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEstimate {
    /// Safe maximum velocity (m/s).
    pub max_velocity: f64,
    /// Expected mission flight time (s).
    pub flight_time_s: f64,
    /// Expected mission energy (J).
    pub energy_j: f64,
    /// Total electrical power during cruise (W).
    pub cruise_power_w: f64,
    /// Total take-off mass (kg).
    pub total_mass_kg: f64,
}

/// The visual performance model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VisualPerformanceModel {
    /// Scenario parameters shared by every evaluated configuration.
    pub scenario: ScenarioParams,
}

impl VisualPerformanceModel {
    /// Creates a model for a scenario.
    pub fn new(scenario: ScenarioParams) -> Self {
        Self { scenario }
    }

    /// Safe maximum velocity given the airframe and the end-to-end response
    /// time: the vehicle must be able to come to a stop within the part of
    /// the sensing range that remains after it has travelled blindly for one
    /// response time — `v·t_r + v²/(2a) <= d_sense`.
    pub fn max_safe_velocity(&self, uav: &UavSpec, response_time_s: f64) -> f64 {
        let a = uav.max_acceleration;
        let d = self.scenario.sensing_range_m;
        let t = response_time_s;
        // Solve v²/(2a) + v t = d for the positive root.
        let discriminant = (a * t) * (a * t) + 2.0 * a * d;
        let v = -a * t + discriminant.sqrt();
        // Throughput cap: the vehicle must not travel further than one
        // planning "step" per end-to-end response, or it outruns its own
        // decisions.
        let throughput_cap = self.scenario.max_travel_per_response_m / t.max(1e-3);
        v.min(uav.max_velocity).min(throughput_cap).max(0.1)
    }

    /// Evaluates one (airframe, platform, protection) configuration.
    pub fn evaluate(
        &self,
        uav: &UavSpec,
        platform: &ComputePlatform,
        scheme: ProtectionScheme,
    ) -> FlightEstimate {
        let response_time_s = platform.response_time_ms(self.scenario.baseline_response_ms)
            / 1000.0
            * (1.0 + scheme.compute_time_overhead());
        let max_velocity = self.max_safe_velocity(uav, response_time_s);
        let cruise_velocity = max_velocity * self.scenario.velocity_utilisation;
        let flight_time_s = self.scenario.mission_distance_m / cruise_velocity;

        let total_mass_kg =
            uav.base_mass_kg + uav.compute_board_mass_kg * f64::from(scheme.board_count() - 1);
        let hover_power = uav.hover_power_at_mass(total_mass_kg);
        let drag_power = uav.drag_power_coeff * cruise_velocity * cruise_velocity;
        let compute_power = platform.power_watts * scheme.compute_power_multiplier();
        let cruise_power_w = hover_power + drag_power + compute_power;
        let energy_j = cruise_power_w * flight_time_s;

        FlightEstimate { max_velocity, flight_time_s, energy_j, cruise_power_w, total_mass_kg }
    }

    /// Evaluates every Fig. 8 protection scheme for one airframe/platform
    /// pair, in plot order.
    pub fn fig8_series(
        &self,
        uav: &UavSpec,
        platform: &ComputePlatform,
    ) -> Vec<(ProtectionScheme, FlightEstimate)> {
        ProtectionScheme::FIG8_SCHEMES
            .into_iter()
            .map(|scheme| (scheme, self.evaluate(uav, platform, scheme)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> VisualPerformanceModel {
        VisualPerformanceModel::default()
    }

    #[test]
    fn slower_response_lowers_safe_velocity() {
        let uav = UavSpec::airsim_uav();
        let fast = model().max_safe_velocity(&uav, 0.1);
        let slow = model().max_safe_velocity(&uav, 1.5);
        assert!(fast > slow);
        assert!(fast <= uav.max_velocity);
        assert!(slow > 0.0);
    }

    #[test]
    fn redundancy_increases_flight_time_and_energy() {
        let m = model();
        for uav in UavSpec::paper_uavs() {
            let platform = ComputePlatform::cortex_a57();
            let anomaly = m.evaluate(&uav, &platform, ProtectionScheme::AnomalyDetection);
            let dmr = m.evaluate(&uav, &platform, ProtectionScheme::Dmr);
            let tmr = m.evaluate(&uav, &platform, ProtectionScheme::Tmr);
            assert!(dmr.flight_time_s > anomaly.flight_time_s, "{}", uav.name);
            assert!(tmr.flight_time_s > dmr.flight_time_s, "{}", uav.name);
            assert!(tmr.energy_j > anomaly.energy_j, "{}", uav.name);
            assert!(tmr.total_mass_kg > anomaly.total_mass_kg);
        }
    }

    #[test]
    fn redundancy_penalty_is_larger_for_the_smaller_airframe() {
        // Fig. 8: the flight-time inflation of TMR vs anomaly detection is
        // much larger on the DJI Spark (1.91x) than on the AirSim UAV
        // (1.06x), because the redundant boards are a larger fraction of the
        // small airframe's mass and power budget.
        let m = model();
        let platform = ComputePlatform::cortex_a57();
        let ratio = |uav: &UavSpec| {
            let anomaly = m.evaluate(uav, &platform, ProtectionScheme::AnomalyDetection);
            let tmr = m.evaluate(uav, &platform, ProtectionScheme::Tmr);
            tmr.energy_j / anomaly.energy_j
        };
        let airsim_ratio = ratio(&UavSpec::airsim_uav());
        let spark_ratio = ratio(&UavSpec::dji_spark());
        assert!(
            spark_ratio > airsim_ratio,
            "Spark penalty ({spark_ratio:.2}x) should exceed AirSim penalty ({airsim_ratio:.2}x)"
        );
    }

    #[test]
    fn fig8_series_covers_all_schemes() {
        let series = model().fig8_series(&UavSpec::dji_spark(), &ComputePlatform::cortex_a57());
        assert_eq!(series.len(), 3);
        assert_eq!(series[0].0, ProtectionScheme::AnomalyDetection);
    }

    #[test]
    fn embedded_platform_flies_longer_than_desktop_platform() {
        // Fig. 9: the TX2-class platform responds more slowly, so the same
        // mission takes substantially longer than with the i9.
        let m = model();
        let uav = UavSpec::airsim_uav();
        let i9 = m.evaluate(&uav, &ComputePlatform::i9_9940x(), ProtectionScheme::AnomalyDetection);
        let a57 =
            m.evaluate(&uav, &ComputePlatform::cortex_a57(), ProtectionScheme::AnomalyDetection);
        assert!(a57.flight_time_s > i9.flight_time_s * 1.5);
    }
}
