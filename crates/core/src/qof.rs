//! Quality-of-flight (QoF) metrics: the system-level yardstick MAVFI uses
//! to measure fault impact (flight time, success rate, mission energy).

use mavfi_sim::world::MissionStatus;
use serde::{Deserialize, Serialize};

/// QoF metrics of a single mission run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QofMetrics {
    /// Terminal mission status.
    pub status: MissionStatus,
    /// Flight time until the terminal status (s).
    pub flight_time_s: f64,
    /// Mission energy (J).
    pub energy_j: f64,
    /// Total distance flown (m).
    pub distance_m: f64,
}

impl QofMetrics {
    /// Returns `true` when the mission reached its goal.
    pub fn is_success(&self) -> bool {
        self.status.is_success()
    }
}

/// Aggregate QoF statistics over a set of runs (one experiment setting).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QofSummary {
    /// Number of runs aggregated.
    pub runs: usize,
    /// Fraction of runs that reached the goal.
    pub success_rate: f64,
    /// Mean flight time of successful runs (s).
    pub mean_flight_time_s: f64,
    /// Worst-case (maximum) flight time of successful runs (s).
    pub max_flight_time_s: f64,
    /// Minimum flight time of successful runs (s).
    pub min_flight_time_s: f64,
    /// Mean mission energy of successful runs (J).
    pub mean_energy_j: f64,
    /// Maximum mission energy of successful runs (J).
    pub max_energy_j: f64,
}

impl QofSummary {
    /// Aggregates a slice of per-run metrics.  Flight-time and energy
    /// statistics follow the paper's convention of considering successful
    /// runs only (Fig. 6 plots "flight time of all successful cases").
    pub fn from_runs(runs: &[QofMetrics]) -> Self {
        let total = runs.len();
        let successes: Vec<&QofMetrics> = runs.iter().filter(|run| run.is_success()).collect();
        let success_rate = if total == 0 { 0.0 } else { successes.len() as f64 / total as f64 };
        let mean = |extract: fn(&QofMetrics) -> f64| {
            if successes.is_empty() {
                0.0
            } else {
                successes.iter().map(|run| extract(run)).sum::<f64>() / successes.len() as f64
            }
        };
        let fold = |extract: fn(&QofMetrics) -> f64, init: f64, pick: fn(f64, f64) -> f64| {
            successes.iter().map(|run| extract(run)).fold(init, pick)
        };
        Self {
            runs: total,
            success_rate,
            mean_flight_time_s: mean(|run| run.flight_time_s),
            max_flight_time_s: if successes.is_empty() {
                0.0
            } else {
                fold(|run| run.flight_time_s, f64::MIN, f64::max)
            },
            min_flight_time_s: if successes.is_empty() {
                0.0
            } else {
                fold(|run| run.flight_time_s, f64::MAX, f64::min)
            },
            mean_energy_j: mean(|run| run.energy_j),
            max_energy_j: if successes.is_empty() {
                0.0
            } else {
                fold(|run| run.energy_j, f64::MIN, f64::max)
            },
        }
    }

    /// Worst-case flight-time inflation of this summary relative to a
    /// baseline (golden) summary, as a fraction (0.25 = 25 % longer).
    pub fn worst_case_inflation_vs(&self, golden: &Self) -> f64 {
        if golden.max_flight_time_s <= 0.0 {
            0.0
        } else {
            (self.max_flight_time_s - golden.max_flight_time_s) / golden.max_flight_time_s
        }
    }

    /// Fraction of the worst-case flight-time degradation (relative to
    /// `golden`) that `self` recovers compared to the unprotected
    /// `injected` summary — the paper's "worst-case flight time recovered by
    /// X %" metric.
    pub fn recovery_vs(&self, golden: &Self, injected: &Self) -> f64 {
        let degraded = injected.max_flight_time_s - golden.max_flight_time_s;
        if degraded <= 0.0 {
            return if self.max_flight_time_s <= injected.max_flight_time_s { 1.0 } else { 0.0 };
        }
        ((injected.max_flight_time_s - self.max_flight_time_s) / degraded).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(status: MissionStatus, time: f64, energy: f64) -> QofMetrics {
        QofMetrics { status, flight_time_s: time, energy_j: energy, distance_m: time * 3.0 }
    }

    #[test]
    fn summary_aggregates_successful_runs_only() {
        let runs = vec![
            metric(MissionStatus::Succeeded, 100.0, 5_000.0),
            metric(MissionStatus::Succeeded, 140.0, 7_000.0),
            metric(MissionStatus::Collided, 20.0, 900.0),
            metric(MissionStatus::TimedOut, 400.0, 20_000.0),
        ];
        let summary = QofSummary::from_runs(&runs);
        assert_eq!(summary.runs, 4);
        assert!((summary.success_rate - 0.5).abs() < 1e-12);
        assert!((summary.mean_flight_time_s - 120.0).abs() < 1e-12);
        assert_eq!(summary.max_flight_time_s, 140.0);
        assert_eq!(summary.min_flight_time_s, 100.0);
        assert_eq!(summary.max_energy_j, 7_000.0);
    }

    #[test]
    fn empty_and_all_failed_sets_are_well_defined() {
        let empty = QofSummary::from_runs(&[]);
        assert_eq!(empty.runs, 0);
        assert_eq!(empty.success_rate, 0.0);
        let failed = QofSummary::from_runs(&[metric(MissionStatus::Collided, 10.0, 100.0)]);
        assert_eq!(failed.success_rate, 0.0);
        assert_eq!(failed.max_flight_time_s, 0.0);
    }

    #[test]
    fn inflation_and_recovery_metrics() {
        let golden = QofSummary::from_runs(&[metric(MissionStatus::Succeeded, 100.0, 1_000.0)]);
        let injected = QofSummary::from_runs(&[metric(MissionStatus::Succeeded, 180.0, 2_000.0)]);
        let recovered = QofSummary::from_runs(&[metric(MissionStatus::Succeeded, 120.0, 1_200.0)]);
        assert!((injected.worst_case_inflation_vs(&golden) - 0.8).abs() < 1e-12);
        assert!((recovered.recovery_vs(&golden, &injected) - 0.75).abs() < 1e-12);
        // Fully recovered or better clamps to 1.
        assert_eq!(golden.recovery_vs(&golden, &injected), 1.0);
    }
}
