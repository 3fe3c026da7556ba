//! The anomaly-detection-and-recovery node, attached to the pipeline as a
//! [`StageTap`] exactly like the paper's ROS detection node subscribes to
//! the inter-kernel topics.

use mavfi_ppc::perception::occupancy::OccupancyGrid;
use mavfi_ppc::states::{
    CollisionEstimate, MonitoredStates, PointCloud, Stage, StateField, Trajectory,
};
use mavfi_ppc::tap::{StageTap, TapAction};
use mavfi_sim::vehicle::FlightCommand;
use serde::{Deserialize, Serialize};

use crate::aad::{AadDetector, AadScratch};
use crate::gad::GadBank;
use crate::preprocess::magnitude_code;

/// Which detection technique the node runs.
#[derive(Debug, Clone, PartialEq)]
pub enum DetectionScheme {
    /// Gaussian-based detection: per-state range detectors, per-stage
    /// recomputation on alarm (§IV-C).
    Gaussian(GadBank),
    /// Autoencoder-based detection: one model over all states, corrupted
    /// states abandoned in favour of the last good value, control-stage
    /// recomputation on alarm (§IV-D).
    Autoencoder(AadDetector),
}

impl DetectionScheme {
    /// Short label used in reports ("Gaussian" / "Autoencoder").
    pub fn label(&self) -> &'static str {
        match self {
            Self::Gaussian(_) => "Gaussian",
            Self::Autoencoder(_) => "Autoencoder",
        }
    }
}

/// Counters describing the detector's activity during one mission.
///
/// Per-stage counters are fixed arrays indexed by [`Stage::index`] — no
/// hashing on the per-tick path, deterministic iteration order for free.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DetectorStats {
    /// Number of pipeline ticks observed.
    pub ticks: u64,
    alarms: [u64; Stage::COUNT],
    recomputations: [u64; Stage::COUNT],
    /// Corrupted states abandoned in place (restored to the last good
    /// value) without a recomputation request.
    pub abandonments: u64,
}

impl DetectorStats {
    fn count_alarm(&mut self, stage: Stage) {
        self.alarms[stage.index()] += 1;
    }

    fn count_recompute(&mut self, stage: Stage) {
        self.recomputations[stage.index()] += 1;
    }

    /// Alarms raised against states of `stage`.
    pub fn alarms_of(&self, stage: Stage) -> u64 {
        self.alarms[stage.index()]
    }

    /// Recomputations requested for `stage`.
    pub fn recomputations_of(&self, stage: Stage) -> u64 {
        self.recomputations[stage.index()]
    }

    /// Total alarms across stages.
    pub fn total_alarms(&self) -> u64 {
        self.alarms.iter().sum()
    }

    /// Total recomputation requests across stages.
    pub fn total_recomputations(&self) -> u64 {
        self.recomputations.iter().sum()
    }
}

/// The detection-and-recovery tap.
///
/// For the Gaussian scheme, an out-of-range state raises an alarm and
/// requests recomputation of the producing stage.  For the autoencoder
/// scheme, the reconstruction error of the 13-dimensional delta vector is
/// checked as each stage's states arrive; anomalous perception and planning
/// states are *abandoned* (replaced by the last good value, emulating the
/// paper's "the corrupted way-point will be abandoned"), and an anomaly at
/// the control stage requests the cheap control recomputation.
#[derive(Debug, Clone)]
pub struct DetectorTap {
    scheme: DetectionScheme,
    previous_codes: [Option<i16>; MonitoredStates::DIM],
    current: MonitoredStates,
    last_good: MonitoredStates,
    stats: DetectorStats,
    // Reusable buffers for the per-tick AAD score (no semantic state, so
    // excluded from the manual PartialEq below).
    scratch: AadScratch,
}

impl PartialEq for DetectorTap {
    fn eq(&self, other: &Self) -> bool {
        self.scheme == other.scheme
            && self.previous_codes == other.previous_codes
            && self.current == other.current
            && self.last_good == other.last_good
            && self.stats == other.stats
    }
}

impl DetectorTap {
    /// Creates a detector tap around a detection scheme.
    pub fn new(scheme: DetectionScheme) -> Self {
        Self {
            scheme,
            previous_codes: [None; MonitoredStates::DIM],
            current: MonitoredStates::default(),
            last_good: MonitoredStates::default(),
            stats: DetectorStats::default(),
            scratch: AadScratch::new(),
        }
    }

    /// The detection scheme in use.
    pub fn scheme(&self) -> &DetectionScheme {
        &self.scheme
    }

    /// Activity counters.
    pub fn stats(&self) -> &DetectorStats {
        &self.stats
    }

    fn squash(value: f64) -> f64 {
        if value.is_finite() {
            value
        } else {
            value.signum() * 1.0e6
        }
    }

    fn code_of(&self, field: StateField) -> i16 {
        magnitude_code(Self::squash(self.current.field(field)))
    }

    fn commit_fields(&mut self, stage: Stage) {
        for field in StateField::ALL {
            if field.stage() == stage {
                self.previous_codes[field.index()] = Some(self.code_of(field));
            }
        }
    }

    /// Returns `true` when every field of `stage` already has a baseline;
    /// alarms are suppressed until then so the very first observation of a
    /// stage cannot trip the detector.
    fn stage_has_baseline(&self, stage: Stage) -> bool {
        StateField::ALL
            .into_iter()
            .filter(|field| field.stage() == stage)
            .all(|field| self.previous_codes[field.index()].is_some())
    }

    /// Handles one stage's worth of freshly observed states.  Returns the
    /// tap action and whether the corrupted value should be abandoned.
    ///
    /// Runs every pipeline tick for every stage, so it is allocation-free:
    /// fields are iterated in place and the AAD score goes through the tap's
    /// reusable scratch buffers.
    fn evaluate_stage(&mut self, stage: Stage) -> (TapAction, bool) {
        let warmed = self.stage_has_baseline(stage);
        match &mut self.scheme {
            DetectionScheme::Gaussian(bank) => {
                let mut alarmed = false;
                for field in StateField::ALL {
                    if field.stage() != stage {
                        continue;
                    }
                    let delta = match self.previous_codes[field.index()] {
                        Some(previous) => {
                            f64::from(magnitude_code(Self::squash(self.current.field(field))))
                                - f64::from(previous)
                        }
                        None => 0.0,
                    };
                    if bank.observe_field(field, delta) && warmed {
                        alarmed = true;
                    }
                }
                if alarmed {
                    self.stats.count_alarm(stage);
                    self.stats.count_recompute(stage);
                    // Do not absorb the corrupted value into the baseline.
                    (TapAction::Recompute, false)
                } else {
                    self.commit_fields(stage);
                    (TapAction::Continue, false)
                }
            }
            DetectionScheme::Autoencoder(detector) => {
                let deltas = {
                    let previous = &self.previous_codes;
                    let current = &self.current;
                    std::array::from_fn(|i| {
                        let field = StateField::ALL[i];
                        match previous[field.index()] {
                            Some(previous) => {
                                f64::from(magnitude_code(Self::squash(current.field(field))))
                                    - f64::from(previous)
                            }
                            None => 0.0,
                        }
                    })
                };
                if detector.observe_with(&deltas, &mut self.scratch) && warmed {
                    self.stats.count_alarm(stage);
                    if stage == Stage::Control {
                        self.stats.count_recompute(Stage::Control);
                        (TapAction::Recompute, false)
                    } else {
                        self.stats.abandonments += 1;
                        (TapAction::Continue, true)
                    }
                } else {
                    self.commit_fields(stage);
                    (TapAction::Continue, false)
                }
            }
        }
    }
}

impl StageTap for DetectorTap {
    fn after_point_cloud(&mut self, _cloud: &mut PointCloud) {
        self.stats.ticks += 1;
    }

    fn after_occupancy(&mut self, _grid: &mut OccupancyGrid) {}

    fn after_perception(&mut self, estimate: &mut CollisionEstimate) -> TapAction {
        self.current.collision = *estimate;
        let (action, abandon) = self.evaluate_stage(Stage::Perception);
        if abandon {
            *estimate = self.last_good.collision;
            self.current.collision = self.last_good.collision;
        } else if action == TapAction::Continue {
            self.last_good.collision = *estimate;
        }
        action
    }

    fn after_planning(&mut self, trajectory: &mut Trajectory, active_index: usize) -> TapAction {
        if trajectory.is_empty() {
            return TapAction::Continue;
        }
        let index = active_index.min(trajectory.len() - 1);
        self.current.waypoint = trajectory.waypoints[index];
        let (action, abandon) = self.evaluate_stage(Stage::Planning);
        if abandon {
            trajectory.waypoints[index] = self.last_good.waypoint;
            self.current.waypoint = self.last_good.waypoint;
        } else if action == TapAction::Continue {
            self.last_good.waypoint = trajectory.waypoints[index];
        }
        action
    }

    fn after_control(&mut self, command: &mut FlightCommand) -> TapAction {
        self.current.command = *command;
        let (action, abandon) = self.evaluate_stage(Stage::Control);
        if abandon {
            *command = self.last_good.command;
            self.current.command = self.last_good.command;
        } else if action == TapAction::Continue {
            self.last_good.command = *command;
        }
        action
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aad::AadConfig;
    use crate::gad::CgadConfig;
    use crate::training::TelemetrySet;
    use mavfi_nn::train::TrainConfig;
    use mavfi_ppc::states::Waypoint;
    use mavfi_sim::geometry::Vec3;

    fn smooth_states(step: usize) -> MonitoredStates {
        let t = step as f64 * 0.1;
        let mut states = MonitoredStates::default();
        states.set_field(StateField::TimeToCollision, 4.0 + (t * 0.1).sin());
        states.set_field(StateField::WaypointX, 5.0 + 2.0 * t);
        states.set_field(StateField::WaypointY, -3.0 + 1.5 * t);
        states.set_field(StateField::WaypointZ, 2.5);
        states.set_field(StateField::WaypointVx, 2.0);
        states.set_field(StateField::WaypointVy, 1.5);
        states.set_field(StateField::CommandVx, 2.0 + 0.3 * (t * 0.5).sin());
        states.set_field(StateField::CommandVy, 1.5 + 0.3 * (t * 0.5).cos());
        states.set_field(StateField::CommandYawRate, 0.1 * (t * 0.2).sin());
        states
    }

    fn telemetry() -> TelemetrySet {
        let mut set = TelemetrySet::new();
        for step in 0..600 {
            set.record(&smooth_states(step));
        }
        set
    }

    fn drive_normal_tick(tap: &mut DetectorTap, step: usize) -> TapAction {
        let states = smooth_states(step);
        tap.after_point_cloud(&mut PointCloud::default());
        let mut estimate = states.collision;
        let a = tap.after_perception(&mut estimate);
        let mut trajectory = Trajectory::new(vec![states.waypoint]);
        let b = tap.after_planning(&mut trajectory, 0);
        let mut command = states.command;
        let c = tap.after_control(&mut command);
        a.merge(b).merge(c)
    }

    #[test]
    fn gaussian_detector_flags_corrupted_waypoint_and_requests_planning_recompute() {
        let bank = telemetry().build_gad(CgadConfig::default());
        let mut tap = DetectorTap::new(DetectionScheme::Gaussian(bank));
        for step in 0..50 {
            assert_eq!(drive_normal_tick(&mut tap, step), TapAction::Continue, "step {step}");
        }
        // Corrupt the way-point X as an exponent flip would.
        let mut trajectory = Trajectory::new(vec![Waypoint {
            position: Vec3::new(4.0e155, -3.0 + 1.5 * 5.0, 2.5),
            ..Waypoint::default()
        }]);
        tap.after_point_cloud(&mut PointCloud::default());
        let mut estimate = smooth_states(51).collision;
        tap.after_perception(&mut estimate);
        let action = tap.after_planning(&mut trajectory, 0);
        assert_eq!(action, TapAction::Recompute);
        assert_eq!(tap.stats().recomputations_of(Stage::Planning), 1);
        assert_eq!(tap.scheme().label(), "Gaussian");
    }

    #[test]
    fn autoencoder_detector_abandons_corrupted_waypoint_without_replanning() {
        let (aad, _) = telemetry()
            .train_aad(AadConfig::default(), &TrainConfig { epochs: 15, ..TrainConfig::default() });
        let mut tap = DetectorTap::new(DetectionScheme::Autoencoder(aad));
        let mut false_alarms = 0;
        for step in 0..50 {
            if drive_normal_tick(&mut tap, step) != TapAction::Continue {
                false_alarms += 1;
            }
        }
        assert!(false_alarms <= 2, "autoencoder raised {false_alarms} false alarms on clean data");

        let good_waypoint = tap.last_good.waypoint;
        let mut trajectory = Trajectory::new(vec![Waypoint {
            position: Vec3::new(4.0e155, good_waypoint.position.y, 2.5),
            velocity: good_waypoint.velocity,
            yaw: good_waypoint.yaw,
        }]);
        tap.after_point_cloud(&mut PointCloud::default());
        let mut estimate = smooth_states(51).collision;
        tap.after_perception(&mut estimate);
        let action = tap.after_planning(&mut trajectory, 0);
        // The corrupted way-point is replaced by the last good one and no
        // planning recomputation is requested.
        assert_eq!(action, TapAction::Continue);
        assert_eq!(trajectory.waypoints[0], good_waypoint);
        assert!(tap.stats().abandonments >= 1);
        assert_eq!(tap.stats().recomputations_of(Stage::Planning), 0);
    }

    #[test]
    fn autoencoder_detector_requests_control_recompute_for_corrupted_command() {
        let (aad, _) = telemetry()
            .train_aad(AadConfig::default(), &TrainConfig { epochs: 15, ..TrainConfig::default() });
        let mut tap = DetectorTap::new(DetectionScheme::Autoencoder(aad));
        for step in 0..50 {
            drive_normal_tick(&mut tap, step);
        }
        tap.after_point_cloud(&mut PointCloud::default());
        let mut estimate = smooth_states(51).collision;
        tap.after_perception(&mut estimate);
        let mut trajectory = Trajectory::new(vec![smooth_states(51).waypoint]);
        tap.after_planning(&mut trajectory, 0);
        let mut command = smooth_states(51).command;
        command.velocity.x = -3.0e200;
        let action = tap.after_control(&mut command);
        assert_eq!(action, TapAction::Recompute);
        assert_eq!(tap.stats().recomputations_of(Stage::Control), 1);
        assert!(tap.stats().total_alarms() >= 1);
    }

    #[test]
    fn clean_stream_keeps_stats_quiet() {
        let bank = telemetry().build_gad(CgadConfig::default());
        let mut tap = DetectorTap::new(DetectionScheme::Gaussian(bank));
        for step in 0..100 {
            drive_normal_tick(&mut tap, step);
        }
        assert_eq!(tap.stats().total_recomputations(), 0);
        assert_eq!(tap.stats().total_alarms(), 0);
        assert_eq!(tap.stats().ticks, 100);
    }
}
