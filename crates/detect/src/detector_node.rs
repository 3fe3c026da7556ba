//! The anomaly-detection-and-recovery node, attached to the pipeline as a
//! [`StageTap`] exactly like the paper's ROS detection node subscribes to
//! the inter-kernel topics.

use mavfi_ppc::perception::occupancy::OccupancyGrid;
use mavfi_ppc::states::{
    CollisionEstimate, MonitoredStates, PointCloud, Stage, StateField, Trajectory,
};
use mavfi_ppc::tap::{StageTap, TapAction};
use mavfi_sim::vehicle::FlightCommand;

use crate::aad::{AadDetector, AadScratch};
use crate::gad::GadBank;
use crate::preprocess::magnitude_code;

/// Which detection technique the node runs.
#[derive(Debug, PartialEq)]
pub enum DetectionScheme {
    /// Gaussian-based detection: per-state range detectors, per-stage
    /// recomputation on alarm (§IV-C).
    Gaussian(GadBank),
    /// Autoencoder-based detection: one model over all states, corrupted
    /// states abandoned in favour of the last good value, control-stage
    /// recomputation on alarm (§IV-D).
    Autoencoder(AadDetector),
}

/// `clone_from` reuses the target's storage when both sides run the same
/// technique, so refreshing a flight checkpoint allocates nothing.
impl Clone for DetectionScheme {
    fn clone(&self) -> Self {
        match self {
            Self::Gaussian(bank) => Self::Gaussian(bank.clone()),
            Self::Autoencoder(detector) => Self::Autoencoder(detector.clone()),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Self::Gaussian(to), Self::Gaussian(from)) => to.clone_from(from),
            (Self::Autoencoder(to), Self::Autoencoder(from)) => to.clone_from(from),
            (to, from) => *to = from.clone(),
        }
    }
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
#[derive(Debug, Clone, Default, PartialEq)]
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
#[derive(Debug)]
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

/// A clone starts with fresh scoring scratch; `clone_from` keeps the
/// target's, and reuses its storage everywhere else too.
impl Clone for DetectorTap {
    fn clone(&self) -> Self {
        Self {
            scheme: self.scheme.clone(),
            stats: self.stats.clone(),
            scratch: AadScratch::new(),
            ..*self
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.scheme.clone_from(&source.scheme);
        self.previous_codes = source.previous_codes;
        self.current = source.current;
        self.last_good = source.last_good;
        self.stats.clone_from(&source.stats);
    }
}

/// One stage's detection decision, taken before anything is committed.
#[derive(Debug, Clone, Copy)]
struct Verdict {
    /// Preprocessed deltas against the previous codes (Gaussian scheme: the
    /// stage's fields only).
    deltas: [f64; MonitoredStates::DIM],
    /// Gaussian scheme: which of the stage's fields are outliers.
    outliers: [bool; MonitoredStates::DIM],
    /// Autoencoder scheme: the reconstruction error of `deltas`.
    score: f64,
    /// Whether the tap acts — requests a recomputation or abandons the
    /// value: an alarm once the stage has a baseline.
    acts: bool,
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

    fn delta_of(&self, current: &MonitoredStates, field: StateField) -> f64 {
        match self.previous_codes[field.index()] {
            Some(previous) => {
                f64::from(magnitude_code(Self::squash(current.field(field)))) - f64::from(previous)
            }
            None => 0.0,
        }
    }

    /// Decides what the tap does with `stage`'s states in `current` without
    /// committing anything: only the AAD scoring scratch is written.
    ///
    /// Runs every pipeline tick for every stage, so it is allocation-free:
    /// fields are iterated in place and the AAD score goes through the tap's
    /// reusable scratch buffers.
    fn verdict(&mut self, stage: Stage, current: &MonitoredStates) -> Verdict {
        let warmed = self.stage_has_baseline(stage);
        let mut verdict = Verdict {
            deltas: [0.0; MonitoredStates::DIM],
            outliers: [false; MonitoredStates::DIM],
            score: 0.0,
            acts: false,
        };
        match &self.scheme {
            DetectionScheme::Gaussian(bank) => {
                for field in StateField::ALL {
                    if field.stage() == stage {
                        let delta = self.delta_of(current, field);
                        verdict.deltas[field.index()] = delta;
                        verdict.outliers[field.index()] = bank.is_outlier(field, delta);
                    }
                }
                verdict.acts = warmed && verdict.outliers.contains(&true);
            }
            DetectionScheme::Autoencoder(detector) => {
                verdict.deltas =
                    std::array::from_fn(|i| self.delta_of(current, StateField::ALL[i]));
                verdict.score = detector.score_with(&verdict.deltas, &mut self.scratch);
                verdict.acts = warmed && verdict.score > detector.threshold();
            }
        }
        verdict
    }

    /// Commits a [`Verdict`] on `stage`'s states, which `self.current`
    /// already holds.  Returns the tap action and whether the corrupted
    /// value should be abandoned.
    fn commit(&mut self, stage: Stage, verdict: &Verdict) -> (TapAction, bool) {
        match &mut self.scheme {
            DetectionScheme::Gaussian(bank) => {
                for field in StateField::ALL {
                    if field.stage() == stage {
                        let index = field.index();
                        bank.record_field(field, verdict.deltas[index], verdict.outliers[index]);
                    }
                }
                if verdict.acts {
                    self.stats.count_alarm(stage);
                    self.stats.count_recompute(stage);
                    // Do not absorb the corrupted value into the baseline.
                    return (TapAction::Recompute, false);
                }
            }
            DetectionScheme::Autoencoder(detector) => {
                detector.record_score(verdict.score);
                if verdict.acts {
                    self.stats.count_alarm(stage);
                    if stage == Stage::Control {
                        self.stats.count_recompute(Stage::Control);
                        return (TapAction::Recompute, false);
                    }
                    self.stats.abandonments += 1;
                    return (TapAction::Continue, true);
                }
            }
        }
        self.commit_fields(stage);
        (TapAction::Continue, false)
    }

    /// Handles one stage's worth of freshly observed states (already in
    /// `self.current`).  Returns the tap action and whether the corrupted
    /// value should be abandoned.
    fn evaluate_stage(&mut self, stage: Stage) -> (TapAction, bool) {
        let current = self.current;
        let verdict = self.verdict(stage, &current);
        self.commit(stage, &verdict)
    }

    /// The shadow form of a stage hook: `current` is the tap's states with
    /// `stage`'s fresh values.  Returns `true`, committing nothing, when the
    /// live tap would act on them; otherwise commits exactly what the live
    /// tap commits when it lets a value through, and returns `false`.
    fn shadow_stage(&mut self, stage: Stage, current: MonitoredStates) -> bool {
        let verdict = self.verdict(stage, &current);
        if verdict.acts {
            return true;
        }
        self.current = current;
        self.commit(stage, &verdict);
        match stage {
            Stage::Perception => self.last_good.collision = current.collision,
            Stage::Planning => self.last_good.waypoint = current.waypoint,
            Stage::Control => self.last_good.command = current.command,
        }
        false
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

/// A detector riding a flight it does not protect.
///
/// The shadow observes every stage output exactly as its live
/// [`DetectorTap`] would — placed after the fault injector, it sees the same
/// post-injection values — but it never writes one and always returns
/// [`TapAction::Continue`].  While the live tap would let every value
/// through, the two taps take identical states and statistics, so the flight
/// is also exactly the one the live tap would protect.  At the first output
/// the live tap would act on (request a recomputation or abandon the value)
/// the shadow *trips*: it commits nothing for that output and stops
/// observing.  From that tick on the protected flight differs, and must be
/// flown from a copy taken before the tick with the tap made live
/// ([`ShadowDetector::into_live`]).
#[derive(Debug)]
pub struct ShadowDetector {
    tap: DetectorTap,
    tripped: bool,
}

/// `clone_from` reuses the target's storage (see [`DetectorTap`]).
impl Clone for ShadowDetector {
    fn clone(&self) -> Self {
        Self { tap: self.tap.clone(), tripped: self.tripped }
    }

    fn clone_from(&mut self, source: &Self) {
        self.tap.clone_from(&source.tap);
        self.tripped = source.tripped;
    }
}

impl ShadowDetector {
    /// Rides `tap` as a shadow.
    pub fn new(tap: DetectorTap) -> Self {
        Self { tap, tripped: false }
    }

    /// Whether the live tap would have acted on an output seen so far.
    pub fn is_tripped(&self) -> bool {
        self.tripped
    }

    /// The shadowed tap: its state after the last output it let through.
    pub fn tap(&self) -> &DetectorTap {
        &self.tap
    }

    /// The shadowed tap, to be made live.
    pub fn into_live(self) -> DetectorTap {
        self.tap
    }
}

impl StageTap for ShadowDetector {
    fn after_point_cloud(&mut self, _cloud: &mut PointCloud) {
        if !self.tripped {
            self.tap.stats.ticks += 1;
        }
    }

    fn after_perception(&mut self, estimate: &mut CollisionEstimate) -> TapAction {
        if !self.tripped {
            let current = MonitoredStates { collision: *estimate, ..self.tap.current };
            self.tripped = self.tap.shadow_stage(Stage::Perception, current);
        }
        TapAction::Continue
    }

    fn after_planning(&mut self, trajectory: &mut Trajectory, active_index: usize) -> TapAction {
        if !self.tripped && !trajectory.is_empty() {
            let waypoint = trajectory.waypoints[active_index.min(trajectory.len() - 1)];
            let current = MonitoredStates { waypoint, ..self.tap.current };
            self.tripped = self.tap.shadow_stage(Stage::Planning, current);
        }
        TapAction::Continue
    }

    fn after_control(&mut self, command: &mut FlightCommand) -> TapAction {
        if !self.tripped {
            let current = MonitoredStates { command: *command, ..self.tap.current };
            self.tripped = self.tap.shadow_stage(Stage::Control, current);
        }
        TapAction::Continue
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

    /// One synthetic tick's stage outputs: estimate, trajectory, command.
    type TickOutputs = (CollisionEstimate, Trajectory, FlightCommand);

    fn normal_outputs(step: usize) -> TickOutputs {
        let states = smooth_states(step);
        (states.collision, Trajectory::new(vec![states.waypoint]), states.command)
    }

    /// Drives the live tap through one tick; returns whether it acted —
    /// requested a recomputation or abandoned a value.
    fn live_tick(tap: &mut DetectorTap, outputs: &TickOutputs) -> bool {
        let (mut estimate, mut trajectory, mut command) = outputs.clone();
        let abandonments = tap.stats().abandonments;
        tap.after_point_cloud(&mut PointCloud::default());
        let action = tap
            .after_perception(&mut estimate)
            .merge(tap.after_planning(&mut trajectory, 0))
            .merge(tap.after_control(&mut command));
        action == TapAction::Recompute || tap.stats().abandonments > abandonments
    }

    /// Flies a live tap and a shadow of it over `ticks` in lockstep.  The
    /// shadow must never write a value or request anything, must hold the
    /// live tap's exact state while the live tap lets everything through,
    /// and must trip on exactly the tick the live tap first acts.  Returns
    /// that tick.
    fn shadow_trips_with_live_tap(scheme: DetectionScheme, ticks: &[TickOutputs]) -> usize {
        let mut live = DetectorTap::new(scheme.clone());
        let mut shadow = ShadowDetector::new(DetectorTap::new(scheme));
        for (index, outputs) in ticks.iter().enumerate() {
            let (mut estimate, mut trajectory, mut command) = outputs.clone();
            shadow.after_point_cloud(&mut PointCloud::default());
            assert_eq!(shadow.after_perception(&mut estimate), TapAction::Continue);
            assert_eq!(shadow.after_planning(&mut trajectory, 0), TapAction::Continue);
            assert_eq!(shadow.after_control(&mut command), TapAction::Continue);
            assert_eq!((estimate, trajectory, command), *outputs, "tick {index}: shadow wrote");

            let acted = live_tick(&mut live, outputs);
            assert_eq!(shadow.is_tripped(), acted, "tick {index}");
            if acted {
                return index;
            }
            assert_eq!(shadow.tap(), &live, "tick {index}: shadow state diverged");
        }
        panic!("the live tap never acted");
    }

    fn trained_aad() -> AadDetector {
        telemetry()
            .train_aad(AadConfig::default(), &TrainConfig { epochs: 15, ..TrainConfig::default() })
            .0
    }

    #[test]
    fn shadow_trips_on_the_gaussian_planning_recompute() {
        let bank = telemetry().build_gad(CgadConfig::default());
        let mut ticks: Vec<TickOutputs> = (0..51).map(normal_outputs).collect();
        ticks[50].1.waypoints[0].position.x = 4.0e155;
        assert_eq!(shadow_trips_with_live_tap(DetectionScheme::Gaussian(bank), &ticks), 50);
    }

    #[test]
    fn shadow_trips_on_the_autoencoder_abandonment() {
        let aad = trained_aad();
        let mut ticks: Vec<TickOutputs> = (0..51).map(normal_outputs).collect();
        ticks[50].1.waypoints[0].position.x = 4.0e155;
        let tick = shadow_trips_with_live_tap(DetectionScheme::Autoencoder(aad.clone()), &ticks);
        assert_eq!(tick, 50);
        // The live tap acted by abandoning the way-point, not by replanning.
        let mut live = DetectorTap::new(DetectionScheme::Autoencoder(aad));
        for outputs in &ticks {
            live_tick(&mut live, outputs);
        }
        assert_eq!(live.stats().abandonments, 1);
        assert_eq!(live.stats().total_recomputations(), 0);
    }

    #[test]
    fn shadow_trips_on_the_autoencoder_control_recompute() {
        let aad = trained_aad();
        let mut ticks: Vec<TickOutputs> = (0..51).map(normal_outputs).collect();
        ticks[50].2.velocity.x = -3.0e200;
        let tick = shadow_trips_with_live_tap(DetectionScheme::Autoencoder(aad.clone()), &ticks);
        assert_eq!(tick, 50);
        let mut live = DetectorTap::new(DetectionScheme::Autoencoder(aad));
        for outputs in &ticks {
            live_tick(&mut live, outputs);
        }
        assert_eq!(live.stats().recomputations_of(Stage::Control), 1);
    }

    #[test]
    fn clone_from_reproduces_the_tap() {
        let bank = telemetry().build_gad(CgadConfig::default());
        let mut gaussian = DetectorTap::new(DetectionScheme::Gaussian(bank));
        let mut autoencoder = DetectorTap::new(DetectionScheme::Autoencoder(trained_aad()));
        for step in 0..30 {
            drive_normal_tick(&mut gaussian, step);
            drive_normal_tick(&mut autoencoder, step);
        }
        let mut copy = gaussian.clone();
        assert_eq!(copy, gaussian);
        // Across schemes and within one.
        copy.clone_from(&autoencoder);
        assert_eq!(copy, autoencoder);
        drive_normal_tick(&mut autoencoder, 30);
        copy.clone_from(&autoencoder);
        assert_eq!(copy, autoencoder);
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
