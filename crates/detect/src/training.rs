//! Collection of error-free telemetry and detector training (paper §V,
//! "Training Environments").

use mavfi_nn::train::{TrainConfig, TrainReport};
use mavfi_ppc::states::MonitoredStates;

use crate::aad::{AadConfig, AadDetector};
use crate::gad::{CgadConfig, GadBank};
use crate::preprocess::Preprocessor;

/// A set of preprocessed error-free telemetry samples collected from golden
/// runs in randomized training environments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySet {
    preprocessor: Preprocessor,
    samples: Vec<[f64; MonitoredStates::DIM]>,
}

impl TelemetrySet {
    /// Creates an empty telemetry set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one monitored-state snapshot, preprocessing it relative to
    /// the previous one.
    pub fn record(&mut self, states: &MonitoredStates) {
        let deltas = self.preprocessor.process(states);
        self.samples.push(deltas);
    }

    /// Marks a mission boundary: the next recorded snapshot starts a fresh
    /// delta baseline, so the jump between missions does not pollute the
    /// training data.
    pub fn end_mission(&mut self) {
        self.preprocessor.reset();
    }

    /// The collected preprocessed samples.
    pub fn samples(&self) -> &[[f64; MonitoredStates::DIM]] {
        &self.samples
    }

    /// Number of collected samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples have been collected.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Appends the samples of another telemetry set.
    pub fn merge(&mut self, other: TelemetrySet) {
        self.samples.extend(other.samples);
    }

    /// Trains an autoencoder detector on this telemetry.
    ///
    /// # Panics
    ///
    /// Panics if the set is empty.
    pub fn train_aad(
        &self,
        config: AadConfig,
        train_config: &TrainConfig,
    ) -> (AadDetector, TrainReport) {
        AadDetector::train(&self.samples, config, train_config)
    }

    /// Builds a Gaussian detector bank primed with this telemetry.
    pub fn build_gad(&self, config: CgadConfig) -> GadBank {
        let mut bank = GadBank::new(config);
        bank.prime(&self.samples);
        bank
    }
}

/// A stable 64-bit fingerprint of a detector-training configuration, used to
/// key caches of trained detector banks.
///
/// Training is fully deterministic given its configuration (environment
/// kind, mission count, seeds, time budget, epochs), so two configurations
/// with the same fingerprint produce identical detectors and can share one
/// trained bank.  The fingerprint is an FNV-1a hash fed field by field; it
/// is stable across runs and platforms, unlike `std`'s `DefaultHasher`.
///
/// # Examples
///
/// ```
/// use mavfi_detect::training::TrainingFingerprint;
///
/// let a = TrainingFingerprint::new().push_str("Randomized").push(4).push_f64(60.0).finish();
/// let b = TrainingFingerprint::new().push_str("Randomized").push(4).push_f64(60.0).finish();
/// let c = TrainingFingerprint::new().push_str("Randomized").push(5).push_f64(60.0).finish();
/// assert_eq!(a, b);
/// assert_ne!(a, c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct TrainingFingerprint(u64);

impl TrainingFingerprint {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a fresh fingerprint.
    pub fn new() -> Self {
        Self(Self::FNV_OFFSET)
    }

    /// Folds one byte slice into the fingerprint (length-prefixed, so
    /// `"ab" + "c"` and `"a" + "bc"` fingerprint differently).
    pub fn push_bytes(mut self, bytes: &[u8]) -> Self {
        self = self.push(bytes.len() as u64);
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::FNV_PRIME);
        }
        self
    }

    /// Folds a string into the fingerprint.
    pub fn push_str(self, value: &str) -> Self {
        self.push_bytes(value.as_bytes())
    }

    /// Folds one 64-bit word into the fingerprint.
    pub fn push(mut self, word: u64) -> Self {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(Self::FNV_PRIME);
        }
        self
    }

    /// Folds a float into the fingerprint by exact bit pattern (`0.0` and
    /// `-0.0` are distinct, as are NaN payloads — training configs should
    /// simply not use NaN).
    pub fn push_f64(self, value: f64) -> Self {
        self.push(value.to_bits())
    }

    /// The finished 64-bit fingerprint.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for TrainingFingerprint {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavfi_ppc::states::StateField;

    fn synthetic_states(step: usize) -> MonitoredStates {
        let mut states = MonitoredStates::default();
        let t = step as f64 * 0.1;
        states.set_field(StateField::WaypointX, 10.0 + t);
        states.set_field(StateField::WaypointY, -5.0 + 0.5 * t);
        states.set_field(StateField::CommandVx, 2.0 * (t * 0.3).sin());
        states.set_field(StateField::CommandVy, 1.5 * (t * 0.3).cos());
        states.set_field(StateField::TimeToCollision, 3.0 + (t * 0.2).sin());
        states
    }

    #[test]
    fn recording_builds_delta_samples() {
        let mut telemetry = TelemetrySet::new();
        for step in 0..50 {
            telemetry.record(&synthetic_states(step));
        }
        assert_eq!(telemetry.len(), 50);
        assert!(!telemetry.is_empty());
        // Deltas of smooth telemetry are small.
        for sample in telemetry.samples().iter().skip(1) {
            assert!(sample.iter().all(|d| d.abs() < 100.0));
        }
    }

    #[test]
    fn end_mission_resets_the_baseline() {
        let mut telemetry = TelemetrySet::new();
        telemetry.record(&synthetic_states(0));
        telemetry.end_mission();
        // A wildly different first sample of the next mission yields zero
        // deltas rather than a spurious jump.
        let mut far_away = MonitoredStates::default();
        far_away.set_field(StateField::WaypointX, 500.0);
        telemetry.record(&far_away);
        assert_eq!(telemetry.samples()[1], [0.0; 13]);
    }

    #[test]
    fn merge_concatenates_samples() {
        let mut a = TelemetrySet::new();
        a.record(&synthetic_states(0));
        let mut b = TelemetrySet::new();
        b.record(&synthetic_states(1));
        b.record(&synthetic_states(2));
        a.merge(b);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn fingerprints_are_stable_and_field_sensitive() {
        let base = || TrainingFingerprint::new().push_str("Randomized").push(7).push_f64(30.0);
        assert_eq!(base().finish(), base().finish());
        assert_ne!(base().finish(), base().push(0).finish());
        assert_ne!(
            TrainingFingerprint::new().push_str("ab").push_str("c").finish(),
            TrainingFingerprint::new().push_str("a").push_str("bc").finish(),
            "length prefixing must prevent concatenation collisions"
        );
        assert_ne!(
            TrainingFingerprint::new().push_f64(0.0).finish(),
            TrainingFingerprint::new().push_f64(-0.0).finish(),
        );
    }

    #[test]
    fn detectors_can_be_built_from_telemetry() {
        let mut telemetry = TelemetrySet::new();
        for step in 0..120 {
            telemetry.record(&synthetic_states(step));
        }
        let gad = telemetry.build_gad(CgadConfig::default());
        assert!(gad.detectors()[0].samples() >= 100);

        let train_config = TrainConfig { epochs: 3, ..TrainConfig::default() };
        let (aad, report) = telemetry.train_aad(AadConfig::default(), &train_config);
        assert!(aad.threshold() > 0.0);
        assert_eq!(report.epoch_losses.len(), 3);
    }
}
