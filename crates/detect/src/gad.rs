//! Gaussian-based anomaly detection (GAD, paper §IV-C).

use mavfi_ppc::states::{Stage, StateField};

use crate::welford::Welford;

/// Configuration of one customised Gaussian detector (cGAD).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CgadConfig {
    /// Number of standard deviations away from the mean at which the alarm
    /// is raised (the paper's configurable `n`).
    pub n_sigma: f64,
    /// Minimum number of samples before alarms may fire (the online
    /// estimator needs a baseline first).
    pub warmup_samples: u64,
    /// Absolute deviation (in preprocessed code units) below which a value
    /// is never considered anomalous, protecting against alarms when the
    /// baseline variance is still nearly zero.
    pub min_deviation: f64,
}

impl Default for CgadConfig {
    fn default() -> Self {
        Self { n_sigma: 6.0, warmup_samples: 20, min_deviation: 48.0 }
    }
}

/// A customised Gaussian detector for a single monitored inter-kernel state.
#[derive(Debug, Clone, PartialEq)]
pub struct Cgad {
    field: StateField,
    config: CgadConfig,
    stats: Welford,
    alarms: u64,
}

impl Cgad {
    /// Creates a detector for `field`.
    pub fn new(field: StateField, config: CgadConfig) -> Self {
        Self { field, config, stats: Welford::new(), alarms: 0 }
    }

    /// The monitored field.
    pub fn field(&self) -> StateField {
        self.field
    }

    /// Number of alarms raised so far.
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Number of (non-anomalous) samples absorbed into the baseline.
    pub fn samples(&self) -> u64 {
        self.stats.count()
    }

    /// Pre-loads the baseline with an error-free sample without alarm
    /// checking (used when seeding from training telemetry).
    pub fn prime(&mut self, delta: f64) {
        self.stats.push(delta);
    }

    /// Observes one preprocessed delta.  Returns `true` when the value is an
    /// outlier; outliers are *not* absorbed into the baseline so that a
    /// corrupted sample cannot widen the detector's notion of normal.
    pub fn observe(&mut self, delta: f64) -> bool {
        let is_outlier = self.is_outlier(delta);
        self.record(delta, is_outlier);
        is_outlier
    }

    /// Whether [`Cgad::observe`] would flag `delta`, without observing it.
    pub(crate) fn is_outlier(&self, delta: f64) -> bool {
        let warmed_up = self.stats.count() >= self.config.warmup_samples;
        let deviation = (delta - self.stats.mean()).abs();
        warmed_up
            && deviation > self.config.min_deviation
            && (self.stats.std_dev() <= f64::EPSILON
                || self.stats.z_score(delta).abs() > self.config.n_sigma)
    }

    /// Commits an observation of `delta` whose verdict is `is_outlier`.
    pub(crate) fn record(&mut self, delta: f64, is_outlier: bool) {
        if is_outlier {
            self.alarms += 1;
        } else {
            self.stats.push(delta);
        }
    }
}

/// The per-stage Gaussian detector bank: one cGAD per monitored state,
/// grouped by the stage whose recomputation an alarm triggers.
#[derive(Debug, PartialEq)]
pub struct GadBank {
    detectors: Vec<Cgad>,
}

/// `clone_from` reuses the target's storage, so refreshing a flight
/// checkpoint that carries the bank allocates nothing.
impl Clone for GadBank {
    fn clone(&self) -> Self {
        Self { detectors: self.detectors.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.detectors.clone_from(&source.detectors);
    }
}

impl Default for GadBank {
    fn default() -> Self {
        Self::new(CgadConfig::default())
    }
}

impl GadBank {
    /// Creates a bank with one detector per monitored state.
    pub fn new(config: CgadConfig) -> Self {
        let detectors = StateField::ALL.into_iter().map(|field| Cgad::new(field, config)).collect();
        Self { detectors }
    }

    /// Immutable access to the per-field detectors.
    pub fn detectors(&self) -> &[Cgad] {
        &self.detectors
    }

    /// Observes the delta of a single field, returning `true` on alarm.
    pub fn observe_field(&mut self, field: StateField, delta: f64) -> bool {
        self.detectors[field.index()].observe(delta)
    }

    /// Whether [`GadBank::observe_field`] would flag `delta`, without
    /// observing it.
    pub(crate) fn is_outlier(&self, field: StateField, delta: f64) -> bool {
        self.detectors[field.index()].is_outlier(delta)
    }

    /// Commits an observation of `field` whose verdict is `is_outlier`.
    pub(crate) fn record_field(&mut self, field: StateField, delta: f64, is_outlier: bool) {
        self.detectors[field.index()].record(delta, is_outlier);
    }

    /// Observes every field of a full preprocessed vector, returning the
    /// stages that raised at least one alarm.
    pub fn observe_all(&mut self, deltas: &[f64; StateField::ALL.len()]) -> Vec<Stage> {
        let mut stages = Vec::new();
        for field in StateField::ALL {
            if self.observe_field(field, deltas[field.index()]) && !stages.contains(&field.stage())
            {
                stages.push(field.stage());
            }
        }
        stages
    }

    /// Seeds every detector's baseline from error-free telemetry.
    pub fn prime(&mut self, samples: &[[f64; StateField::ALL.len()]]) {
        for sample in samples {
            for field in StateField::ALL {
                self.detectors[field.index()].prime(sample[field.index()]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn normal_delta(rng: &mut StdRng) -> f64 {
        // Narrow jitter typical of smooth flight in code units.
        (0..4).map(|_| rng.gen_range(-2.0..2.0)).sum()
    }

    #[test]
    fn no_alarms_during_warmup() {
        let mut cgad = Cgad::new(StateField::CommandVx, CgadConfig::default());
        for _ in 0..10 {
            assert!(!cgad.observe(10_000.0), "warmup must never alarm");
        }
    }

    #[test]
    fn detects_outliers_after_training_on_normal_data() {
        let mut cgad = Cgad::new(StateField::WaypointX, CgadConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            assert!(!cgad.observe(normal_delta(&mut rng)), "normal data should not alarm");
        }
        assert!(cgad.observe(5_000.0), "a huge delta must alarm");
        assert_eq!(cgad.alarms(), 1);
        // The outlier was not absorbed: normal data still passes.
        assert!(!cgad.observe(normal_delta(&mut rng)));
    }

    #[test]
    fn small_deviations_never_alarm_even_with_tiny_variance() {
        let config = CgadConfig { min_deviation: 48.0, ..CgadConfig::default() };
        let mut cgad = Cgad::new(StateField::CommandVz, config);
        for _ in 0..100 {
            cgad.observe(0.0);
        }
        // Variance is zero; a small wiggle stays below min_deviation.
        assert!(!cgad.observe(3.0));
        // A big jump alarms even with zero variance.
        assert!(cgad.observe(500.0));
    }

    #[test]
    fn bank_reports_alarming_stages() {
        let mut bank = GadBank::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut normal = [0.0; 13];
        for _ in 0..100 {
            for slot in normal.iter_mut() {
                *slot = normal_delta(&mut rng);
            }
            assert!(bank.observe_all(&normal).is_empty());
        }
        let mut corrupted = normal;
        corrupted[StateField::WaypointY.index()] = 8_000.0;
        let stages = bank.observe_all(&corrupted);
        assert_eq!(stages, vec![Stage::Planning]);
        let alarms: Vec<u64> = bank.detectors.iter().map(Cgad::alarms).collect();
        assert_eq!(alarms.iter().sum::<u64>(), 1);
        assert_eq!(alarms[StateField::WaypointY.index()], 1);
    }

    #[test]
    fn priming_seeds_the_baseline() {
        let mut bank = GadBank::default();
        let mut rng = StdRng::seed_from_u64(3);
        let samples: Vec<[f64; 13]> =
            (0..50).map(|_| std::array::from_fn(|_| normal_delta(&mut rng))).collect();
        bank.prime(&samples);
        assert!(bank.detectors()[0].samples() >= 50);
        // Immediately able to detect without further warmup.
        let mut corrupted = [0.0; 13];
        corrupted[StateField::TimeToCollision.index()] = 9_999.0;
        assert_eq!(bank.observe_all(&corrupted), vec![Stage::Perception]);
    }
}
