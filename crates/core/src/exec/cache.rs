//! Cross-experiment cache of trained detector banks.
//!
//! Detector training flies several error-free missions and fits both the
//! Gaussian bank and the autoencoder — seconds of work that the fig3–fig9 /
//! table1–table2 drivers used to repeat even when two experiments asked for
//! the exact same training configuration.  Training is fully deterministic
//! given `(environment, TrainingSpec)`, so the result can be shared: the
//! cache hands out [`Arc`]s to one immutable trained bank per configuration.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use mavfi_detect::training::TrainingFingerprint;
use mavfi_sim::env::EnvironmentKind;

use crate::config::TrainingSpec;
use crate::runner::TrainedDetectors;
use crate::training::train_detectors_in;

/// A cache of trained detectors keyed by `(environment, training config)`.
///
/// Lookups either return a shared handle to an existing bank or train one on
/// the spot (holding the cache lock, so concurrent callers of the same
/// configuration never train twice).  Cached detectors are bit-identical to
/// freshly trained ones, so routing an experiment through the cache cannot
/// change its results — only how often training runs.
///
/// Most callers want the process-wide [`TrainedDetectorCache::global`];
/// dedicated instances are useful in tests and benches that measure cold
/// versus warm behaviour.
///
/// # Examples
///
/// ```no_run
/// use mavfi::exec::TrainedDetectorCache;
/// use mavfi::TrainingSpec;
/// use mavfi_sim::env::EnvironmentKind;
///
/// let cache = TrainedDetectorCache::new();
/// let spec = TrainingSpec { missions: 1, epochs: 5, ..TrainingSpec::default() };
/// let first = cache.get_or_train(EnvironmentKind::Randomized, &spec); // trains
/// let second = cache.get_or_train(EnvironmentKind::Randomized, &spec); // cache hit
/// assert!(std::sync::Arc::ptr_eq(&first, &second));
/// ```
#[derive(Debug, Default)]
pub struct TrainedDetectorCache {
    // Per-key cells: the map lock is only held to look up or insert a cell,
    // never during training, so different configurations train concurrently
    // while same-configuration callers deduplicate on the cell.
    entries: Mutex<HashMap<u64, Arc<OnceLock<Arc<TrainedDetectors>>>>>,
}

impl TrainedDetectorCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-wide cache shared by every experiment driver.
    pub fn global() -> &'static TrainedDetectorCache {
        static GLOBAL: OnceLock<TrainedDetectorCache> = OnceLock::new();
        GLOBAL.get_or_init(TrainedDetectorCache::new)
    }

    /// The cache key of a training configuration: a stable fingerprint of
    /// the training environment and every [`TrainingSpec`] field.
    pub fn key(environment: EnvironmentKind, spec: &TrainingSpec) -> u64 {
        // Exhaustive destructuring: adding a field to TrainingSpec without
        // fingerprinting it would silently alias distinct configurations,
        // so make that a compile error instead.
        let TrainingSpec { missions, base_seed, mission_time_budget, epochs } = *spec;
        TrainingFingerprint::new()
            .push_str(environment.label())
            .push(missions as u64)
            .push(base_seed)
            .push_f64(mission_time_budget)
            .push(epochs as u64)
            .finish()
    }

    /// Returns the trained detectors for `(environment, spec)`, training
    /// them first if this configuration has not been seen before.
    ///
    /// The returned handle is shared: campaign workers borrow the same
    /// immutable bank instead of cloning or retraining per experiment.
    pub fn get_or_train(
        &self,
        environment: EnvironmentKind,
        spec: &TrainingSpec,
    ) -> Arc<TrainedDetectors> {
        let cell = self.cell(Self::key(environment, spec));
        // Training happens inside the per-key cell, with the map lock
        // released: a second caller asking for the same configuration
        // blocks on the cell and then reuses the result, while callers of
        // other configurations proceed (and train) independently.
        Arc::clone(cell.get_or_init(|| Arc::new(train_detectors_in(environment, spec).0)))
    }

    /// Stores an externally trained bank under `(environment, spec)`,
    /// returning the handle future lookups will see — the passed bank, or
    /// the existing one if this configuration was already cached (cells are
    /// write-once).  Useful when a caller has already paid for training and
    /// wants later experiments to reuse it.
    pub fn insert(
        &self,
        environment: EnvironmentKind,
        spec: &TrainingSpec,
        detectors: TrainedDetectors,
    ) -> Arc<TrainedDetectors> {
        let cell = self.cell(Self::key(environment, spec));
        let bank = Arc::new(detectors);
        Arc::clone(cell.get_or_init(|| Arc::clone(&bank)))
    }

    fn cell(&self, key: u64) -> Arc<OnceLock<Arc<TrainedDetectors>>> {
        let mut entries = self.entries.lock().expect("detector cache poisoned");
        Arc::clone(entries.entry(key).or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> TrainingSpec {
        TrainingSpec { missions: 1, base_seed: 808, mission_time_budget: 15.0, epochs: 2 }
    }

    #[test]
    fn keys_separate_environment_and_every_spec_field() {
        let spec = tiny_spec();
        let base = TrainedDetectorCache::key(EnvironmentKind::Randomized, &spec);
        assert_eq!(base, TrainedDetectorCache::key(EnvironmentKind::Randomized, &spec));
        assert_ne!(base, TrainedDetectorCache::key(EnvironmentKind::Sparse, &spec));
        assert_ne!(
            base,
            TrainedDetectorCache::key(
                EnvironmentKind::Randomized,
                &TrainingSpec { missions: 2, ..spec }
            )
        );
        assert_ne!(
            base,
            TrainedDetectorCache::key(
                EnvironmentKind::Randomized,
                &TrainingSpec { base_seed: 809, ..spec }
            )
        );
        assert_ne!(
            base,
            TrainedDetectorCache::key(
                EnvironmentKind::Randomized,
                &TrainingSpec { mission_time_budget: 16.0, ..spec }
            )
        );
        assert_ne!(
            base,
            TrainedDetectorCache::key(
                EnvironmentKind::Randomized,
                &TrainingSpec { epochs: 3, ..spec }
            )
        );
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_bank() {
        let cache = TrainedDetectorCache::new();
        let spec = tiny_spec();
        let first = cache.get_or_train(EnvironmentKind::Randomized, &spec);
        let second = cache.get_or_train(EnvironmentKind::Randomized, &spec);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn insert_preseeds_a_configuration() {
        let cache = TrainedDetectorCache::new();
        let spec = tiny_spec();
        let trained = crate::training::train_detectors(&spec).0;
        let handle = cache.insert(EnvironmentKind::Randomized, &spec, trained);
        let looked_up = cache.get_or_train(EnvironmentKind::Randomized, &spec);
        assert!(Arc::ptr_eq(&handle, &looked_up));
    }
}
