//! Detector calibration and ablation: labelled synthetic anomaly streams,
//! threshold/parameter sweeps and ROC analysis across every detection
//! scheme in this crate.
//!
//! The paper treats the Gaussian `n` (§IV-C, "a configurable variable that
//! can be optimized based on task complexity") and the autoencoder threshold
//! (§IV-D, "the upper bound of the reconstruction error in the error-free
//! run") as fixed design points.  The sweeps in this module expose the full
//! operating curve behind those choices, which the ablation benches report.

use mavfi_ppc::states::{MonitoredStates, StateField};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::aad::AadDetector;
use crate::gad::GadBank;
use crate::mahalanobis::MahalanobisDetector;
use crate::metrics::{ConfusionMatrix, GroundTruth, RocCurve};

const DIM: usize = MonitoredStates::DIM;

/// How a corrupted sample differs from the clean sample it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum CorruptionProfile {
    /// An exponent-flip-sized excursion of one state's delta (the dominant
    /// harmful manifestation in the paper's Fig. 4 analysis).
    ExponentFlip {
        /// Magnitude of the injected delta, in preprocessed code units.
        magnitude: f64,
    },
    /// An in-range but correlation-breaking perturbation: every state is
    /// shifted to the same moderate value, so per-field detectors see nothing
    /// unusual while the joint distribution is violated.
    CorrelationBreak {
        /// Value assigned to every state's delta, in code units.
        level: f64,
    },
    /// A small mantissa-level wiggle of one state, which the paper's
    /// preprocessing intentionally leaves (mostly) invisible.
    MantissaNoise {
        /// Magnitude of the wiggle, in code units.
        magnitude: f64,
    },
}

impl CorruptionProfile {
    fn apply(self, sample: &mut [f64; DIM], rng: &mut StdRng) {
        match self {
            Self::ExponentFlip { magnitude } => {
                let field = StateField::ALL[rng.gen_range(0..StateField::ALL.len())];
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                sample[field.index()] = sign * magnitude;
            }
            Self::CorrelationBreak { level } => {
                for slot in sample.iter_mut() {
                    *slot = level;
                }
            }
            Self::MantissaNoise { magnitude } => {
                let field = StateField::ALL[rng.gen_range(0..StateField::ALL.len())];
                sample[field.index()] += magnitude * rng.gen_range(-1.0..1.0);
            }
        }
    }
}

/// Configuration of a labelled evaluation stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticAnomalyConfig {
    /// Fraction of evaluation samples that carry a corruption.
    pub corruption_rate: f64,
    /// The corruption applied to each corrupted sample.
    pub profile: CorruptionProfile,
    /// Seed of the corruption-site selection.
    pub seed: u64,
}

impl Default for SyntheticAnomalyConfig {
    fn default() -> Self {
        Self {
            corruption_rate: 0.05,
            profile: CorruptionProfile::ExponentFlip { magnitude: 6000.0 },
            seed: 17,
        }
    }
}

/// A labelled stream of preprocessed delta vectors for detector evaluation.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LabeledStream {
    samples: Vec<([f64; DIM], GroundTruth)>,
}

impl LabeledStream {
    /// Builds an evaluation stream by corrupting a fraction of clean
    /// preprocessed samples according to `config`.
    ///
    /// When the corruption rate is positive and the input non-empty, at
    /// least one sample is guaranteed to be corrupted: small quick-test
    /// streams would otherwise occasionally draw zero corruptions, which
    /// degenerates every downstream ROC curve.
    pub fn synthesize(clean: &[[f64; DIM]], config: SyntheticAnomalyConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let rate = config.corruption_rate.clamp(0.0, 1.0);
        let mut samples: Vec<([f64; DIM], GroundTruth)> = clean
            .iter()
            .map(|sample| {
                let mut value = *sample;
                if rng.gen_bool(rate) {
                    config.profile.apply(&mut value, &mut rng);
                    (value, GroundTruth::Corrupted)
                } else {
                    (value, GroundTruth::Clean)
                }
            })
            .collect();
        let none_corrupted = samples.iter().all(|(_, truth)| *truth == GroundTruth::Clean);
        if rate > 0.0 && none_corrupted && !samples.is_empty() {
            let index = rng.gen_range(0..samples.len());
            let (value, truth) = &mut samples[index];
            config.profile.apply(value, &mut rng);
            *truth = GroundTruth::Corrupted;
        }
        Self { samples }
    }

    /// The labelled samples, in stream order.
    pub fn samples(&self) -> &[([f64; DIM], GroundTruth)] {
        &self.samples
    }

    /// Number of samples in the stream.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Number of corrupted samples in the stream.
    pub fn corrupted(&self) -> usize {
        self.samples.iter().filter(|(_, truth)| *truth == GroundTruth::Corrupted).count()
    }
}

/// Anything that maps a preprocessed delta vector to a scalar anomaly score
/// (higher = more anomalous).  Implemented by every detector in this crate
/// so sweeps and ROC analysis can treat them uniformly.
pub trait AnomalyScorer {
    /// Human-readable name used in reports.
    fn name(&self) -> &'static str;

    /// Anomaly score of one preprocessed delta vector.
    fn anomaly_score(&self, deltas: &[f64; DIM]) -> f64;
}

impl AnomalyScorer for GadBank {
    fn name(&self) -> &'static str {
        "gaussian"
    }

    fn anomaly_score(&self, deltas: &[f64; DIM]) -> f64 {
        self.score(deltas)
    }
}

impl AnomalyScorer for AadDetector {
    fn name(&self) -> &'static str {
        "autoencoder"
    }

    fn anomaly_score(&self, deltas: &[f64; DIM]) -> f64 {
        self.score(deltas)
    }
}

impl AnomalyScorer for MahalanobisDetector {
    fn name(&self) -> &'static str {
        "mahalanobis"
    }

    fn anomaly_score(&self, deltas: &[f64; DIM]) -> f64 {
        self.distance(deltas)
    }
}

/// Scores every sample of a labelled stream with a frozen detector,
/// producing the input of [`RocCurve::from_scores`].
pub fn score_stream(scorer: &dyn AnomalyScorer, stream: &LabeledStream) -> Vec<(f64, GroundTruth)> {
    stream.samples().iter().map(|(sample, truth)| (scorer.anomaly_score(sample), *truth)).collect()
}

/// Builds the ROC curve of a frozen detector over a labelled stream.
pub fn roc_curve(scorer: &dyn AnomalyScorer, stream: &LabeledStream) -> RocCurve {
    RocCurve::from_scores(&score_stream(scorer, stream))
}

/// Evaluates a stateful per-sample verdict function against a labelled
/// stream, accumulating the confusion matrix.
pub fn evaluate_stream(
    mut verdict: impl FnMut(&[f64; DIM]) -> bool,
    stream: &LabeledStream,
) -> ConfusionMatrix {
    let mut matrix = ConfusionMatrix::new();
    for (sample, truth) in stream.samples() {
        matrix.record(*truth, verdict(sample));
    }
    matrix
}

/// One point of a parameter sweep: the swept parameter value and the
/// detection quality achieved at that value.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OperatingPoint {
    /// The swept parameter (n-sigma or threshold margin).
    pub parameter: f64,
    /// Detection quality at this parameter value.
    pub matrix: ConfusionMatrix,
}

impl OperatingPoint {
    /// Convenience accessor: F1 score at this operating point.
    pub fn f1(&self) -> f64 {
        self.matrix.f1()
    }
}

/// Sweeps the Gaussian detectors' `n_sigma` parameter.  For each value a
/// fresh bank is primed on `training` and evaluated on `stream`.
pub fn sweep_gad_nsigma(
    training: &[[f64; DIM]],
    stream: &LabeledStream,
    n_sigmas: &[f64],
    base: crate::gad::CgadConfig,
) -> Vec<OperatingPoint> {
    n_sigmas
        .iter()
        .map(|&n_sigma| {
            let mut bank = GadBank::new(crate::gad::CgadConfig { n_sigma, ..base });
            bank.prime(training);
            let matrix = evaluate_stream(|sample| !bank.observe_all(sample).is_empty(), stream);
            OperatingPoint { parameter: n_sigma, matrix }
        })
        .collect()
}

/// Sweeps the autoencoder alarm threshold as a multiple of the trained
/// detector's own threshold, without retraining.
pub fn sweep_aad_threshold(
    detector: &AadDetector,
    stream: &LabeledStream,
    margins: &[f64],
) -> Vec<OperatingPoint> {
    let scored = score_stream(detector, stream);
    margins
        .iter()
        .map(|&margin| {
            let threshold = detector.threshold() * margin;
            let mut matrix = ConfusionMatrix::new();
            for (score, truth) in &scored {
                matrix.record(*truth, *score > threshold);
            }
            OperatingPoint { parameter: margin, matrix }
        })
        .collect()
}

/// Picks the operating point with the highest F1 score, breaking ties toward
/// the smaller parameter.  Returns `None` when `points` is empty.
pub fn best_by_f1(points: &[OperatingPoint]) -> Option<OperatingPoint> {
    points.iter().copied().fold(None, |best, candidate| match best {
        None => Some(candidate),
        Some(current) if candidate.f1() > current.f1() => Some(candidate),
        Some(current) => Some(current),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aad::AadConfig;
    use crate::gad::CgadConfig;
    use crate::mahalanobis::MahalanobisConfig;
    use mavfi_nn::train::TrainConfig;

    /// Correlated clean telemetry shared by every calibration test.
    fn clean_samples(count: usize, seed: u64) -> Vec<[f64; 13]> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let a: f64 = rng.gen_range(-8.0..8.0);
                std::array::from_fn(|i| if i < 7 { a } else { -a } + rng.gen_range(-0.5..0.5))
            })
            .collect()
    }

    fn exponent_flip_stream(seed: u64) -> LabeledStream {
        LabeledStream::synthesize(
            &clean_samples(400, seed),
            SyntheticAnomalyConfig { seed: seed + 1, ..SyntheticAnomalyConfig::default() },
        )
    }

    #[test]
    fn synthesized_stream_has_roughly_the_requested_corruption_rate() {
        let stream = exponent_flip_stream(1);
        assert_eq!(stream.len(), 400);
        let rate = stream.corrupted() as f64 / stream.len() as f64;
        assert!(rate > 0.01 && rate < 0.12, "rate {rate}");
    }

    #[test]
    fn zero_and_full_corruption_rates_are_respected() {
        let clean = clean_samples(50, 2);
        let none = LabeledStream::synthesize(
            &clean,
            SyntheticAnomalyConfig { corruption_rate: 0.0, ..SyntheticAnomalyConfig::default() },
        );
        assert_eq!(none.corrupted(), 0);
        let all = LabeledStream::synthesize(
            &clean,
            SyntheticAnomalyConfig { corruption_rate: 1.0, ..SyntheticAnomalyConfig::default() },
        );
        assert_eq!(all.corrupted(), 50);
    }

    #[test]
    fn every_detector_separates_exponent_flips_from_clean_data() {
        let training = clean_samples(600, 3);
        let stream = exponent_flip_stream(4);

        let mut gad = GadBank::new(CgadConfig::default());
        gad.prime(&training);
        let mahalanobis = MahalanobisDetector::fit(&training, MahalanobisConfig::default());
        let (aad, _) = AadDetector::train(
            &training,
            AadConfig::default(),
            &TrainConfig { epochs: 20, ..TrainConfig::default() },
        );

        let scorers: Vec<&dyn AnomalyScorer> = vec![&gad, &mahalanobis, &aad];
        for scorer in scorers {
            let curve = roc_curve(scorer, &stream);
            assert!(
                curve.auc() > 0.9,
                "{} separates exponent flips poorly: AUC {}",
                scorer.name(),
                curve.auc()
            );
        }
    }

    #[test]
    fn correlation_breaks_favour_joint_detectors_over_per_field_ones() {
        let training = clean_samples(600, 5);
        let stream = LabeledStream::synthesize(
            &clean_samples(400, 6),
            SyntheticAnomalyConfig {
                profile: CorruptionProfile::CorrelationBreak { level: 6.0 },
                ..SyntheticAnomalyConfig::default()
            },
        );

        let mut gad = GadBank::new(CgadConfig::default());
        gad.prime(&training);
        let mahalanobis = MahalanobisDetector::fit(&training, MahalanobisConfig::default());

        let per_field_auc = roc_curve(&gad, &stream).auc();
        let joint_auc = roc_curve(&mahalanobis, &stream).auc();
        assert!(
            joint_auc > per_field_auc + 0.1,
            "joint {joint_auc} should beat per-field {per_field_auc} on correlation breaks"
        );
    }

    #[test]
    fn mantissa_noise_is_largely_invisible_by_design() {
        let training = clean_samples(600, 7);
        let stream = LabeledStream::synthesize(
            &clean_samples(400, 8),
            SyntheticAnomalyConfig {
                profile: CorruptionProfile::MantissaNoise { magnitude: 2.0 },
                ..SyntheticAnomalyConfig::default()
            },
        );
        let mut gad = GadBank::new(CgadConfig::default());
        gad.prime(&training);
        let matrix = evaluate_stream(|sample| !gad.observe_all(sample).is_empty(), &stream);
        assert_eq!(matrix.false_positives, 0);
        assert_eq!(matrix.true_positives, 0, "mantissa-level noise should be ignored");
    }

    #[test]
    fn nsigma_sweep_trades_recall_for_false_positives() {
        let training = clean_samples(600, 9);
        let stream = exponent_flip_stream(10);
        let points = sweep_gad_nsigma(
            &training,
            &stream,
            &[1.0, 3.0, 6.0, 12.0],
            CgadConfig { min_deviation: 0.0, ..CgadConfig::default() },
        );
        assert_eq!(points.len(), 4);
        // Tighter thresholds never have fewer false positives than looser ones.
        for pair in points.windows(2) {
            assert!(pair[0].matrix.false_positives >= pair[1].matrix.false_positives);
            assert!(pair[0].matrix.recall() >= pair[1].matrix.recall() - 1e-12);
        }
        let best = best_by_f1(&points).expect("non-empty sweep");
        assert!(best.f1() > 0.5, "best F1 {}", best.f1());
    }

    #[test]
    fn aad_threshold_sweep_is_monotone_in_the_margin() {
        let training = clean_samples(600, 11);
        let stream = exponent_flip_stream(12);
        let (aad, _) = AadDetector::train(
            &training,
            AadConfig::default(),
            &TrainConfig { epochs: 20, ..TrainConfig::default() },
        );
        let points = sweep_aad_threshold(&aad, &stream, &[0.25, 0.5, 1.0, 2.0, 4.0]);
        assert_eq!(points.len(), 5);
        for pair in points.windows(2) {
            assert!(pair[0].matrix.recall() >= pair[1].matrix.recall() - 1e-12);
            assert!(
                pair[0].matrix.false_positive_rate()
                    >= pair[1].matrix.false_positive_rate() - 1e-12
            );
        }
    }

    #[test]
    fn best_by_f1_of_empty_sweep_is_none() {
        assert!(best_by_f1(&[]).is_none());
    }
}
