//! Detection-quality metrics: confusion matrices, precision/recall/F1,
//! ROC curves and detection latency.
//!
//! The paper reports the end-to-end effect of the detectors (success rate,
//! flight time recovered); this module provides the stream-level detection
//! quality underneath those numbers, which is what the ablation benches and
//! the calibration sweeps report.

use serde::{Deserialize, Serialize};

/// Ground truth of one observed sample: whether a fault was actually present.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GroundTruth {
    /// The sample was produced by error-free execution.
    Clean,
    /// The sample carries an injected corruption.
    Corrupted,
}

/// A binary confusion matrix accumulated over a stream of detector verdicts.
///
/// # Examples
///
/// ```
/// use mavfi_detect::metrics::{ConfusionMatrix, GroundTruth};
///
/// let mut matrix = ConfusionMatrix::new();
/// matrix.record(GroundTruth::Corrupted, true);  // true positive
/// matrix.record(GroundTruth::Clean, false);     // true negative
/// matrix.record(GroundTruth::Clean, true);      // false positive
/// assert_eq!(matrix.true_positives, 1);
/// assert!((matrix.precision() - 0.5).abs() < 1e-12);
/// assert!((matrix.recall() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConfusionMatrix {
    /// Corrupted samples the detector flagged.
    pub true_positives: u64,
    /// Clean samples the detector flagged.
    pub false_positives: u64,
    /// Clean samples the detector passed.
    pub true_negatives: u64,
    /// Corrupted samples the detector passed.
    pub false_negatives: u64,
}

impl ConfusionMatrix {
    /// Creates an empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one verdict against its ground truth.
    pub fn record(&mut self, truth: GroundTruth, alarmed: bool) {
        match (truth, alarmed) {
            (GroundTruth::Corrupted, true) => self.true_positives += 1,
            (GroundTruth::Corrupted, false) => self.false_negatives += 1,
            (GroundTruth::Clean, true) => self.false_positives += 1,
            (GroundTruth::Clean, false) => self.true_negatives += 1,
        }
    }

    /// Total number of recorded samples.
    pub fn total(&self) -> u64 {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }

    /// Number of samples whose ground truth is `Corrupted`.
    pub fn positives(&self) -> u64 {
        self.true_positives + self.false_negatives
    }

    /// Number of samples whose ground truth is `Clean`.
    pub fn negatives(&self) -> u64 {
        self.true_negatives + self.false_positives
    }

    /// Fraction of raised alarms that were genuine (`TP / (TP + FP)`), or 1
    /// when no alarm was ever raised.
    pub fn precision(&self) -> f64 {
        ratio(self.true_positives, self.true_positives + self.false_positives, 1.0)
    }

    /// Fraction of corruptions that were caught (`TP / (TP + FN)`), or 1 when
    /// no corruption was ever presented.
    pub fn recall(&self) -> f64 {
        ratio(self.true_positives, self.positives(), 1.0)
    }

    /// Fraction of clean samples that triggered a spurious alarm
    /// (`FP / (FP + TN)`), or 0 when no clean sample was ever presented.
    pub fn false_positive_rate(&self) -> f64 {
        ratio(self.false_positives, self.negatives(), 0.0)
    }

    /// Fraction of all verdicts that were correct.
    pub fn accuracy(&self) -> f64 {
        ratio(self.true_positives + self.true_negatives, self.total(), 1.0)
    }

    /// Harmonic mean of precision and recall; 0 when both are 0.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r <= f64::EPSILON {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Merges another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.true_positives += other.true_positives;
        self.false_positives += other.false_positives;
        self.true_negatives += other.true_negatives;
        self.false_negatives += other.false_negatives;
    }
}

fn ratio(numerator: u64, denominator: u64, empty: f64) -> f64 {
    if denominator == 0 {
        empty
    } else {
        numerator as f64 / denominator as f64
    }
}

/// One (false-positive rate, true-positive rate) operating point of a
/// detector at a particular threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// Score threshold that produced this point (alarms fire for
    /// `score > threshold`).
    pub threshold: f64,
    /// False-positive rate at this threshold.
    pub false_positive_rate: f64,
    /// True-positive rate (recall) at this threshold.
    pub true_positive_rate: f64,
}

/// A receiver-operating-characteristic curve built from scored samples.
///
/// Scores are any monotone anomaly score (Gaussian |z|, autoencoder
/// reconstruction error, Mahalanobis distance): higher means "more
/// anomalous".
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RocCurve {
    points: Vec<RocPoint>,
}

impl RocCurve {
    /// Builds the curve from `(score, ground truth)` pairs by sweeping the
    /// threshold over every distinct score.
    ///
    /// Returns an empty curve when `scored` is empty or contains only one
    /// class.
    pub fn from_scores(scored: &[(f64, GroundTruth)]) -> Self {
        let positives = scored.iter().filter(|(_, t)| *t == GroundTruth::Corrupted).count() as f64;
        let negatives = scored.len() as f64 - positives;
        if positives == 0.0 || negatives == 0.0 {
            return Self::default();
        }

        let mut sorted: Vec<(f64, GroundTruth)> =
            scored.iter().copied().filter(|(s, _)| s.is_finite()).collect();
        sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));

        let mut points = Vec::with_capacity(sorted.len() + 2);
        // Threshold above every score: nothing alarms.
        points.push(RocPoint {
            threshold: f64::INFINITY,
            false_positive_rate: 0.0,
            true_positive_rate: 0.0,
        });
        let mut tp = 0.0;
        let mut fp = 0.0;
        let mut index = 0;
        while index < sorted.len() {
            let score = sorted[index].0;
            // Consume every sample tied at this score so the curve is a
            // function of the threshold, not of tie ordering.
            while index < sorted.len() && sorted[index].0 == score {
                match sorted[index].1 {
                    GroundTruth::Corrupted => tp += 1.0,
                    GroundTruth::Clean => fp += 1.0,
                }
                index += 1;
            }
            points.push(RocPoint {
                threshold: score,
                false_positive_rate: fp / negatives,
                true_positive_rate: tp / positives,
            });
        }
        Self { points }
    }

    /// The operating points, ordered from strictest to loosest threshold.
    pub fn points(&self) -> &[RocPoint] {
        &self.points
    }

    /// Returns `true` when the curve has no operating points (degenerate
    /// input).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Area under the curve by trapezoidal integration; 0.5 is chance level,
    /// 1.0 is a perfect detector.  Returns 0 for an empty curve.
    pub fn auc(&self) -> f64 {
        self.points
            .windows(2)
            .map(|pair| {
                let width = pair[1].false_positive_rate - pair[0].false_positive_rate;
                let height = 0.5 * (pair[0].true_positive_rate + pair[1].true_positive_rate);
                width * height
            })
            .sum()
    }

    /// The true-positive rate achievable while keeping the false-positive
    /// rate at or below `max_fpr`.  Returns 0 for an empty curve.
    pub fn tpr_at_fpr(&self, max_fpr: f64) -> f64 {
        self.points
            .iter()
            .filter(|point| point.false_positive_rate <= max_fpr)
            .map(|point| point.true_positive_rate)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_matrix_rates() {
        let mut matrix = ConfusionMatrix::new();
        for _ in 0..8 {
            matrix.record(GroundTruth::Corrupted, true);
        }
        for _ in 0..2 {
            matrix.record(GroundTruth::Corrupted, false);
        }
        for _ in 0..85 {
            matrix.record(GroundTruth::Clean, false);
        }
        for _ in 0..5 {
            matrix.record(GroundTruth::Clean, true);
        }
        assert_eq!(matrix.total(), 100);
        assert_eq!(matrix.positives(), 10);
        assert_eq!(matrix.negatives(), 90);
        assert!((matrix.recall() - 0.8).abs() < 1e-12);
        assert!((matrix.precision() - 8.0 / 13.0).abs() < 1e-12);
        assert!((matrix.false_positive_rate() - 5.0 / 90.0).abs() < 1e-12);
        assert!((matrix.accuracy() - 0.93).abs() < 1e-12);
        assert!(matrix.f1() > 0.0 && matrix.f1() < 1.0);
    }

    #[test]
    fn empty_matrix_uses_benign_defaults() {
        let matrix = ConfusionMatrix::new();
        assert_eq!(matrix.precision(), 1.0);
        assert_eq!(matrix.recall(), 1.0);
        assert_eq!(matrix.false_positive_rate(), 0.0);
        assert_eq!(matrix.accuracy(), 1.0);
    }

    #[test]
    fn f1_is_zero_when_nothing_is_caught() {
        let mut matrix = ConfusionMatrix::new();
        matrix.record(GroundTruth::Corrupted, false);
        matrix.record(GroundTruth::Clean, true);
        assert_eq!(matrix.f1(), 0.0);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = ConfusionMatrix::new();
        a.record(GroundTruth::Corrupted, true);
        let mut b = ConfusionMatrix::new();
        b.record(GroundTruth::Clean, false);
        b.record(GroundTruth::Clean, true);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.false_positives, 1);
    }

    #[test]
    fn perfect_separation_gives_auc_one() {
        let scored: Vec<(f64, GroundTruth)> = (0..50)
            .map(|i| (i as f64, GroundTruth::Clean))
            .chain((0..50).map(|i| (100.0 + i as f64, GroundTruth::Corrupted)))
            .collect();
        let curve = RocCurve::from_scores(&scored);
        assert!(!curve.is_empty());
        assert!((curve.auc() - 1.0).abs() < 1e-12);
        assert_eq!(curve.tpr_at_fpr(0.0), 1.0);
    }

    #[test]
    fn random_scores_give_auc_near_half() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let scored: Vec<(f64, GroundTruth)> = (0..4000)
            .map(|i| {
                let truth = if i % 2 == 0 { GroundTruth::Clean } else { GroundTruth::Corrupted };
                (rng.gen_range(0.0..1.0), truth)
            })
            .collect();
        let auc = RocCurve::from_scores(&scored).auc();
        assert!((auc - 0.5).abs() < 0.05, "auc of random scores was {auc}");
    }

    #[test]
    fn degenerate_score_sets_produce_empty_curves() {
        assert!(RocCurve::from_scores(&[]).is_empty());
        let only_clean = vec![(1.0, GroundTruth::Clean), (2.0, GroundTruth::Clean)];
        assert!(RocCurve::from_scores(&only_clean).is_empty());
        assert_eq!(RocCurve::from_scores(&only_clean).auc(), 0.0);
    }

    #[test]
    fn tied_scores_do_not_depend_on_order() {
        let a = vec![
            (1.0, GroundTruth::Clean),
            (1.0, GroundTruth::Corrupted),
            (2.0, GroundTruth::Corrupted),
            (0.5, GroundTruth::Clean),
        ];
        let mut b = a.clone();
        b.swap(0, 1);
        assert_eq!(RocCurve::from_scores(&a).auc(), RocCurve::from_scores(&b).auc());
    }
}
