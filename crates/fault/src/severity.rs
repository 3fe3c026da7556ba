//! Value-level corruption severity classification and bit-field sensitivity
//! surveys.
//!
//! The paper observes (§III-B) that "faults in sign and exponent fields have
//! a greater impact on the UAV's resilience", and its detectors exploit that
//! by only monitoring the sign and exponent bits.  This module quantifies
//! the observation at the value level: for representative operand values it
//! classifies the outcome of every possible single-bit flip, producing the
//! masked / benign / severe breakdown per bit field.

use crate::bitflip::{flip_bit, BitField};
use crate::model::CorruptionDetail;

/// How severely a corruption distorted the value it landed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The value is bit-identical (only possible for non-flip models, e.g.
    /// scale-by-one).
    Identical,
    /// The relative change is below the masking tolerance; the application
    /// behaves as if nothing happened.
    Masked,
    /// The value changed noticeably but stayed within an order of magnitude;
    /// downstream kernels typically absorb it.
    Benign,
    /// The value changed by more than an order of magnitude or changed sign;
    /// the corruption is likely to propagate into the flight behaviour.
    Severe,
    /// The corrupted value is NaN or infinite.
    NonFinite,
}

impl Severity {
    /// All severities, in increasing order of harm.
    pub const ALL: [Self; 5] =
        [Self::Identical, Self::Masked, Self::Benign, Self::Severe, Self::NonFinite];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::Identical => "identical",
            Self::Masked => "masked",
            Self::Benign => "benign",
            Self::Severe => "severe",
            Self::NonFinite => "non_finite",
        }
    }

    /// Returns `true` for severities that are expected to disturb the flight
    /// (severe distortion or a non-finite value).
    pub fn is_harmful(self) -> bool {
        matches!(self, Self::Severe | Self::NonFinite)
    }
}

/// Thresholds used when classifying a corruption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeverityThresholds {
    /// Relative change below which the corruption counts as masked.
    pub masked_tolerance: f64,
    /// Magnitude ratio (in either direction: grow by more than this factor
    /// or shrink below its inverse) beyond which the corruption counts as
    /// severe.  Sign changes of non-negligible values are always severe.
    pub severe_ratio: f64,
}

impl Default for SeverityThresholds {
    fn default() -> Self {
        Self { masked_tolerance: 1e-3, severe_ratio: 10.0 }
    }
}

/// Classifies the severity of corrupting `original` into `corrupted`.
pub fn classify(original: f64, corrupted: f64, thresholds: SeverityThresholds) -> Severity {
    if corrupted.to_bits() == original.to_bits() {
        return Severity::Identical;
    }
    if !corrupted.is_finite() {
        return Severity::NonFinite;
    }
    let scale = original.abs().max(1e-12);
    let relative = ((corrupted - original) / scale).abs();
    if relative < thresholds.masked_tolerance {
        return Severity::Masked;
    }
    let sign_changed =
        original.signum() != corrupted.signum() && original.abs() > 1e-9 && corrupted.abs() > 1e-9;
    // A value blowing up *or* collapsing toward zero is equally disruptive
    // for the flight behaviour (a way-point at the origin is as wrong as a
    // way-point a kilometre away), so the ratio test is symmetric.
    let magnitude_ratio = corrupted.abs().max(1e-12) / original.abs().max(1e-12);
    if sign_changed
        || magnitude_ratio > thresholds.severe_ratio
        || magnitude_ratio < 1.0 / thresholds.severe_ratio
    {
        Severity::Severe
    } else {
        Severity::Benign
    }
}

/// Classifies a recorded corruption with the default thresholds.
pub fn classify_detail(detail: &CorruptionDetail) -> Severity {
    classify(detail.original, detail.corrupted, SeverityThresholds::default())
}

/// Severity histogram of every possible single-bit flip over a set of
/// operand values, broken down by bit field.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlipSurvey {
    counts: Vec<(BitField, Severity, u64)>,
    total: u64,
}

impl FlipSurvey {
    /// Surveys all 64 single-bit flips of every value in `values`.
    pub fn over_values(values: &[f64], thresholds: SeverityThresholds) -> Self {
        let mut survey = Self::default();
        for &value in values {
            for bit in 0..64u8 {
                let corrupted = flip_bit(value, bit);
                let severity = classify(value, corrupted, thresholds);
                survey.add(BitField::of_bit(bit), severity);
            }
        }
        survey
    }

    fn add(&mut self, field: BitField, severity: Severity) {
        self.total += 1;
        for entry in &mut self.counts {
            if entry.0 == field && entry.1 == severity {
                entry.2 += 1;
                return;
            }
        }
        self.counts.push((field, severity, 1));
    }

    /// Total number of surveyed flips.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of surveyed flips that landed in `field`.
    pub fn total_in_field(&self, field: BitField) -> u64 {
        self.counts.iter().filter(|(f, _, _)| *f == field).map(|(_, _, n)| n).sum()
    }

    /// Number of flips in `field` classified as `severity`.
    pub fn count(&self, field: BitField, severity: Severity) -> u64 {
        self.counts
            .iter()
            .find(|(f, s, _)| *f == field && *s == severity)
            .map(|(_, _, n)| *n)
            .unwrap_or(0)
    }

    /// Fraction of flips in `field` that are harmful (severe or non-finite).
    pub fn harmful_fraction(&self, field: BitField) -> f64 {
        let total = self.total_in_field(field);
        if total == 0 {
            return 0.0;
        }
        let harmful: u64 = Severity::ALL
            .into_iter()
            .filter(|s| s.is_harmful())
            .map(|s| self.count(field, s))
            .sum();
        harmful as f64 / total as f64
    }

    /// Fraction of flips in `field` that are masked or identical.
    pub fn masked_fraction(&self, field: BitField) -> f64 {
        let total = self.total_in_field(field);
        if total == 0 {
            return 0.0;
        }
        let masked = self.count(field, Severity::Masked) + self.count(field, Severity::Identical);
        masked as f64 / total as f64
    }

    /// Fraction of *all* surveyed flips that landed in the mantissa — the
    /// paper's rationale for why a uniformly random flip is usually benign.
    pub fn mantissa_share(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.total_in_field(BitField::Mantissa) as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn representative_values() -> Vec<f64> {
        vec![0.5, -0.5, 2.0, -3.5, 12.0, -40.0, 7.25, 100.0, -0.01, 3.1]
    }

    #[test]
    fn identical_and_masked_and_severe_classification() {
        let thresholds = SeverityThresholds::default();
        assert_eq!(classify(2.0, 2.0, thresholds), Severity::Identical);
        assert_eq!(classify(2.0, 2.0 + 1e-9, thresholds), Severity::Masked);
        assert_eq!(classify(2.0, 2.5, thresholds), Severity::Benign);
        assert_eq!(classify(2.0, -2.0, thresholds), Severity::Severe);
        assert_eq!(classify(2.0, 4.0e100, thresholds), Severity::Severe);
        assert_eq!(classify(2.0, f64::NAN, thresholds), Severity::NonFinite);
        assert_eq!(classify(2.0, f64::INFINITY, thresholds), Severity::NonFinite);
    }

    #[test]
    fn tiny_values_changing_sign_are_not_automatically_severe() {
        let thresholds = SeverityThresholds::default();
        // 1e-15 -> -1e-15 is a sign change of a negligible value; relative to
        // the 1e-12 floor it is small.
        assert_ne!(classify(1e-15, -1e-15, thresholds), Severity::Severe);
    }

    #[test]
    fn classify_detail_uses_the_recorded_values() {
        let detail =
            CorruptionDetail { original: 3.0, corrupted: -3.0, bit: Some(63), field: None };
        assert_eq!(classify_detail(&detail), Severity::Severe);
    }

    #[test]
    fn severity_labels_are_unique_and_harmfulness_is_consistent() {
        let labels: std::collections::HashSet<&str> =
            Severity::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), Severity::ALL.len());
        assert!(Severity::Severe.is_harmful());
        assert!(Severity::NonFinite.is_harmful());
        assert!(!Severity::Masked.is_harmful());
        assert!(!Severity::Benign.is_harmful());
    }

    #[test]
    fn survey_covers_every_flip_once() {
        let values = representative_values();
        let survey = FlipSurvey::over_values(&values, SeverityThresholds::default());
        assert_eq!(survey.total(), values.len() as u64 * 64);
        assert_eq!(survey.total_in_field(BitField::Sign), values.len() as u64);
        assert_eq!(survey.total_in_field(BitField::Exponent), values.len() as u64 * 11);
        assert_eq!(survey.total_in_field(BitField::Mantissa), values.len() as u64 * 52);
        assert!((survey.mantissa_share() - 52.0 / 64.0).abs() < 1e-12);
    }

    #[test]
    fn sign_and_exponent_flips_are_far_more_harmful_than_mantissa_flips() {
        // The paper's §III-B finding, reproduced at the value level.
        let survey =
            FlipSurvey::over_values(&representative_values(), SeverityThresholds::default());
        assert_eq!(survey.harmful_fraction(BitField::Sign), 1.0);
        assert!(survey.harmful_fraction(BitField::Exponent) > 0.6);
        assert!(survey.harmful_fraction(BitField::Mantissa) < 0.05);
        assert!(survey.masked_fraction(BitField::Mantissa) > 0.7);
    }

    #[test]
    fn empty_survey_is_well_behaved() {
        let survey = FlipSurvey::default();
        assert_eq!(survey.total(), 0);
        assert_eq!(survey.harmful_fraction(BitField::Sign), 0.0);
        assert_eq!(survey.masked_fraction(BitField::Mantissa), 0.0);
        assert_eq!(survey.mantissa_share(), 0.0);
    }
}
