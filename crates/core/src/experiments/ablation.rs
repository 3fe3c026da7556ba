//! Ablation studies behind the paper's design choices: the Gaussian `n`
//! parameter, the autoencoder alarm threshold, the choice of detector family
//! and the autoencoder architecture.
//!
//! The paper fixes these as design points (§IV-C: "The number of sigma n is
//! a configurable variable that can be optimized based on task complexity";
//! §IV-D: a 13-6-3 autoencoder thresholded at the training upper bound).
//! These ablations expose the operating curves behind the choices using
//! stream-level detection quality, which keeps them cheap enough to run on
//! every `cargo bench` invocation.

use mavfi_detect::calibration::{
    roc_curve, sweep_aad_threshold, sweep_gad_nsigma, CorruptionProfile, LabeledStream,
    OperatingPoint, SyntheticAnomalyConfig,
};
use mavfi_detect::gad::{CgadConfig, GadBank};
use mavfi_detect::mahalanobis::{MahalanobisConfig, MahalanobisDetector};
use mavfi_detect::metrics::RocCurve;
use mavfi_detect::training::TelemetrySet;
use mavfi_detect::{AadConfig, AadDetector};
use mavfi_nn::autoencoder::Autoencoder;
use mavfi_nn::train::{train_autoencoder, TrainConfig};
use mavfi_ppc::states::MonitoredStates;
use mavfi_sim::env::EnvironmentKind;
use serde::{Deserialize, Serialize};

use crate::config::MissionSpec;
use crate::error::MavfiError;
use crate::report::{percent, TextTable};
use crate::runner::MissionRunner;

const DIM: usize = MonitoredStates::DIM;

/// Configuration of the ablation studies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationConfig {
    /// Error-free missions flown to collect telemetry.
    pub training_missions: usize,
    /// Base seed of the randomized training environments.
    pub training_seed: u64,
    /// Time budget of each telemetry mission (s).
    pub mission_time_budget: f64,
    /// Autoencoder training epochs.
    pub epochs: usize,
    /// Fraction of the telemetry held out for evaluation streams.
    pub eval_fraction: f64,
    /// Fraction of evaluation samples that carry a corruption.
    pub corruption_rate: f64,
    /// Magnitude (code units) of the exponent-flip-style corruption.
    pub exponent_magnitude: f64,
    /// Level (code units) of the in-range correlation-breaking corruption.
    pub correlation_level: f64,
    /// Gaussian `n_sigma` values to sweep.
    pub n_sigmas: Vec<f64>,
    /// Autoencoder threshold margins to sweep (relative to the trained
    /// threshold).
    pub aad_margins: Vec<f64>,
    /// Autoencoder bottleneck widths to sweep (the paper uses 3).
    pub bottlenecks: Vec<usize>,
}

impl Default for AblationConfig {
    fn default() -> Self {
        Self {
            training_missions: 3,
            training_seed: 7_100,
            mission_time_budget: 60.0,
            epochs: 25,
            eval_fraction: 0.35,
            corruption_rate: 0.05,
            exponent_magnitude: 6_000.0,
            correlation_level: 6.0,
            n_sigmas: vec![1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0],
            aad_margins: vec![0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0],
            bottlenecks: vec![2, 3, 6],
        }
    }
}

impl AblationConfig {
    /// A reduced configuration for tests.
    pub fn quick() -> Self {
        Self {
            training_missions: 1,
            mission_time_budget: 25.0,
            epochs: 8,
            n_sigmas: vec![3.0, 6.0],
            aad_margins: vec![0.5, 2.0],
            bottlenecks: vec![3],
            ..Self::default()
        }
    }
}

/// Stream-level quality of one detector family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorQuality {
    /// Detector family name.
    pub name: String,
    /// ROC AUC on the exponent-flip stream.
    pub auc_exponent: f64,
    /// ROC AUC on the in-range correlation-break stream.
    pub auc_correlation: f64,
    /// True-positive rate on the exponent-flip stream while keeping the
    /// false-positive rate at or below 1%.
    pub tpr_at_1pct_fpr: f64,
}

/// One point of the autoencoder architecture sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArchitecturePoint {
    /// Bottleneck (latent) width.
    pub bottleneck: usize,
    /// Total trainable parameters of the autoencoder.
    pub parameters: usize,
    /// Final mean training loss.
    pub final_loss: f64,
    /// ROC AUC on the exponent-flip stream.
    pub auc_exponent: f64,
}

/// Full ablation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationResult {
    /// Gaussian `n_sigma` sweep on the exponent-flip stream.
    pub nsigma_sweep: Vec<OperatingPoint>,
    /// Autoencoder threshold-margin sweep on the exponent-flip stream.
    pub margin_sweep: Vec<OperatingPoint>,
    /// Per-detector stream-level quality.
    pub detectors: Vec<DetectorQuality>,
    /// Autoencoder architecture sweep.
    pub architectures: Vec<ArchitecturePoint>,
    /// Number of training samples used.
    pub training_samples: usize,
    /// Number of evaluation samples used.
    pub evaluation_samples: usize,
}

impl AblationResult {
    /// Renders the Gaussian `n_sigma` sweep.
    pub fn nsigma_table(&self) -> String {
        operating_point_table("n_sigma", &self.nsigma_sweep)
    }

    /// Renders the autoencoder threshold-margin sweep.
    pub fn margin_table(&self) -> String {
        operating_point_table("threshold margin", &self.margin_sweep)
    }

    /// Renders the detector-family comparison.
    pub fn detector_table(&self) -> String {
        let mut table = TextTable::new([
            "Detector",
            "AUC (exponent flips)",
            "AUC (correlation breaks)",
            "TPR @ 1% FPR",
        ]);
        for quality in &self.detectors {
            table.push_row([
                quality.name.clone(),
                format!("{:.3}", quality.auc_exponent),
                format!("{:.3}", quality.auc_correlation),
                percent(quality.tpr_at_1pct_fpr),
            ]);
        }
        table.render()
    }

    /// Renders the autoencoder architecture sweep.
    pub fn architecture_table(&self) -> String {
        let mut table =
            TextTable::new(["Bottleneck", "Parameters", "Final loss", "AUC (exponent flips)"]);
        for point in &self.architectures {
            table.push_row([
                point.bottleneck.to_string(),
                point.parameters.to_string(),
                format!("{:.5}", point.final_loss),
                format!("{:.3}", point.auc_exponent),
            ]);
        }
        table.render()
    }

    /// Renders every ablation table in one block.
    pub fn to_table(&self) -> String {
        format!(
            "Gaussian n-sigma sweep (exponent-flip stream)\n{}\n\
             Autoencoder threshold-margin sweep (exponent-flip stream)\n{}\n\
             Detector families ({} train / {} eval samples)\n{}\n\
             Autoencoder architecture sweep\n{}",
            self.nsigma_table(),
            self.margin_table(),
            self.training_samples,
            self.evaluation_samples,
            self.detector_table(),
            self.architecture_table(),
        )
    }

    /// The detector quality entry with the given name, if present.
    pub fn detector(&self, name: &str) -> Option<&DetectorQuality> {
        self.detectors.iter().find(|d| d.name == name)
    }
}

fn operating_point_table(parameter: &str, points: &[OperatingPoint]) -> String {
    let mut table = TextTable::new([parameter, "Precision", "Recall", "F1", "False-positive rate"]);
    for point in points {
        table.push_row([
            format!("{:.2}", point.parameter),
            percent(point.matrix.precision()),
            percent(point.matrix.recall()),
            format!("{:.3}", point.matrix.f1()),
            percent(point.matrix.false_positive_rate()),
        ]);
    }
    table.render()
}

/// Runs the ablation studies.
///
/// # Errors
///
/// Propagates mission-runner errors from telemetry collection.
pub fn run(config: &AblationConfig) -> Result<AblationResult, MavfiError> {
    // 1. Collect error-free telemetry from randomized environments, exactly
    //    like detector training (§V).
    let mut telemetry = TelemetrySet::new();
    for index in 0..config.training_missions.max(1) {
        let spec =
            MissionSpec::new(EnvironmentKind::Randomized, config.training_seed + index as u64)
                .with_time_budget(config.mission_time_budget);
        let _ = MissionRunner::new(spec).run_collecting_telemetry(&mut telemetry);
    }
    let samples = telemetry.samples();
    let split = ((samples.len() as f64) * (1.0 - config.eval_fraction.clamp(0.05, 0.95))) as usize;
    let split = split.clamp(1, samples.len().saturating_sub(1).max(1));
    let (train, eval) = samples.split_at(split);
    let train: Vec<[f64; DIM]> = train.to_vec();
    let eval: Vec<[f64; DIM]> = eval.to_vec();

    // 2. Labelled evaluation streams.
    let exponent_stream = LabeledStream::synthesize(
        &eval,
        SyntheticAnomalyConfig {
            corruption_rate: config.corruption_rate,
            profile: CorruptionProfile::ExponentFlip { magnitude: config.exponent_magnitude },
            seed: config.training_seed ^ 0xab1,
        },
    );
    let correlation_stream = LabeledStream::synthesize(
        &eval,
        SyntheticAnomalyConfig {
            corruption_rate: config.corruption_rate,
            profile: CorruptionProfile::CorrelationBreak { level: config.correlation_level },
            seed: config.training_seed ^ 0xab2,
        },
    );

    // 3. Fit every detector family on the training split.
    let mut gad = GadBank::new(CgadConfig::default());
    gad.prime(&train);
    let mahalanobis = MahalanobisDetector::fit(&train, MahalanobisConfig::default());
    let train_config = TrainConfig { epochs: config.epochs, ..TrainConfig::default() };
    let (aad, _) = AadDetector::train(&train, AadConfig::default(), &train_config);

    let quality = |name: &str, exponent: RocCurve, correlation: RocCurve| DetectorQuality {
        name: name.to_owned(),
        auc_exponent: exponent.auc(),
        auc_correlation: correlation.auc(),
        tpr_at_1pct_fpr: exponent.tpr_at_fpr(0.01),
    };
    let detectors = vec![
        quality(
            "Gaussian (GAD)",
            roc_curve(&gad, &exponent_stream),
            roc_curve(&gad, &correlation_stream),
        ),
        quality(
            "Mahalanobis",
            roc_curve(&mahalanobis, &exponent_stream),
            roc_curve(&mahalanobis, &correlation_stream),
        ),
        quality(
            "Autoencoder (AAD)",
            roc_curve(&aad, &exponent_stream),
            roc_curve(&aad, &correlation_stream),
        ),
    ];

    // 4. Parameter sweeps.
    let nsigma_sweep =
        sweep_gad_nsigma(&train, &exponent_stream, &config.n_sigmas, CgadConfig::default());
    let margin_sweep = sweep_aad_threshold(&aad, &exponent_stream, &config.aad_margins);

    // 5. Autoencoder architecture sweep on normalised inputs.
    let (mean, std) = aad.normalization();
    let normalize = |sample: &[f64; DIM]| -> Vec<f64> {
        sample
            .iter()
            .zip(mean)
            .zip(std)
            .map(|((value, mean), std)| (value - mean) / std * AadConfig::default().input_scale)
            .collect()
    };
    let normalized_train: Vec<Vec<f64>> = train.iter().map(normalize).collect();
    let architectures = config
        .bottlenecks
        .iter()
        .map(|&bottleneck| {
            let mut autoencoder = Autoencoder::new(DIM, &[6, bottleneck], 7);
            let report = train_autoencoder(&mut autoencoder, &normalized_train, &train_config);
            let scored: Vec<(f64, mavfi_detect::metrics::GroundTruth)> = exponent_stream
                .samples()
                .iter()
                .map(|(sample, truth)| {
                    (autoencoder.reconstruction_error(&normalize(sample)), *truth)
                })
                .collect();
            ArchitecturePoint {
                bottleneck,
                parameters: autoencoder.network().parameter_count(),
                final_loss: report.final_loss(),
                auc_exponent: RocCurve::from_scores(&scored).auc(),
            }
        })
        .collect();

    Ok(AblationResult {
        nsigma_sweep,
        margin_sweep,
        detectors,
        architectures,
        training_samples: train.len(),
        evaluation_samples: eval.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_is_small() {
        let config = AblationConfig::quick();
        assert_eq!(config.training_missions, 1);
        assert!(config.n_sigmas.len() <= 3);
    }

    #[test]
    fn tables_render_from_synthetic_results() {
        let result = AblationResult {
            nsigma_sweep: vec![],
            margin_sweep: vec![],
            detectors: vec![DetectorQuality {
                name: "Gaussian (GAD)".to_owned(),
                auc_exponent: 0.98,
                auc_correlation: 0.55,
                tpr_at_1pct_fpr: 0.9,
            }],
            architectures: vec![ArchitecturePoint {
                bottleneck: 3,
                parameters: 200,
                final_loss: 0.01,
                auc_exponent: 0.97,
            }],
            training_samples: 100,
            evaluation_samples: 40,
        };
        let table = result.to_table();
        assert!(table.contains("Gaussian (GAD)"));
        assert!(table.contains("Bottleneck"));
        assert!(result.detector("Gaussian (GAD)").is_some());
        assert!(result.detector("nonexistent").is_none());
    }
}
