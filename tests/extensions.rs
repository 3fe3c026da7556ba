//! Integration tests of the reproduction's extensions beyond the paper's
//! core experiments: the ablation/calibration experiment driver and the
//! fault-model characterisation.

use mavfi::experiments::ablation::{self, AblationConfig};
use mavfi::experiments::fault_model::{self, FaultModelConfig};

#[test]
fn ablation_quick_run_produces_consistent_detector_rankings() {
    let result = ablation::run(&AblationConfig::quick()).expect("ablation run");
    assert!(result.training_samples > 0);
    assert!(result.evaluation_samples > 0);
    assert_eq!(result.nsigma_sweep.len(), AblationConfig::quick().n_sigmas.len());
    assert_eq!(result.margin_sweep.len(), AblationConfig::quick().aad_margins.len());
    assert_eq!(result.detectors.len(), 3);
    assert_eq!(result.architectures.len(), 1);

    // Every AUC is a probability and every detector separates exponent-flip
    // corruption clearly better than chance.
    for detector in &result.detectors {
        assert!((0.0..=1.0).contains(&detector.auc_exponent), "{detector:?}");
        assert!((0.0..=1.0).contains(&detector.auc_correlation), "{detector:?}");
        assert!(
            detector.auc_exponent > 0.7,
            "{} separates exponent flips poorly: {}",
            detector.name,
            detector.auc_exponent
        );
    }
    // The table renders every family.
    let table = result.to_table();
    for name in ["Gaussian (GAD)", "Mahalanobis", "Autoencoder (AAD)"] {
        assert!(table.contains(name), "missing {name} in\n{table}");
    }
}

#[test]
fn fault_model_survey_reproduces_the_bit_field_finding() {
    let result = fault_model::run(&FaultModelConfig::quick()).expect("fault-model run");
    assert!(result.values_surveyed > 10);
    assert!(
        result.sign_exponent_dominate(),
        "sign/exponent flips should be more harmful than mantissa flips:\n{}",
        result.to_table()
    );
    // Most random flips land in the mantissa (52 of 64 bits).
    assert!((result.survey.mantissa_share() - 52.0 / 64.0).abs() < 1e-9);
}
