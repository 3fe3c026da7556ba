//! Fault-model characterisation (§III-B): which bit fields matter.
//!
//! The paper observes that "faults in sign and exponent fields have a
//! greater impact on the UAV's resilience" and that most random flips land
//! in the (largely benign) mantissa.  This experiment quantifies both claims
//! over the values the pipeline actually produces: it flies one golden
//! mission, samples the monitored inter-kernel states, and surveys every
//! possible single-bit flip of those values.

use mavfi_fault::bitflip::BitField;
use mavfi_fault::severity::{FlipSurvey, Severity, SeverityThresholds};
use mavfi_sim::env::EnvironmentKind;

use crate::config::MissionSpec;
use crate::error::MavfiError;
use crate::report::{percent, TextTable};
use crate::runner::MissionRunner;

/// Configuration of the fault-model characterisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultModelConfig {
    /// Environment of the golden mission whose states are surveyed.
    pub environment: EnvironmentKind,
    /// Mission seed.
    pub seed: u64,
    /// Mission time budget (s).
    pub mission_time_budget: f64,
    /// Keep every n-th telemetry sample (the survey flips all 64 bits of all
    /// 13 states of every kept sample, so thinning keeps it cheap).
    pub sample_stride: usize,
    /// Severity classification thresholds.
    pub thresholds: SeverityThresholds,
}

impl Default for FaultModelConfig {
    fn default() -> Self {
        Self {
            environment: EnvironmentKind::Sparse,
            seed: 11,
            mission_time_budget: 120.0,
            sample_stride: 10,
            thresholds: SeverityThresholds::default(),
        }
    }
}

impl FaultModelConfig {
    /// A reduced configuration for tests.
    pub fn quick() -> Self {
        Self { mission_time_budget: 30.0, sample_stride: 25, ..Self::default() }
    }
}

/// Result of the fault-model characterisation.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModelResult {
    /// The flip survey over the sampled state values.
    pub survey: FlipSurvey,
    /// Number of state values surveyed.
    pub values_surveyed: usize,
}

impl FaultModelResult {
    /// Renders the per-bit-field severity breakdown.
    pub fn to_table(&self) -> String {
        let mut table = TextTable::new([
            "Bit field",
            "Share of random flips",
            "Masked / identical",
            "Benign",
            "Harmful (severe + non-finite)",
        ]);
        for field in BitField::ALL {
            let total = self.survey.total_in_field(field).max(1) as f64;
            let benign = self.survey.count(field, Severity::Benign) as f64 / total;
            table.push_row([
                format!("{field:?}"),
                percent(field.width() as f64 / 64.0),
                percent(self.survey.masked_fraction(field)),
                percent(benign),
                percent(self.survey.harmful_fraction(field)),
            ]);
        }
        table.render()
    }

    /// The paper's qualitative claim: sign and exponent flips are more
    /// harmful than mantissa flips.
    pub fn sign_exponent_dominate(&self) -> bool {
        let mantissa = self.survey.harmful_fraction(BitField::Mantissa);
        self.survey.harmful_fraction(BitField::Sign) > mantissa
            && self.survey.harmful_fraction(BitField::Exponent) > mantissa
    }
}

/// Runs the fault-model characterisation.
///
/// # Errors
///
/// Propagates mission-runner errors from telemetry collection.
pub fn run(config: &FaultModelConfig) -> Result<FaultModelResult, MavfiError> {
    let spec = MissionSpec::new(config.environment, config.seed)
        .with_time_budget(config.mission_time_budget);
    let outcome = MissionRunner::new(spec).run_golden();

    // Survey the raw positions of the flight trail plus representative
    // command magnitudes: these are the operand values the paper's
    // instruction-level injector would corrupt.
    let stride = config.sample_stride.max(1);
    let mut values: Vec<f64> = Vec::new();
    for point in outcome.trail.iter().step_by(stride) {
        values.extend_from_slice(&[point.x, point.y, point.z]);
    }
    // Include a spread of velocity/time-scale magnitudes so that the survey
    // is not dominated by large position coordinates.
    values.extend_from_slice(&[0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0]);
    let values: Vec<f64> = values.into_iter().filter(|v| v.is_finite() && *v != 0.0).collect();

    let survey = FlipSurvey::over_values(&values, config.thresholds);
    Ok(FaultModelResult { survey, values_surveyed: values.len() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_from_a_synthetic_survey() {
        let survey =
            FlipSurvey::over_values(&[1.0, -2.5, 40.0, 0.1], SeverityThresholds::default());
        let result = FaultModelResult { survey, values_surveyed: 4 };
        let table = result.to_table();
        assert!(table.contains("Sign"));
        assert!(table.contains("Exponent"));
        assert!(table.contains("Mantissa"));
        assert!(result.sign_exponent_dominate());
    }

    #[test]
    fn quick_config_thins_the_survey() {
        assert!(FaultModelConfig::quick().sample_stride >= 10);
    }
}
