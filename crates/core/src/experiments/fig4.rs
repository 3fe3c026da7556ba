//! Fig. 4: fault tolerance of individual inter-kernel states (flight time
//! and success rate when a single bit flip corrupts each monitored state).

use mavfi_fault::campaign::{CampaignPlan, TriggerWindow};
use mavfi_fault::model::FaultModel;
use mavfi_fault::target::InjectionTarget;
use mavfi_ppc::states::{Stage, StateField};
use mavfi_sim::env::EnvironmentKind;

use crate::error::MavfiError;
use crate::exec::{CampaignExecutor, InjectionSweep};
use crate::qof::QofSummary;
use crate::report::{percent, seconds, TextTable};

/// Configuration of the Fig. 4 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig4Config {
    /// Environment (the paper uses Sparse).
    pub environment: EnvironmentKind,
    /// Injection runs per inter-kernel state (the paper uses 100).
    pub runs_per_state: usize,
    /// Golden runs for the baseline.
    pub golden_runs: usize,
    /// Base seed.
    pub base_seed: u64,
    /// Mission time budget per run (s).
    pub mission_time_budget: f64,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Self {
            environment: EnvironmentKind::Sparse,
            runs_per_state: 100,
            golden_runs: 100,
            base_seed: 40,
            mission_time_budget: 400.0,
        }
    }
}

impl Fig4Config {
    /// A reduced configuration for tests and quick benches.
    pub fn quick() -> Self {
        Self { runs_per_state: 2, golden_runs: 2, mission_time_budget: 240.0, ..Self::default() }
    }
}

/// Per-state result.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSensitivity {
    /// The corrupted inter-kernel state.
    pub field: StateField,
    /// QoF summary over the injection runs.
    pub summary: QofSummary,
}

/// Full Fig. 4 result.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Result {
    /// Error-free baseline.
    pub golden: QofSummary,
    /// One entry per monitored state, in [`StateField::ALL`] order.
    pub states: Vec<StateSensitivity>,
}

impl Fig4Result {
    /// Renders the per-state table grouped by stage, as in Fig. 4.
    pub fn to_table(&self) -> String {
        let mut table = TextTable::new([
            "Stage",
            "Inter-kernel state",
            "Success rate",
            "Mean flight time",
            "Max flight time",
            "Inflation vs golden",
        ]);
        table.push_row([
            "-".to_owned(),
            "Golden".to_owned(),
            percent(self.golden.success_rate),
            seconds(self.golden.mean_flight_time_s),
            seconds(self.golden.max_flight_time_s),
            "-".to_owned(),
        ]);
        for stage in Stage::ALL {
            for entry in self.states.iter().filter(|entry| entry.field.stage() == stage) {
                table.push_row([
                    stage.label().to_owned(),
                    entry.field.label().to_owned(),
                    percent(entry.summary.success_rate),
                    seconds(entry.summary.mean_flight_time_s),
                    seconds(entry.summary.max_flight_time_s),
                    percent(entry.summary.worst_case_inflation_vs(&self.golden)),
                ]);
            }
        }
        table.render()
    }
}

/// Runs the Fig. 4 experiment.
///
/// # Errors
///
/// Propagates mission-runner errors.
pub fn run(config: &Fig4Config) -> Result<Fig4Result, MavfiError> {
    // Plan every injection up front through the fault crate's campaign
    // planner (same RNG consumption order as the original serial loops),
    // then hand golden + injection runs to the execution engine as one
    // sharded run list.
    let targets: Vec<InjectionTarget> =
        StateField::ALL.into_iter().map(InjectionTarget::State).collect();
    let sweep = InjectionSweep {
        environment: config.environment,
        base_seed: config.base_seed,
        mission_time_budget: config.mission_time_budget,
        golden_runs: config.golden_runs,
        runs_per_target: config.runs_per_state,
        plan: CampaignPlan::new(
            &targets,
            config.runs_per_state,
            FaultModel::default(),
            TriggerWindow::new(10, 300),
            config.base_seed ^ 0xf164,
        ),
    };
    let outcome = CampaignExecutor::new(0).run_sweep(&sweep)?;

    let states = StateField::ALL
        .iter()
        .zip(outcome.injected_groups(config.runs_per_state))
        .map(|(&field, summary)| StateSensitivity { field, summary })
        .collect();

    Ok(Fig4Result { golden: QofSummary::from_runs(&outcome.golden), states })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavfi_sim::world::MissionStatus;

    #[test]
    fn table_lists_all_thirteen_states() {
        let summary = QofSummary::from_runs(&[crate::qof::QofMetrics {
            status: MissionStatus::Succeeded,
            flight_time_s: 90.0,
            energy_j: 900.0,
            distance_m: 270.0,
        }]);
        let result = Fig4Result {
            golden: summary.clone(),
            states: StateField::ALL
                .into_iter()
                .map(|field| StateSensitivity { field, summary: summary.clone() })
                .collect(),
        };
        let table = result.to_table();
        for field in StateField::ALL {
            assert!(table.contains(field.label()), "missing {field:?}");
        }
    }

    #[test]
    fn quick_config_covers_all_states_cheaply() {
        let config = Fig4Config::quick();
        assert!(config.runs_per_state * StateField::ALL.len() <= 30);
    }
}
