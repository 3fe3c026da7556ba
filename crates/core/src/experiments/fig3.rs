//! Fig. 3: end-to-end fault-tolerance of individual kernels (flight time and
//! success rate when a single bit flip lands in each kernel, Sparse
//! environment).

use mavfi_fault::campaign::{CampaignPlan, TriggerWindow};
use mavfi_fault::model::FaultModel;
use mavfi_fault::target::InjectionTarget;
use mavfi_ppc::kernel::KernelId;
use mavfi_sim::env::EnvironmentKind;
use serde::{Deserialize, Serialize};

use crate::error::MavfiError;
use crate::exec::{CampaignExecutor, InjectionSweep};
use crate::qof::QofSummary;
use crate::report::{percent, seconds, TextTable};

/// Configuration of the Fig. 3 experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig3Config {
    /// Environment (the paper uses Sparse).
    pub environment: EnvironmentKind,
    /// Injection runs per kernel (the paper uses 100).
    pub runs_per_kernel: usize,
    /// Golden runs for the baseline column.
    pub golden_runs: usize,
    /// Base seed.
    pub base_seed: u64,
    /// Mission time budget per run (s).
    pub mission_time_budget: f64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Self {
            environment: EnvironmentKind::Sparse,
            runs_per_kernel: 100,
            golden_runs: 100,
            base_seed: 30,
            mission_time_budget: 400.0,
        }
    }
}

impl Fig3Config {
    /// A reduced configuration for tests and quick benches.
    pub fn quick() -> Self {
        Self { runs_per_kernel: 2, golden_runs: 2, mission_time_budget: 240.0, ..Self::default() }
    }
}

/// Per-kernel result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSensitivity {
    /// The kernel the faults were injected into.
    pub kernel: KernelId,
    /// QoF summary over the injection runs.
    pub summary: QofSummary,
}

/// Full Fig. 3 result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Error-free baseline.
    pub golden: QofSummary,
    /// One entry per studied kernel, in the paper's order.
    pub kernels: Vec<KernelSensitivity>,
}

impl Fig3Result {
    /// Renders the result as a table with the same rows as Fig. 3a/3b.
    pub fn to_table(&self) -> String {
        let mut table = TextTable::new([
            "Target",
            "Success rate",
            "Mean flight time",
            "Max flight time",
            "Flight time inflation",
        ]);
        table.push_row([
            "Golden".to_owned(),
            percent(self.golden.success_rate),
            seconds(self.golden.mean_flight_time_s),
            seconds(self.golden.max_flight_time_s),
            "-".to_owned(),
        ]);
        for entry in &self.kernels {
            table.push_row([
                entry.kernel.label().to_owned(),
                percent(entry.summary.success_rate),
                seconds(entry.summary.mean_flight_time_s),
                seconds(entry.summary.max_flight_time_s),
                percent(entry.summary.worst_case_inflation_vs(&self.golden)),
            ]);
        }
        table.render()
    }

    /// Mean worst-case flight-time inflation over the planning and control
    /// kernels minus the perception kernels — positive when planning and
    /// control are more critical, the paper's headline finding.
    pub fn planning_control_excess_inflation(&self) -> f64 {
        let inflation = |filter: &dyn Fn(KernelId) -> bool| {
            let entries: Vec<&KernelSensitivity> =
                self.kernels.iter().filter(|entry| filter(entry.kernel)).collect();
            if entries.is_empty() {
                return 0.0;
            }
            entries
                .iter()
                .map(|entry| entry.summary.worst_case_inflation_vs(&self.golden))
                .sum::<f64>()
                / entries.len() as f64
        };
        let perception = inflation(&|kernel| {
            matches!(kernel, KernelId::PointCloudGeneration | KernelId::OctoMap)
        });
        let downstream = inflation(&|kernel| {
            matches!(
                kernel,
                KernelId::Rrt | KernelId::RrtConnect | KernelId::RrtStar | KernelId::Pid
            )
        });
        downstream - perception
    }
}

/// Runs the Fig. 3 experiment.
///
/// # Errors
///
/// Propagates mission-runner errors.
pub fn run(config: &Fig3Config) -> Result<Fig3Result, MavfiError> {
    // Plan every injection up front through the fault crate's campaign
    // planner (same RNG consumption order as the original serial loops),
    // then hand golden + injection runs to the execution engine as one
    // sharded run list.
    let targets: Vec<InjectionTarget> =
        KernelId::FIG3_KERNELS.into_iter().map(InjectionTarget::Kernel).collect();
    let sweep = InjectionSweep {
        environment: config.environment,
        base_seed: config.base_seed,
        mission_time_budget: config.mission_time_budget,
        golden_runs: config.golden_runs,
        runs_per_target: config.runs_per_kernel,
        plan: CampaignPlan::new(
            &targets,
            config.runs_per_kernel,
            FaultModel::default(),
            TriggerWindow::new(10, 300),
            config.base_seed ^ 0xf163,
        ),
    };
    let outcome = CampaignExecutor::new(0).run_sweep(&sweep)?;

    let kernels = KernelId::FIG3_KERNELS
        .iter()
        .zip(outcome.injected_groups(config.runs_per_kernel))
        .map(|(&kernel, summary)| KernelSensitivity { kernel, summary })
        .collect();

    Ok(Fig3Result { golden: QofSummary::from_runs(&outcome.golden), kernels })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavfi_sim::world::MissionStatus;

    #[test]
    fn table_contains_every_kernel_row() {
        let golden = QofSummary::from_runs(&[crate::qof::QofMetrics {
            status: MissionStatus::Succeeded,
            flight_time_s: 100.0,
            energy_j: 1000.0,
            distance_m: 300.0,
        }]);
        let result = Fig3Result {
            golden: golden.clone(),
            kernels: KernelId::FIG3_KERNELS
                .into_iter()
                .map(|kernel| KernelSensitivity { kernel, summary: golden.clone() })
                .collect(),
        };
        let table = result.to_table();
        for kernel in KernelId::FIG3_KERNELS {
            assert!(table.contains(kernel.label()), "missing row for {kernel:?}");
        }
        assert!(table.contains("Golden"));
        assert_eq!(result.planning_control_excess_inflation(), 0.0);
    }

    #[test]
    fn quick_config_is_small() {
        let config = Fig3Config::quick();
        assert!(config.runs_per_kernel <= 5);
        assert_eq!(config.environment, EnvironmentKind::Sparse);
    }
}
