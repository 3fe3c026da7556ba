//! Campaign helpers shared by the campaign workloads: the flights a
//! campaign is made of, flown through the traced loop and folded the way
//! the library folds them, for comparison with the library's result.

use mavfi::exec::CampaignExecutor;
use mavfi::{
    CampaignConfig, EnvironmentCampaign, MissionOutcome, MissionSpec, Protection, QofMetrics,
    TrainedDetectors,
};
use mavfi_ppc::states::Stage;

use crate::flight::{fly, Flight, FlightCounts};
use crate::spans::{SpanId, Tracer};

/// Mission flights per campaign: every golden run, and each planned fault
/// flown unprotected, with D&R(G) and with D&R(A).
pub fn missions(config: &CampaignConfig) -> usize {
    config.golden_runs + 3 * Stage::ALL.len() * config.injections_per_stage
}

/// The mission a campaign flies for run index `index`, derived as the
/// library derives it.
fn mission_spec(config: &CampaignConfig, index: u64) -> MissionSpec {
    MissionSpec::new(config.environment, config.base_seed.wrapping_add(index * 31 + 1))
        .with_time_budget(config.mission_time_budget)
}

/// The campaign's results folded in run order, as the library folds them.
#[derive(Debug, Default)]
pub struct Fold {
    golden: Vec<QofMetrics>,
    golden_ticks: u64,
    golden_compute_ms: f64,
    injected: Vec<QofMetrics>,
    gaussian: Vec<QofMetrics>,
    autoencoder: Vec<QofMetrics>,
    gaussian_recomputations: [u64; Stage::COUNT],
    autoencoder_recomputations: [u64; Stage::COUNT],
}

fn add_recomputations(outcome: &MissionOutcome, totals: &mut [u64; Stage::COUNT]) {
    if let Some(stats) = &outcome.detector {
        for (total, stage) in totals.iter_mut().zip(Stage::ALL) {
            *total += stats.recomputations_of(stage);
        }
    }
}

impl Fold {
    /// `true` when the library's campaign holds exactly these results.
    pub fn matches(&self, config: &CampaignConfig, campaign: &EnvironmentCampaign) -> bool {
        let divisor = config.golden_runs.max(1) as f64;
        let stages = |totals: &[u64; Stage::COUNT]| -> Vec<(Stage, u64)> {
            Stage::ALL.into_iter().zip(totals.iter().copied()).collect()
        };
        campaign.golden.runs == self.golden
            && campaign.injected.runs == self.injected
            && campaign.gaussian.runs == self.gaussian
            && campaign.autoencoder.runs == self.autoencoder
            && campaign.gaussian_recomputations == stages(&self.gaussian_recomputations)
            && campaign.autoencoder_recomputations == stages(&self.autoencoder_recomputations)
            && campaign.golden_mean_ticks == self.golden_ticks as f64 / divisor
            && campaign.golden_mean_compute_ms == self.golden_compute_ms / divisor
    }
}

/// Flies every mission of `config` through the traced loop, in run order,
/// under one `campaign` span, and folds the outcomes.
pub fn fly_traced(
    config: &CampaignConfig,
    detectors: &TrainedDetectors,
    tracer: &mut Tracer,
    parent: SpanId,
    counts: &mut FlightCounts,
) -> Fold {
    let span = tracer.open("campaign", Some(parent));
    let mut fold = Fold::default();
    for index in 0..config.golden_runs as u64 {
        let flight =
            Flight { spec: mission_spec(config, index), fault: None, protection: Protection::None };
        let outcome = fly(&flight, None, tracer, span, counts);
        fold.golden_ticks += outcome.pipeline.ticks;
        fold.golden_compute_ms += outcome.pipeline.total_compute_ms();
        fold.golden.push(outcome.qof);
    }
    for (index, fault) in CampaignExecutor::plan_faults(config).specs().iter().enumerate() {
        let spec = mission_spec(config, index as u64);
        let [injected, gaussian, autoencoder] = Protection::ALL.map(|protection| {
            let flight = Flight { spec, fault: Some(*fault), protection };
            fly(&flight, Some(detectors), tracer, span, counts)
        });
        fold.injected.push(injected.qof);
        add_recomputations(&gaussian, &mut fold.gaussian_recomputations);
        fold.gaussian.push(gaussian.qof);
        add_recomputations(&autoencoder, &mut fold.autoencoder_recomputations);
        fold.autoencoder.push(autoencoder.qof);
    }
    tracer.close(span);
    fold
}

/// Success rate of a setting over several campaigns, in percent.
pub fn success_pct<'a>(settings: impl Iterator<Item = &'a mavfi::SettingResult>) -> f64 {
    let (mut successes, mut runs) = (0usize, 0usize);
    for setting in settings {
        successes += setting.runs.iter().filter(|run| run.is_success()).count();
        runs += setting.runs.len();
    }
    crate::report::pct(successes as f64, runs as f64)
}
