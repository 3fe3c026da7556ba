//! The campaign execution engine: one sharded, order-restoring pass over a
//! campaign's full run list.
//!
//! [`CampaignExecutor`] builds the complete run list of a campaign — one job
//! per seed index, flying that seed's golden run and its planned per-stage
//! injection on one trunk — and shards it across a [`WorkerPool`], one
//! campaign job per pool unit.  Each run's seed is derived from
//! `(base_seed, run_index)` exactly as in the sequential path, and
//! [`MissionOutcome`]s stream through the pool's order-restoring aggregator,
//! so the assembled [`EnvironmentCampaign`] is byte-identical to sequential
//! execution for any worker count while bulky per-run artifacts (sampled
//! trails) are dropped as soon as their statistics are folded in.

use std::ops::Range;
use std::sync::Arc;

use mavfi_fault::campaign::CampaignPlan;
use mavfi_fault::injector::FaultSpec;
use mavfi_fault::target::InjectionTarget;
use mavfi_ppc::planning::PlannerAlgorithm;
use mavfi_ppc::states::Stage;
use mavfi_sim::env::EnvironmentKind;
use mavfi_telemetry::{MissionReport, TelemetryReport, TrunkCounters};
use serde::{Deserialize, Serialize};

use crate::campaign::{CampaignConfig, EnvironmentCampaign, SettingResult};
use crate::config::{MissionSpec, Protection, TrainingSpec};
use crate::error::MavfiError;
use crate::exec::cache::TrainedDetectorCache;
use crate::exec::pool::WorkerPool;
use crate::qof::{QofMetrics, QofSummary};
use crate::runner::{Landing, MissionOutcome, MissionRunner, TrainedDetectors};

/// Where a campaign's trained detectors come from.
#[derive(Debug, Clone)]
enum DetectorSource {
    /// An already-trained bank, shared as-is.
    Shared(Arc<TrainedDetectors>),
    /// Train on demand (or reuse) via the global
    /// [`TrainedDetectorCache`], keyed by the training environment and
    /// configuration.
    Cached {
        /// Environment kind the training missions fly in.
        environment: EnvironmentKind,
        /// Training configuration.
        training: TrainingSpec,
    },
}

/// The detection & recovery setup a campaign evaluates: which trained
/// detectors supervise the D&R(G) and D&R(A) settings, and where they come
/// from.
#[derive(Debug, Clone)]
pub struct SchemeConfig {
    source: DetectorSource,
}

impl SchemeConfig {
    /// Uses an already-shared detector bank without cloning it.
    pub fn shared(detectors: Arc<TrainedDetectors>) -> Self {
        Self { source: DetectorSource::Shared(detectors) }
    }

    /// Trains (or reuses) detectors through the global
    /// [`TrainedDetectorCache`] for the given training environment and
    /// configuration.
    pub fn cached(environment: EnvironmentKind, training: TrainingSpec) -> Self {
        Self { source: DetectorSource::Cached { environment, training } }
    }

    /// Resolves the detector bank, training it now if it is cache-sourced
    /// and missing.
    pub fn detectors(&self) -> Arc<TrainedDetectors> {
        match &self.source {
            DetectorSource::Shared(detectors) => Arc::clone(detectors),
            DetectorSource::Cached { environment, training } => {
                TrainedDetectorCache::global().get_or_train(*environment, training)
            }
        }
    }
}

/// An injection-only campaign: golden baseline runs plus a planned list of
/// unprotected fault injections (the shape of the Fig. 3 per-kernel and
/// Fig. 4 per-state sensitivity studies).
#[derive(Debug, Clone, PartialEq)]
pub struct InjectionSweep {
    /// Environment under test.
    pub environment: EnvironmentKind,
    /// Base seed; run seeds derive from it and the run index.
    pub base_seed: u64,
    /// Mission time budget per run (s).
    pub mission_time_budget: f64,
    /// Number of error-free baseline runs.
    pub golden_runs: usize,
    /// Injections per target in `plan` (used to derive each injection's
    /// mission seed from its position, exactly like the sequential loops).
    /// Must be non-zero and divide `plan.len()`;
    /// [`CampaignExecutor::run_sweep`] rejects anything else, since a
    /// mismatch would silently skew seeds and per-target grouping.
    pub runs_per_target: usize,
    /// The planned injections, grouped by target.
    pub plan: CampaignPlan,
}

impl InjectionSweep {
    /// The mission a run flies: a fault aimed at one of the planner kernels
    /// (Fig. 3's RRT, RRT-Connect and RRT\* rows) flies that planner, so
    /// it corrupts that planner's output; golden runs and every other
    /// target fly the default RRT\*.
    fn mission_spec(&self, seed_offset: u64, fault: Option<FaultSpec>) -> MissionSpec {
        let spec = MissionSpec::new(self.environment, self.base_seed + seed_offset)
            .with_time_budget(self.mission_time_budget);
        let target = fault.map(|fault| fault.target);
        let planner = PlannerAlgorithm::ALL
            .into_iter()
            .find(|planner| target == Some(InjectionTarget::Kernel(planner.kernel())));
        planner.map_or(spec, |planner| spec.with_planner(planner))
    }
}

/// Results of an [`InjectionSweep`]: per-run QoF metrics in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Golden-run metrics, in run order.
    pub golden: Vec<QofMetrics>,
    /// Injection-run metrics, in plan order (grouped by target).
    pub injected: Vec<QofMetrics>,
}

impl SweepOutcome {
    /// QoF summaries of consecutive `group_size` chunks of the injection
    /// runs — one summary per target for a plan built with
    /// `runs_per_target == group_size`.
    pub fn injected_groups(&self, group_size: usize) -> Vec<QofSummary> {
        self.injected.chunks(group_size.max(1)).map(QofSummary::from_runs).collect()
    }
}

/// All mission outcomes derived from one planned fault, keeping the paired
/// injection / Gaussian / autoencoder comparison together per job.
pub(crate) struct FaultSettingOutcomes {
    pub(crate) injected: QofMetrics,
    pub(crate) gaussian: MissionOutcome,
    pub(crate) autoencoder: MissionOutcome,
}

/// A golden run, trimmed to what aggregation needs.
pub(crate) struct GoldenOutcome {
    qof: QofMetrics,
    ticks: u64,
    compute_ms: f64,
}

impl GoldenOutcome {
    fn new(outcome: &MissionOutcome) -> Self {
        Self {
            qof: outcome.qof,
            ticks: outcome.pipeline.ticks,
            compute_ms: outcome.pipeline.total_compute_ms(),
        }
    }
}

/// One entry of a campaign's run list: seed index `index`'s golden run
/// (when `golden`) and its planned fault's three settings (when `fault` is
/// set), flown on one trunk.
pub(crate) struct CampaignJob {
    index: u64,
    golden: bool,
    fault: Option<FaultSpec>,
}

/// What one campaign job produced (trimmed to what aggregation needs).
/// `reports` carries the job's mission telemetry (one report per mission,
/// golden run first, then the fault's settings in Table I order) and stays
/// empty on uninstrumented runs.
pub(crate) struct JobOutcome {
    golden: Option<GoldenOutcome>,
    fault: Option<Box<FaultSettingOutcomes>>,
    reports: Vec<MissionReport>,
    /// How the job's flights were flown (reported by instrumented
    /// campaigns).
    trunks: TrunkCounters,
}

impl JobOutcome {
    fn new(golden: Option<Landing>, settings: Option<[Landing; 3]>) -> Self {
        let mut trunks = TrunkCounters::default();
        let mut reports = Vec::new();
        let mut land = |landing: &mut Landing| {
            trunks.ticks_flown += landing.outcome.pipeline.ticks - landing.shared_ticks;
            trunks.ticks_shared += landing.shared_ticks;
            if let Some(sink) = landing.sink.take() {
                reports.push(sink.into_report(&landing.outcome.pipeline));
            }
        };
        let golden = golden.map(|mut landing| {
            land(&mut landing);
            GoldenOutcome::new(&landing.outcome)
        });
        let fault = settings.map(|mut settings| {
            settings.iter_mut().for_each(&mut land);
            let [injected, gaussian, autoencoder] = settings;
            trunks.gaussian_branches = u64::from(gaussian.branched());
            trunks.autoencoder_branches = u64::from(autoencoder.branched());
            trunks.faults_never_fired = u64::from(injected.outcome.fault.is_none());
            Box::new(FaultSettingOutcomes {
                injected: injected.outcome.qof,
                gaussian: gaussian.outcome,
                autoencoder: autoencoder.outcome,
            })
        });
        Self { golden, fault, reports, trunks }
    }
}

/// Streaming aggregate of a campaign; folded in run-index order, so every
/// sum matches the sequential loop bit for bit.
///
/// The state is deliberately *extractable*: it is plain data (serde-
/// serialisable, no handles into the pool or detectors), campaign jobs
/// fold into it strictly in run order, and jobs are independent — so
/// folding chunks `[0, k)` into a fresh state, persisting it, and later
/// folding chunks `[k, n)` into the restored state yields exactly the bytes
/// of an uninterrupted `[0, n)` fold.  That property is what the campaign
/// server's checkpoint/resume protocol (`mavfi::serve`) is built on, and
/// what `tests/server_faults.rs` and the checkpoint proptests pin down.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignFoldState {
    /// Golden-run metrics folded so far, in run order.
    pub golden_runs: Vec<QofMetrics>,
    /// Total pipeline ticks across the folded golden runs.
    pub golden_ticks: u64,
    /// Total nominal compute time across the folded golden runs (ms).
    pub golden_compute_ms: f64,
    /// Unprotected-injection metrics folded so far, in plan order.
    pub injected_runs: Vec<QofMetrics>,
    /// D&R(G) metrics folded so far, in plan order.
    pub gaussian_runs: Vec<QofMetrics>,
    /// D&R(A) metrics folded so far, in plan order.
    pub autoencoder_runs: Vec<QofMetrics>,
    /// Recomputations requested by the Gaussian scheme, per stage.
    pub gaussian_recomputations: Vec<(Stage, u64)>,
    /// Recomputations requested by the autoencoder scheme, per stage.
    pub autoencoder_recomputations: Vec<(Stage, u64)>,
}

impl CampaignFoldState {
    /// An empty fold state sized for `config`'s run list.
    pub fn new(config: &CampaignConfig) -> Self {
        let faults = config.injections_per_stage * Stage::ALL.len();
        Self {
            golden_runs: Vec::with_capacity(config.golden_runs),
            golden_ticks: 0,
            golden_compute_ms: 0.0,
            injected_runs: Vec::with_capacity(faults),
            gaussian_runs: Vec::with_capacity(faults),
            autoencoder_runs: Vec::with_capacity(faults),
            gaussian_recomputations: Stage::ALL.iter().map(|stage| (*stage, 0)).collect(),
            autoencoder_recomputations: Stage::ALL.iter().map(|stage| (*stage, 0)).collect(),
        }
    }

    /// Number of campaign jobs folded so far.  Job `j` folds golden run `j`
    /// and fault `j`'s injected/Gaussian/autoencoder triple, each when the
    /// campaign has it, so this is the longer of the two run lists.
    pub fn jobs_folded(&self) -> usize {
        self.golden_runs.len().max(self.injected_runs.len())
    }

    /// Incremental QoF summaries of the four settings in Table I row order
    /// (golden, injected, Gaussian, autoencoder) over the runs folded so
    /// far — the aggregates the campaign server streams to clients while a
    /// job is in flight.
    pub fn partial_summaries(&self) -> [QofSummary; 4] {
        [
            QofSummary::from_runs(&self.golden_runs),
            QofSummary::from_runs(&self.injected_runs),
            QofSummary::from_runs(&self.gaussian_runs),
            QofSummary::from_runs(&self.autoencoder_runs),
        ]
    }

    /// Folds one job: its golden run first, then its fault triple.
    pub(crate) fn fold(&mut self, outcome: JobOutcome) {
        if let Some(golden) = outcome.golden {
            self.golden_ticks += golden.ticks;
            self.golden_compute_ms += golden.compute_ms;
            self.golden_runs.push(golden.qof);
        }
        if let Some(outcomes) = outcome.fault {
            self.injected_runs.push(outcomes.injected);
            accumulate_recomputations(&outcomes.gaussian, &mut self.gaussian_recomputations);
            self.gaussian_runs.push(outcomes.gaussian.qof);
            accumulate_recomputations(&outcomes.autoencoder, &mut self.autoencoder_recomputations);
            self.autoencoder_runs.push(outcomes.autoencoder.qof);
        }
    }

    /// Assembles the final campaign result from a fully folded state.
    pub fn finish(self, config: &CampaignConfig) -> EnvironmentCampaign {
        let golden_divisor = config.golden_runs.max(1) as f64;
        EnvironmentCampaign {
            environment: config.environment,
            golden: SettingResult::new("Golden Run", self.golden_runs),
            injected: SettingResult::new("Injection Run", self.injected_runs),
            gaussian: SettingResult::new("Gaussian-based", self.gaussian_runs),
            autoencoder: SettingResult::new("Autoencoder-based", self.autoencoder_runs),
            gaussian_recomputations: self.gaussian_recomputations,
            autoencoder_recomputations: self.autoencoder_recomputations,
            golden_mean_ticks: self.golden_ticks as f64 / golden_divisor,
            golden_mean_compute_ms: self.golden_compute_ms / golden_divisor,
        }
    }
}

fn accumulate_recomputations(outcome: &MissionOutcome, totals: &mut [(Stage, u64)]) {
    if let Some(stats) = &outcome.detector {
        for (stage, total) in totals.iter_mut() {
            *total += stats.recomputations_of(*stage);
        }
    }
}

/// The campaign execution engine: shards a campaign's run list across a
/// worker pool and restores run order on aggregation.
///
/// # Examples
///
/// ```no_run
/// use mavfi::exec::{CampaignExecutor, SchemeConfig};
/// use mavfi::{CampaignConfig, TrainingSpec};
/// use mavfi_sim::env::EnvironmentKind;
///
/// let config = CampaignConfig::quick(EnvironmentKind::Sparse, 7);
/// let scheme = SchemeConfig::cached(EnvironmentKind::Randomized, TrainingSpec::default());
/// let campaign = CampaignExecutor::new(4).run_campaign(&config, &scheme).unwrap();
/// println!("{}", campaign.golden.summary.success_rate);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignExecutor {
    pool: WorkerPool,
    /// Campaign jobs per checkpointable chunk; `0` means the default of 8.
    chunk_jobs: usize,
}

impl CampaignExecutor {
    /// Creates an executor with a fixed worker count; `0` means "auto"
    /// (`MAVFI_WORKERS`, falling back to the available parallelism).
    pub fn new(workers: usize) -> Self {
        let pool = if workers == 0 { WorkerPool::from_env() } else { WorkerPool::new(workers) };
        Self { pool, chunk_jobs: 0 }
    }

    /// Pins the number of consecutive campaign jobs per chunk, the unit of
    /// [`run_campaign_chunks`](Self::run_campaign_chunks) ranges and of
    /// the campaign server's checkpoints; `0` restores the default of 8.
    /// Campaign results are bit-identical for every chunk size.
    pub fn with_chunk_jobs(mut self, chunk_jobs: usize) -> Self {
        self.chunk_jobs = chunk_jobs;
        self
    }

    /// The resolved number of campaign jobs per chunk.
    pub fn chunk_jobs(&self) -> usize {
        if self.chunk_jobs == 0 {
            8
        } else {
            self.chunk_jobs
        }
    }

    /// The worker count missions fan out over.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Builds the per-stage fault plan of a campaign by routing through
    /// [`CampaignPlan::per_stage`]; deterministic given the config.
    pub fn plan_faults(config: &CampaignConfig) -> CampaignPlan {
        CampaignPlan::per_stage(config.injections_per_stage, config.base_seed ^ 0x5eed_fa01)
    }

    fn mission_spec(config: &CampaignConfig, run_index: u64) -> MissionSpec {
        MissionSpec::new(config.environment, config.base_seed.wrapping_add(run_index * 31 + 1))
            .with_time_budget(config.mission_time_budget)
    }

    /// One run list of one job per seed index: job `j` flies golden run `j`
    /// and fault `j`, each when the campaign has it.  Golden run `j` and
    /// fault `j` fly the same mission, so the fault's trunk carries the
    /// golden flight up to the tick where the fault fires.  Folding the jobs
    /// in index order keeps the golden runs in run order and the faults in
    /// plan order, while the pool is free to interleave long and short
    /// missions across workers.
    fn campaign_jobs(config: &CampaignConfig) -> Vec<CampaignJob> {
        let faults = Self::plan_faults(config);
        let faults = faults.specs();
        (0..config.golden_runs.max(faults.len()))
            .map(|index| CampaignJob {
                index: index as u64,
                golden: index < config.golden_runs,
                fault: faults.get(index).copied(),
            })
            .collect()
    }

    /// Runs the golden, injection and both D&R settings of one
    /// environment's campaign as a single sharded run list.
    ///
    /// Every campaign job is its own pool unit.  A job with a fault flies
    /// its injected/Gaussian/autoencoder triple, and its seed's golden run
    /// if the campaign has one, as one trunk that forks the golden flight
    /// only where the fault first fires and a protected flight only where
    /// its detector first acts (see [`Flight`](crate::runner::Flight)),
    /// bit-identical to flying the four settings apart.  A job past the
    /// last fault flies its golden run alone.  Outcomes fold in run order,
    /// so the assembled campaign is bit-identical for every worker count
    /// and chunk size.
    ///
    /// # Errors
    ///
    /// Propagates runner errors (none are expected with trained detectors);
    /// with several failures the lowest-indexed run's error is returned,
    /// independent of the worker count, and runs above that failure are
    /// skipped rather than flown.
    pub fn run_campaign(
        &self,
        config: &CampaignConfig,
        scheme: &SchemeConfig,
    ) -> Result<EnvironmentCampaign, MavfiError> {
        let mut state = CampaignFoldState::new(config);
        self.run_campaign_chunks(config, scheme, 0..self.campaign_chunk_count(config), &mut state)?;
        Ok(state.finish(config))
    }

    /// Number of chunks of [`chunk_jobs`](Self::chunk_jobs) consecutive
    /// campaign jobs the run list splits into — the unit of
    /// [`run_campaign_chunks`](Self::run_campaign_chunks) ranges and of the
    /// campaign server's checkpoint stride.
    pub fn campaign_chunk_count(&self, config: &CampaignConfig) -> usize {
        let jobs = config.golden_runs.max(config.injections_per_stage * Stage::ALL.len());
        jobs.div_ceil(self.chunk_jobs())
    }

    /// Runs the chunks `chunk_range` (clamped to the campaign's chunk
    /// count) of the campaign's run list, folding their jobs' outcomes
    /// into `state` in run order.  The jobs of the whole range fan out
    /// across the pool together.
    ///
    /// Jobs are independent and the fold is strictly ordered, so running
    /// `0..k` into a fresh state and then `k..n` into that same state —
    /// even across a process restart, with the state serialised in between
    /// — produces exactly the bytes of one uninterrupted `0..n` pass.
    /// [`run_campaign`](Self::run_campaign) is precisely that uninterrupted
    /// pass; the campaign server executes bounded ranges between
    /// checkpoints.
    ///
    /// # Errors
    ///
    /// Propagates runner errors exactly like
    /// [`run_campaign`](Self::run_campaign); `state` keeps the outcomes
    /// folded before the lowest-indexed failure.
    pub fn run_campaign_chunks(
        &self,
        config: &CampaignConfig,
        scheme: &SchemeConfig,
        chunk_range: Range<usize>,
        state: &mut CampaignFoldState,
    ) -> Result<(), MavfiError> {
        let jobs = Self::campaign_jobs(config);
        let chunk_jobs = self.chunk_jobs();
        let end = chunk_range.end.saturating_mul(chunk_jobs).min(jobs.len());
        let start = chunk_range.start.saturating_mul(chunk_jobs).min(end);
        self.fold_jobs(config, scheme, &jobs[start..end], state, None)
    }

    /// [`run_campaign`](Self::run_campaign) with mission telemetry: every
    /// mission flies with a
    /// [`MissionTelemetry`](mavfi_telemetry::MissionTelemetry) sink
    /// attached (wall-clock kernel timing on) and the per-mission reports
    /// are merged — in deterministic run order — into one campaign-wide
    /// [`TelemetryReport`].
    ///
    /// The campaign results are bit-identical to the uninstrumented path
    /// for any worker count: telemetry only reads.  Within the report, the
    /// deterministic half (counters, latencies in ticks, timeline digest)
    /// is reproducible too; only the `wall_clock` section varies between
    /// machines and runs.
    ///
    /// # Errors
    ///
    /// Propagates runner errors exactly like
    /// [`run_campaign`](Self::run_campaign).
    pub fn run_campaign_instrumented(
        &self,
        config: &CampaignConfig,
        scheme: &SchemeConfig,
    ) -> Result<(EnvironmentCampaign, TelemetryReport), MavfiError> {
        let mut state = CampaignFoldState::new(config);
        let mut telemetry = TelemetryReport::new();
        let jobs = Self::campaign_jobs(config);
        self.fold_jobs(config, scheme, &jobs, &mut state, Some(&mut telemetry))?;
        Ok((state.finish(config), telemetry))
    }

    /// Flies `jobs` across the pool, one job per pool unit, and folds their
    /// outcomes into `state` in run order.  With `telemetry`, every mission
    /// flies instrumented and its report is merged into the rollup, also in
    /// run order, together with each job's [`TrunkCounters`].
    fn fold_jobs(
        &self,
        config: &CampaignConfig,
        scheme: &SchemeConfig,
        jobs: &[CampaignJob],
        state: &mut CampaignFoldState,
        telemetry: Option<&mut TelemetryReport>,
    ) -> Result<(), MavfiError> {
        let detectors = scheme.detectors();
        // Instrumented missions: a fresh sink per trunk (constructing it
        // preallocates the telemetry buffers; the mission itself then runs
        // allocation-free), reduced to a report as soon as the job lands.
        let instrument = telemetry.is_some();

        let mut folded = (state, telemetry);
        let pool_stats = self.pool.fold_ordered(
            jobs,
            |_, job| -> Result<JobOutcome, MavfiError> {
                let runner = MissionRunner::new(Self::mission_spec(config, job.index));
                Ok(match job.fault {
                    Some(fault) => {
                        let landings =
                            runner.fly_fault_settings(fault, &detectors, instrument, job.golden);
                        JobOutcome::new(landings.golden, Some(landings.settings))
                    }
                    None => JobOutcome::new(Some(runner.fly_golden(instrument)), None),
                })
            },
            &mut folded,
            |(state, telemetry), _, outcome| {
                if let Some(rollup) = telemetry.as_deref_mut() {
                    rollup.trunks.merge(&outcome.trunks);
                    for report in &outcome.reports {
                        rollup.merge_mission(report);
                    }
                }
                state.fold(outcome);
            },
        )?;
        if let Some(rollup) = folded.1 {
            rollup.wall_clock.worker_jobs = pool_stats.worker_jobs;
            rollup.wall_clock.fold_stalls += pool_stats.fold_stalls;
        }
        Ok(())
    }

    /// Runs an injection-only sweep (golden baseline plus unprotected
    /// injections) as a single sharded run list.
    ///
    /// Golden run `i` flies with seed `base_seed + i`; the injection at plan
    /// position `p` flies with seed `base_seed + (p % runs_per_target)`,
    /// mirroring the sequential per-target loops of the Fig. 3/4 drivers.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::InvalidConfig`] when the plan is non-empty and
    /// `sweep.runs_per_target` is zero or does not divide its length — that
    /// always indicates a plan built for a different target list — and
    /// otherwise propagates mission-runner errors, lowest run index first.
    pub fn run_sweep(&self, sweep: &InjectionSweep) -> Result<SweepOutcome, MavfiError> {
        let runs_per_target = sweep.runs_per_target;
        if !sweep.plan.is_empty()
            && (runs_per_target == 0 || sweep.plan.len() % runs_per_target != 0)
        {
            return Err(MavfiError::InvalidConfig {
                reason: format!(
                    "runs_per_target ({runs_per_target}) must be non-zero and divide the plan \
                     length ({})",
                    sweep.plan.len()
                ),
            });
        }
        // Each run as its seed offset and, for an injection, its fault.
        let injections = sweep.plan.specs().iter().enumerate();
        let runs: Vec<(u64, Option<FaultSpec>)> = (0..sweep.golden_runs as u64)
            .map(|index| (index, None))
            .chain(
                injections
                    .map(|(position, fault)| ((position % runs_per_target) as u64, Some(*fault))),
            )
            .collect();

        let mut outcome = SweepOutcome {
            golden: Vec::with_capacity(sweep.golden_runs),
            injected: Vec::with_capacity(sweep.plan.len()),
        };
        self.pool.fold_ordered(
            &runs,
            |_, &(seed_offset, fault)| -> Result<QofMetrics, MavfiError> {
                let spec = sweep.mission_spec(seed_offset, fault);
                Ok(MissionRunner::new(spec).run(fault, Protection::None, None)?.qof)
            },
            &mut outcome,
            |outcome, index, qof| {
                if index < sweep.golden_runs {
                    outcome.golden.push(qof);
                } else {
                    outcome.injected.push(qof);
                }
            },
        )?;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::training::train_detectors;
    use mavfi_ppc::KernelId;

    fn quick_detectors() -> TrainedDetectors {
        let spec =
            TrainingSpec { missions: 1, base_seed: 77, mission_time_budget: 25.0, epochs: 5 };
        train_detectors(&spec).0
    }

    #[test]
    fn executor_defaults_resolve_to_at_least_one_worker() {
        assert!(CampaignExecutor::new(0).workers() >= 1);
        assert_eq!(CampaignExecutor::new(3).workers(), 3);
    }

    #[test]
    fn sweep_rejects_runs_per_target_that_does_not_split_the_plan() {
        let plan = CampaignPlan::per_stage(1, 0);
        for runs_per_target in [2, 0] {
            let sweep = InjectionSweep {
                environment: EnvironmentKind::Farm,
                base_seed: 1,
                mission_time_budget: 10.0,
                golden_runs: 0,
                runs_per_target,
                plan: plan.clone(),
            };
            let outcome = CampaignExecutor::new(1).run_sweep(&sweep);
            assert!(
                matches!(outcome, Err(MavfiError::InvalidConfig { .. })),
                "runs_per_target {runs_per_target}: {outcome:?}"
            );
        }
    }

    /// Fig. 3's planner rows fly their own planner: a `Kernel(Rrt)` sweep
    /// run invokes RRT and never RRT\*, while golden runs and other
    /// targets keep RRT\*.
    #[test]
    fn planner_kernel_runs_fly_their_own_planner() {
        let sweep = InjectionSweep {
            environment: EnvironmentKind::Farm,
            base_seed: 3,
            mission_time_budget: 30.0,
            golden_runs: 0,
            runs_per_target: 1,
            plan: CampaignPlan::per_stage(0, 0),
        };
        let fault = |kernel| FaultSpec::new(InjectionTarget::Kernel(kernel), 5, 1);
        let runs = [
            (Some(fault(KernelId::Rrt)), KernelId::Rrt),
            (Some(fault(KernelId::RrtConnect)), KernelId::RrtConnect),
            (Some(fault(KernelId::RrtStar)), KernelId::RrtStar),
            (Some(fault(KernelId::CollisionCheck)), KernelId::RrtStar),
            (None, KernelId::RrtStar),
        ];
        for (fault, expected) in runs {
            let spec = sweep.mission_spec(0, fault);
            assert_eq!(spec.planner.kernel(), expected, "{fault:?}");
            if expected == KernelId::Rrt {
                let outcome = MissionRunner::new(spec).run(fault, Protection::None, None).unwrap();
                assert!(outcome.pipeline.invocations(KernelId::Rrt) > 0, "RRT planned");
                assert_eq!(outcome.pipeline.invocations(KernelId::RrtStar), 0, "RRT* never ran");
            }
        }
    }

    #[test]
    fn sweep_groups_split_per_target() {
        let outcome = SweepOutcome {
            golden: Vec::new(),
            injected: vec![
                QofMetrics {
                    status: mavfi_sim::world::MissionStatus::Succeeded,
                    flight_time_s: 10.0,
                    energy_j: 1.0,
                    distance_m: 5.0,
                };
                6
            ],
        };
        assert_eq!(outcome.injected_groups(2).len(), 3);
        assert_eq!(outcome.injected_groups(6).len(), 1);
    }

    #[test]
    fn chunk_ranges_fold_identically_to_the_uninterrupted_pass() {
        let detectors = quick_detectors();
        let config = CampaignConfig {
            environment: EnvironmentKind::Farm,
            golden_runs: 5,
            injections_per_stage: 1,
            base_seed: 9,
            mission_time_budget: 60.0,
        };
        let scheme = SchemeConfig::shared(Arc::new(detectors));
        let executor = CampaignExecutor::new(2).with_chunk_jobs(2);
        let full = executor.run_campaign(&config, &scheme).unwrap();
        let total = executor.campaign_chunk_count(&config);
        assert_eq!(total, 3); // 5 jobs at chunk size 2
        for split in 1..total {
            let mut state = CampaignFoldState::new(&config);
            executor.run_campaign_chunks(&config, &scheme, 0..split, &mut state).unwrap();
            // Round-trip the mid-campaign state through serde, as a
            // checkpoint would.
            let json = serde_json::to_string(&state).unwrap();
            let mut state: CampaignFoldState = serde_json::from_str(&json).unwrap();
            executor.run_campaign_chunks(&config, &scheme, split..total, &mut state).unwrap();
            assert_eq!(state.finish(&config), full, "split after chunk {split}");
        }
        // Out-of-range tails are clamped, not flown twice.
        let mut state = CampaignFoldState::new(&config);
        executor.run_campaign_chunks(&config, &scheme, 0..usize::MAX, &mut state).unwrap();
        assert_eq!(state.jobs_folded(), 5);
        assert_eq!(state.finish(&config), full);
    }

    /// How a shadow's trip relates to its job's fault.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum TripCase {
        NeverTrips,
        TripsBeforeTheFault,
        TripsAfterTheFault,
    }

    /// How a job's golden run was flown.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum GoldenCase {
        Alone,
        ForkedWhereTheFaultFired,
        FaultNeverFired,
    }

    /// Flies every setting of `config`'s campaign on its own through
    /// `MissionRunner::run` and `run_golden`, checks each job's trunk
    /// against those flights outcome for outcome, and returns the
    /// independent fold, the trip cases the trunks covered and how each
    /// golden run was flown.
    fn independent_fold(
        config: &CampaignConfig,
        detectors: &TrainedDetectors,
    ) -> (EnvironmentCampaign, Vec<TripCase>, Vec<GoldenCase>) {
        let mut state = CampaignFoldState::new(config);
        let mut cases = Vec::new();
        let mut golden_cases = Vec::new();
        for job in CampaignExecutor::campaign_jobs(config) {
            let spec = CampaignExecutor::mission_spec(config, job.index);
            let runner = MissionRunner::new(spec);
            let golden_run = job.golden.then(|| runner.run_golden());
            let fault = job.fault.map(|fault| {
                let flights = [Protection::None, Protection::Gaussian, Protection::Autoencoder]
                    .map(|protection| {
                        runner.run(Some(fault), protection, Some(detectors)).unwrap()
                    });
                let landings = runner.fly_fault_settings(fault, detectors, false, job.golden);
                for (landing, flight) in landings.settings.iter().zip(&flights) {
                    assert_eq!(&landing.outcome, flight, "seed {} fault {fault:?}", spec.seed);
                }
                let [injected, gaussian, autoencoder] = &landings.settings;
                let fired = injected.outcome.fault.as_ref().map(|record| record.tick);
                for shadow in [gaussian, autoencoder] {
                    cases.push(match (shadow.branched(), fired) {
                        (false, _) => TripCase::NeverTrips,
                        (true, Some(tick)) if shadow.shared_ticks >= tick => {
                            TripCase::TripsAfterTheFault
                        }
                        (true, _) => TripCase::TripsBeforeTheFault,
                    });
                }
                match (&landings.golden, &golden_run) {
                    (Some(golden), Some(run)) => {
                        assert_eq!(&golden.outcome, run, "seed {} golden run", spec.seed);
                        assert_eq!(golden.branched(), fired.is_some(), "seed {}", spec.seed);
                        golden_cases.push(match fired {
                            Some(tick) => {
                                assert_eq!(golden.shared_ticks, tick, "seed {}", spec.seed);
                                GoldenCase::ForkedWhereTheFaultFired
                            }
                            None => GoldenCase::FaultNeverFired,
                        });
                    }
                    (None, None) => {}
                    _ => panic!("seed {}: golden landing without its job's golden run", spec.seed),
                }
                let [injected, gaussian, autoencoder] = flights;
                Box::new(FaultSettingOutcomes { injected: injected.qof, gaussian, autoencoder })
            });
            if fault.is_none() && golden_run.is_some() {
                golden_cases.push(GoldenCase::Alone);
            }
            state.fold(JobOutcome {
                golden: golden_run.as_ref().map(GoldenOutcome::new),
                fault,
                reports: Vec::new(),
                trunks: TrunkCounters::default(),
            });
        }
        (state.finish(config), cases, golden_cases)
    }

    /// The reference equivalence: every campaign job's settings flown on
    /// their own and folded give exactly `run_campaign`'s result, at 1 and 2
    /// workers and chunks of 1 and 8 jobs, and every trunk lands each
    /// setting's full outcome.
    ///
    /// Trip cases covered (with `quick_detectors`, one injection per stage,
    /// jobs numbered in plan order):
    /// - a shadow that never trips: the autoencoder's in Dense base seed 9
    ///   jobs 0–1 and in every Farm base seed 9 and Sparse base seed 4 job;
    /// - one that trips before the fault fires: the Gaussian's in every
    ///   Dense base seed 9 and Farm base seed 9 job and in Sparse base seed
    ///   4 job 1, and the autoencoder's in Dense base seed 9 job 2;
    /// - one that trips after the fault fires: the Gaussian's in Sparse base
    ///   seed 4 jobs 0 and 2.
    ///
    /// No seed tried makes both shadows trip in one tick (Farm and Sparse
    /// base seeds 1–11, two injections per stage; closest: Sparse base seed
    /// 10, job 4, Gaussian at tick 92 and autoencoder at 93).
    /// `runner::tests::shadows_tripping_in_one_tick_fork_from_one_checkpoint`
    /// covers that path with two copies of one detector.
    #[test]
    fn trunks_fold_exactly_what_independent_flights_fold() {
        let detectors = quick_detectors();
        let scheme = SchemeConfig::shared(Arc::new(detectors.clone()));
        let mut covered = Vec::new();
        for (environment, base_seed, mission_time_budget) in [
            (EnvironmentKind::Dense, 9, 15.0),
            (EnvironmentKind::Farm, 9, 40.0),
            (EnvironmentKind::Sparse, 4, 30.0),
        ] {
            let config = CampaignConfig {
                environment,
                golden_runs: 1,
                injections_per_stage: 1,
                base_seed,
                mission_time_budget,
            };
            let (reference, cases, _) = independent_fold(&config, &detectors);
            covered.extend(cases);
            for workers in [1, 2] {
                for chunk_jobs in [1, 8] {
                    let executor = CampaignExecutor::new(workers).with_chunk_jobs(chunk_jobs);
                    assert_eq!(
                        executor.run_campaign(&config, &scheme).unwrap(),
                        reference,
                        "{environment:?}: {workers} workers, chunks of {chunk_jobs}"
                    );
                }
            }
        }
        covered.sort();
        covered.dedup();
        assert_eq!(
            covered,
            [TripCase::NeverTrips, TripCase::TripsBeforeTheFault, TripCase::TripsAfterTheFault]
        );
    }

    /// Paired golden runs: every golden run a fault's trunk carries lands
    /// exactly `run_golden`'s outcome, and campaigns with more golden runs
    /// than faults (golden-only jobs) and fewer fold exactly what
    /// independent flights fold, at 1 and 2 workers and chunks of 1 and 3
    /// jobs.
    ///
    /// Golden cases covered (with `quick_detectors`, one injection per
    /// stage, jobs numbered in seed order):
    /// - flown alone: Sparse base seed 4 jobs 3 and 4;
    /// - forked where its paired fault fires mid-mission: Sparse base seed 4
    ///   jobs 0 and 2, and Farm base seed 9 jobs 0 and 1;
    /// - paired with a fault whose trigger tick lies past the mission end,
    ///   so the whole trunk is golden: Sparse base seed 4 job 1 (trigger
    ///   tick 292, mission end 185).
    #[test]
    fn paired_golden_runs_fold_exactly_what_run_golden_folds() {
        let detectors = quick_detectors();
        let scheme = SchemeConfig::shared(Arc::new(detectors.clone()));
        let mut covered = Vec::new();
        for (environment, golden_runs, base_seed, mission_time_budget) in
            [(EnvironmentKind::Sparse, 5, 4, 30.0), (EnvironmentKind::Farm, 2, 9, 40.0)]
        {
            let config = CampaignConfig {
                environment,
                golden_runs,
                injections_per_stage: 1,
                base_seed,
                mission_time_budget,
            };
            let (reference, _, cases) = independent_fold(&config, &detectors);
            assert_eq!(reference.golden.runs.len(), golden_runs);
            covered.extend(cases);
            for workers in [1, 2] {
                for chunk_jobs in [1, 3] {
                    let executor = CampaignExecutor::new(workers).with_chunk_jobs(chunk_jobs);
                    assert_eq!(
                        executor.run_campaign(&config, &scheme).unwrap(),
                        reference,
                        "{environment:?}: {workers} workers, chunks of {chunk_jobs}"
                    );
                }
            }
        }
        covered.sort();
        covered.dedup();
        assert_eq!(
            covered,
            [GoldenCase::Alone, GoldenCase::ForkedWhereTheFaultFired, GoldenCase::FaultNeverFired]
        );
    }

    #[test]
    fn instrumented_campaign_reports_how_its_trunks_flew() {
        let scheme = SchemeConfig::shared(Arc::new(quick_detectors()));
        let config = CampaignConfig {
            environment: EnvironmentKind::Sparse,
            golden_runs: 1,
            injections_per_stage: 1,
            base_seed: 4,
            mission_time_budget: 30.0,
        };
        let (_, report) =
            CampaignExecutor::new(2).run_campaign_instrumented(&config, &scheme).unwrap();
        let trunks = report.trunks;
        assert_eq!(trunks.ticks_flown + trunks.ticks_shared, report.counters.ticks);
        // The trip cases of `trunks_fold_exactly_what_independent_flights_fold`:
        // the Gaussian detector acts in every job, the autoencoder in none.
        assert_eq!((trunks.gaussian_branches, trunks.autoencoder_branches), (3, 0));
        assert!(trunks.ticks_shared > trunks.ticks_flown / 2, "{trunks:?}");
        let never_fired = CampaignExecutor::plan_faults(&config)
            .into_iter()
            .enumerate()
            .filter(|(index, fault)| {
                let spec = CampaignExecutor::mission_spec(&config, *index as u64);
                let run = MissionRunner::new(spec).run(Some(*fault), Protection::None, None);
                run.unwrap().fault.is_none()
            })
            .count();
        assert_eq!(trunks.faults_never_fired, never_fired as u64);
        let (_, serial) =
            CampaignExecutor::new(1).run_campaign_instrumented(&config, &scheme).unwrap();
        assert_eq!(serial.trunks, trunks);
    }

    #[test]
    fn campaign_runs_identically_through_the_entry_point() {
        let detectors = quick_detectors();
        let config = CampaignConfig {
            environment: EnvironmentKind::Farm,
            golden_runs: 1,
            injections_per_stage: 1,
            base_seed: 5,
            mission_time_budget: 60.0,
        };
        let scheme = SchemeConfig::shared(Arc::new(detectors));
        let serial = CampaignExecutor::new(1).run_campaign(&config, &scheme).unwrap();
        let parallel = CampaignExecutor::new(4).run_campaign(&config, &scheme).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.golden.runs.len(), 1);
        assert_eq!(serial.injected.runs.len(), 3);
    }
}
