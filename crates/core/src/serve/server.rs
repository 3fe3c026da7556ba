//! The [`CampaignServer`]: admits campaign submissions over the bus,
//! shards them across the worker pool in checkpointable strides, streams
//! incremental aggregates, and survives being killed at any point.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

use mavfi_middleware::topic::Bus;
use mavfi_ppc::states::Stage;
use mavfi_telemetry::{ServerCounters, TelemetryReport};

use crate::campaign::{CampaignConfig, EnvironmentCampaign};
use crate::error::MavfiError;
use crate::exec::{CampaignExecutor, CampaignFoldState, SchemeConfig};
use crate::serve::checkpoint::{request_job_id, CampaignCheckpoint};
use crate::serve::protocol::{
    progress_topic, CampaignProgress, CampaignRequest, JobStatus, JobTicket, ServerError,
    STATUS_SERVICE, SUBMIT_SERVICE,
};

/// Extension of a job's checkpoint file inside the checkpoint directory.
pub const CHECKPOINT_EXTENSION: &str = "mvcp";

/// Most campaign jobs, `max(golden_runs, injections_per_stage × 3)`, one
/// request may ask for.  A paper-scale campaign is 100 golden runs and 300
/// injections; the cap sits far above that, yet keeps a job's run count
/// from overflowing and its fold state from exhausting memory.
pub const MAX_CAMPAIGN_JOBS: usize = 100_000;

/// One admitted campaign job.
struct Job {
    id: u64,
    request: CampaignRequest,
    chunks_total: u64,
    chunks_done: u64,
    state: CampaignFoldState,
    result: Option<Arc<EnvironmentCampaign>>,
    resumed: bool,
}

impl Job {
    fn status(&self) -> JobStatus {
        match &self.result {
            Some(result) => JobStatus::Complete(Arc::clone(result)),
            None => JobStatus::Pending {
                chunks_done: self.chunks_done,
                chunks_total: self.chunks_total,
            },
        }
    }
}

/// State shared between [`CampaignServer::step_once`] and the bus service
/// handlers.
struct ServerState {
    executor: CampaignExecutor,
    checkpoint_dir: PathBuf,
    stride: u64,
    jobs: Vec<Job>,
    counters: ServerCounters,
    recovery_errors: Vec<ServerError>,
}

impl ServerState {
    fn find_job(&self, job_id: u64) -> Option<&Job> {
        self.jobs.iter().find(|job| job.id == job_id)
    }

    fn checkpoint_path(&self, job_id: u64) -> PathBuf {
        self.checkpoint_dir.join(format!("{job_id:016x}.{CHECKPOINT_EXTENSION}"))
    }

    fn chunk_executor(&self, request: &CampaignRequest) -> CampaignExecutor {
        self.executor.with_chunk_jobs(request.chunk_jobs)
    }

    fn admit(&mut self, request: CampaignRequest) -> Result<JobTicket, ServerError> {
        validate_config(&request.config)?;
        let mut request = request;
        if request.chunk_jobs == 0 {
            request.chunk_jobs = self.executor.chunk_jobs();
        }
        let job_id = request_job_id(&request);
        if let Some((chunks_total, chunks_done)) =
            self.find_job(job_id).map(|job| (job.chunks_total, job.chunks_done))
        {
            self.counters.duplicate_submissions += 1;
            return Ok(JobTicket {
                job_id,
                progress_topic: progress_topic(job_id),
                chunks_total,
                chunks_done,
                duplicate: true,
            });
        }
        let chunks_total =
            self.chunk_executor(&request).campaign_chunk_count(&request.config) as u64;
        let job = Job {
            id: job_id,
            request,
            chunks_total,
            chunks_done: 0,
            state: CampaignFoldState::new(&request.config),
            result: None,
            resumed: false,
        };
        // Checkpoint the admission itself, so a server killed before the
        // first stride still resumes the job without a resubmission.  An
        // unwritable directory is counted, not fatal: the job can run from
        // memory and later checkpoints retry the write.
        let checkpoint =
            CampaignCheckpoint { request: job.request, chunks_done: 0, state: job.state.clone() };
        match checkpoint.save(&self.checkpoint_path(job_id)) {
            Ok(()) => self.counters.checkpoints_written += 1,
            Err(_) => self.counters.checkpoint_failures += 1,
        }
        self.jobs.push(job);
        self.counters.jobs_submitted += 1;
        Ok(JobTicket {
            job_id,
            progress_topic: progress_topic(job_id),
            chunks_total,
            chunks_done: 0,
            duplicate: false,
        })
    }

    fn status(&self, job_id: u64) -> Result<JobStatus, ServerError> {
        self.find_job(job_id).map(Job::status).ok_or(ServerError::UnknownJob { job_id })
    }
}

fn validate_config(config: &CampaignConfig) -> Result<(), ServerError> {
    if config.golden_runs == 0 && config.injections_per_stage == 0 {
        return Err(ServerError::InvalidRequest {
            reason: "campaign has no runs (golden_runs and injections_per_stage are both 0)".into(),
        });
    }
    let jobs = config
        .injections_per_stage
        .checked_mul(Stage::ALL.len())
        .map(|faults| faults.max(config.golden_runs));
    if !jobs.is_some_and(|jobs| jobs <= MAX_CAMPAIGN_JOBS) {
        return Err(ServerError::InvalidRequest {
            reason: format!(
                "campaign exceeds {MAX_CAMPAIGN_JOBS} jobs (golden_runs {}, injections_per_stage {})",
                config.golden_runs, config.injections_per_stage
            ),
        });
    }
    if !config.mission_time_budget.is_finite() || config.mission_time_budget <= 0.0 {
        return Err(ServerError::InvalidRequest {
            reason: format!("mission_time_budget {} is not positive", config.mission_time_budget),
        });
    }
    Ok(())
}

/// A long-running campaign service on the in-repo bus.
///
/// [`CampaignServer::attach`] advertises the submit/status services on a
/// [`Bus`], and every [`step_once`](Self::step_once) call by the driving
/// loop executes up to [`checkpoint_stride`](Self::with_checkpoint_stride)
/// chunks of the oldest unfinished job through the shared
/// [`CampaignExecutor`], persists a digest-checked checkpoint, and
/// publishes a [`CampaignProgress`] aggregate on the job's topic.
///
/// Killing the process (or just dropping the server) between — or during —
/// strides loses nothing: a new server pointed at the same checkpoint
/// directory re-admits every checkpointed job and continues folding from
/// the last persisted chunk, and the final [`EnvironmentCampaign`] is
/// byte-identical to an uninterrupted serve and to library
/// [`run_campaign`](crate::exec::CampaignExecutor::run_campaign) (see
/// `tests/server_faults.rs`, `docs/SERVING.md`).
pub struct CampaignServer {
    shared: Arc<Mutex<ServerState>>,
}

impl std::fmt::Debug for CampaignServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = lock(&self.shared);
        f.debug_struct("CampaignServer")
            .field("checkpoint_dir", &state.checkpoint_dir)
            .field("jobs", &state.jobs.len())
            .field("stride", &state.stride)
            .finish()
    }
}

/// Locks the shared state, recovering from a poisoned lock (a panicking
/// stride must not wedge the services).
fn lock(shared: &Arc<Mutex<ServerState>>) -> MutexGuard<'_, ServerState> {
    shared.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl CampaignServer {
    /// Creates a server persisting to `checkpoint_dir` (created if missing)
    /// and resumes every verifiable checkpoint found there.
    ///
    /// Corrupt or truncated checkpoint files are *not* errors: each is
    /// recorded as a typed [`ServerError`] in
    /// [`recovery_errors`](Self::recovery_errors) and counted, and the file
    /// is left in place — a resubmission of the same request lands on the
    /// same job id and overwrites it with a fresh checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::Io`] when the checkpoint directory cannot be
    /// created or listed.
    pub fn new(
        executor: CampaignExecutor,
        checkpoint_dir: impl Into<PathBuf>,
    ) -> Result<Self, MavfiError> {
        let checkpoint_dir = checkpoint_dir.into();
        std::fs::create_dir_all(&checkpoint_dir)?;
        let mut state = ServerState {
            executor,
            checkpoint_dir,
            stride: 1,
            jobs: Vec::new(),
            counters: ServerCounters::default(),
            recovery_errors: Vec::new(),
        };
        // Deterministic resume order: sorted file names, i.e. job ids.
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&state.checkpoint_dir)?
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|path| path.extension().is_some_and(|ext| ext == CHECKPOINT_EXTENSION))
            .collect();
        paths.sort();
        for path in paths {
            let file = path
                .file_name()
                .map(|name| name.to_string_lossy().into_owned())
                .unwrap_or_default();
            // A checkpoint's request passes the admission checks before it
            // is resumed: a digest only proves the file is what was written.
            let loaded = match CampaignCheckpoint::load(&path) {
                Ok(checkpoint) => match validate_config(&checkpoint.request.config) {
                    Ok(()) => Ok(checkpoint),
                    Err(error) => {
                        Err(ServerError::CheckpointCorrupt { file, detail: error.to_string() })
                    }
                },
                Err(MavfiError::Trace(trace)) => {
                    Err(ServerError::CheckpointCorrupt { file, detail: trace.to_string() })
                }
                Err(other) => Err(ServerError::CheckpointIo { detail: format!("{file}: {other}") }),
            };
            match loaded {
                Ok(checkpoint) => {
                    state.counters.checkpoints_loaded += 1;
                    state.counters.jobs_resumed += 1;
                    let chunks_total = state
                        .chunk_executor(&checkpoint.request)
                        .campaign_chunk_count(&checkpoint.request.config)
                        as u64;
                    let result = (checkpoint.chunks_done >= chunks_total).then(|| {
                        Arc::new(checkpoint.state.clone().finish(&checkpoint.request.config))
                    });
                    state.jobs.push(Job {
                        id: checkpoint.job_id(),
                        request: checkpoint.request,
                        chunks_total,
                        chunks_done: checkpoint.chunks_done,
                        state: checkpoint.state,
                        result,
                        resumed: true,
                    });
                }
                Err(error) => {
                    state.counters.checkpoints_corrupt += 1;
                    state.recovery_errors.push(error);
                }
            }
        }
        Ok(Self { shared: Arc::new(Mutex::new(state)) })
    }

    /// Sets how many chunks each stride executes before checkpointing and
    /// publishing progress (minimum 1, default 1).
    #[must_use]
    pub fn with_checkpoint_stride(self, stride: usize) -> Self {
        lock(&self.shared).stride = stride.max(1) as u64;
        self
    }

    /// Advertises the submit and status services on `bus`.  Call before the
    /// first [`step_once`](Self::step_once).
    pub fn attach(&self, bus: &Bus) {
        let shared = Arc::clone(&self.shared);
        bus.advertise_service::<CampaignRequest, Result<JobTicket, ServerError>, _>(
            SUBMIT_SERVICE,
            move |request| lock(&shared).admit(request),
        );
        let shared = Arc::clone(&self.shared);
        bus.advertise_service::<u64, Result<JobStatus, ServerError>, _>(
            STATUS_SERVICE,
            move |job_id| lock(&shared).status(job_id),
        );
    }

    /// Unregisters the services, as a shutting-down server would.  Pending
    /// jobs and checkpoints stay intact; clients calling afterwards get
    /// typed [`ServerError::Unavailable`] errors from the client wrapper.
    pub fn detach(bus: &Bus) {
        bus.remove_service(SUBMIT_SERVICE);
        bus.remove_service(STATUS_SERVICE);
    }

    /// Typed errors produced while scanning the checkpoint directory at
    /// startup (one per unreadable or corrupt file).
    pub fn recovery_errors(&self) -> Vec<ServerError> {
        lock(&self.shared).recovery_errors.clone()
    }

    /// Snapshot of the server's activity counters.
    pub fn counters(&self) -> ServerCounters {
        lock(&self.shared).counters
    }

    /// The server's counters folded into a [`TelemetryReport`], the same
    /// rollup shape campaign missions report through — and stripped by its
    /// `deterministic_view`, since kill/resume history must never leak
    /// into results.
    pub fn telemetry_report(&self) -> TelemetryReport {
        TelemetryReport { server: self.counters(), ..TelemetryReport::new() }
    }

    /// `true` when every admitted job has produced its final campaign.
    pub fn idle(&self) -> bool {
        lock(&self.shared).jobs.iter().all(|job| job.result.is_some())
    }

    /// Runs one checkpointed stride of the oldest unfinished job and
    /// publishes its progress on `bus`.  Returns `false` when there was no
    /// work.  Drivers call this in a loop until the jobs they wait on are
    /// complete.
    ///
    /// # Errors
    ///
    /// Every error leaves the server usable, and the job continues on the
    /// next call:
    ///
    /// - [`ServerError::JobFailed`] when flying the stride's chunks fails;
    ///   the job's fold is left as it was, so the next call retries them.
    /// - [`ServerError::CheckpointIo`] when the stride's checkpoint cannot
    ///   be written; the stride is folded, counted and streamed, so only
    ///   its durability is lost.
    /// - [`ServerError::ProgressUnpublished`] when the job's progress topic
    ///   is held by another message type; the stride is folded, counted
    ///   and checkpointed.  A checkpoint failure in the same stride takes
    ///   precedence.
    pub fn step_once(&self, bus: &Bus) -> Result<bool, ServerError> {
        let mut state = lock(&self.shared);
        let state = &mut *state;
        let Some(job) = state.jobs.iter_mut().find(|job| job.result.is_none()) else {
            return Ok(false);
        };
        let executor = state.executor.with_chunk_jobs(job.request.chunk_jobs);
        let scheme = SchemeConfig::cached(job.request.training_environment, job.request.training);
        let start = job.chunks_done as usize;
        let end = (job.chunks_done + state.stride).min(job.chunks_total) as usize;
        executor
            .run_campaign_chunks(&job.request.config, &scheme, start..end, &mut job.state)
            .map_err(|error| ServerError::JobFailed {
                job_id: job.id,
                detail: error.to_string(),
            })?;
        job.chunks_done = end as u64;
        state.counters.chunks_executed += (end - start) as u64;
        if job.chunks_done >= job.chunks_total {
            job.result = Some(Arc::new(job.state.clone().finish(&job.request.config)));
            state.counters.jobs_completed += 1;
        }

        let checkpoint = CampaignCheckpoint {
            request: job.request,
            chunks_done: job.chunks_done,
            state: job.state.clone(),
        };
        let path = state.checkpoint_dir.join(format!("{:016x}.{CHECKPOINT_EXTENSION}", job.id));
        let checkpoint_outcome = checkpoint.save(&path);

        let progress_outcome = bus.try_advertise::<CampaignProgress>(&progress_topic(job.id));
        if let Ok(publisher) = &progress_outcome {
            let [golden, injected, gaussian, autoencoder] = job.state.partial_summaries();
            publisher.publish(CampaignProgress {
                job_id: job.id,
                chunks_done: job.chunks_done,
                chunks_total: job.chunks_total,
                jobs_folded: job.state.jobs_folded() as u64,
                golden,
                injected,
                gaussian,
                autoencoder,
                complete: job.result.is_some(),
            });
            state.counters.progress_updates += 1;
        }

        match checkpoint_outcome {
            Ok(()) => state.counters.checkpoints_written += 1,
            Err(error) => {
                state.counters.checkpoint_failures += 1;
                return Err(ServerError::CheckpointIo {
                    detail: format!("checkpoint write failed for job {:016x}: {error}", job.id),
                });
            }
        }
        progress_outcome.map(|_| true).map_err(|error| ServerError::ProgressUnpublished {
            job_id: job.id,
            detail: error.to_string(),
        })
    }

    /// Number of jobs currently admitted (pending or complete).
    pub fn job_count(&self) -> usize {
        lock(&self.shared).jobs.len()
    }

    /// Ids of resumed jobs, for observability.
    pub fn resumed_job_ids(&self) -> Vec<u64> {
        lock(&self.shared).jobs.iter().filter(|job| job.resumed).map(|job| job.id).collect()
    }

    /// The on-disk checkpoint path of a job id under this server's
    /// checkpoint directory.
    pub fn checkpoint_path(&self, job_id: u64) -> PathBuf {
        lock(&self.shared).checkpoint_path(job_id)
    }

    /// The checkpoint directory this server persists to.
    pub fn checkpoint_dir(&self) -> PathBuf {
        lock(&self.shared).checkpoint_dir.clone()
    }
}

/// Removes every checkpoint file from `dir` (used by drivers that want a
/// fresh campaign store); other files are left alone.
///
/// # Errors
///
/// Returns [`MavfiError::Io`] when the directory cannot be listed or a
/// checkpoint cannot be removed.
pub fn clear_checkpoints(dir: &Path) -> Result<usize, MavfiError> {
    let mut removed = 0;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().is_some_and(|ext| ext == CHECKPOINT_EXTENSION) {
            std::fs::remove_file(&path)?;
            removed += 1;
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_config_caps_the_job_count() {
        let mut config = CampaignConfig::quick(mavfi_sim::env::EnvironmentKind::Farm, 1);
        config.golden_runs = MAX_CAMPAIGN_JOBS;
        config.injections_per_stage = MAX_CAMPAIGN_JOBS / Stage::ALL.len();
        assert_eq!(validate_config(&config), Ok(()));
        config.golden_runs = MAX_CAMPAIGN_JOBS + 1;
        assert!(matches!(validate_config(&config), Err(ServerError::InvalidRequest { .. })));
        config.golden_runs = 1;
        config.injections_per_stage = MAX_CAMPAIGN_JOBS / Stage::ALL.len() + 1;
        assert!(matches!(validate_config(&config), Err(ServerError::InvalidRequest { .. })));
    }
}
