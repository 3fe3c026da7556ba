//! `farm_served`: one client submits small Farm campaigns with distinct
//! base seeds to an in-process `CampaignServer`, waiting for each to
//! complete before submitting the next.
//!
//! The pool of campaigns is the same for every run seed.  Farm campaign
//! cost depends on the base seed more than a run can average out: four-job
//! pools drawn from run seeds 11–15 took 1.42–1.75 s per job, and on repeat
//! runs the pool of seed 13 stayed at 1.73–1.95 s while that of seed 14
//! stayed at 1.41–1.50 s.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use mavfi::exec::{CampaignExecutor, CampaignFoldState, SchemeConfig};
use mavfi::{
    CampaignClient, CampaignRequest, CampaignServer, EnvironmentCampaign, JobStatus,
    TrainedDetectors,
};
use mavfi_middleware::Bus;
use mavfi_sim::EnvironmentKind;
use mavfi_telemetry::ServerCounters;

use crate::campaign;
use crate::flight::FlightCounts;
use crate::report::{another, mean, median, pct, per, tail_json, Json, Outcome};
use crate::spans::{Clock, SpanId, Tracer};
use crate::{setup, Args, Layers, Record};

/// Jobs in the pool every pass of an untraced run serves.
const JOBS: u64 = 4;

/// Seed the pool's base seeds are drawn from: the pool whose cost was the
/// median of those measured above.
const POOL_SEED: u64 = 15;

/// Jobs served in a traced run.
const TRACED_JOBS: u64 = 4;

/// Job `index` of the pool: a Farm campaign of 4 golden runs and 4
/// injections per stage (40 missions) with its own base seed, each mission
/// limited to 30 s (a fault-free Farm flight lands in about 18 s).  Its 16
/// campaign jobs make two chunks of the executor's default batch of 8, so
/// two workers share a job; a campaign of one chunk left one idle and its
/// latency followed the speed of a single core of the host.
fn request(index: u64) -> CampaignRequest {
    let mut request = CampaignRequest::quick(EnvironmentKind::Farm, mix(POOL_SEED, index));
    request.config.golden_runs = 4;
    request.config.injections_per_stage = 4;
    request.config.mission_time_budget = 30.0;
    request.training_environment = setup::TRAINING_ENVIRONMENT;
    request.training = setup::TRAINING;
    request
}

/// A well-mixed 64-bit value for `(seed, index)` (SplitMix64 finaliser), so
/// neighbouring jobs and runs get unrelated base seeds.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index)
        .wrapping_add(0x632b_e59b_d9b4_e019);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A served job's result and its client-side timings (ns).
struct Served {
    request: CampaignRequest,
    result: Arc<EnvironmentCampaign>,
    latency_ns: u64,
    submit_ns: u64,
    status_ns: Vec<u64>,
    steps_ns: Vec<u64>,
    job_id: u64,
}

/// The in-process service: a server with one executor worker per core and
/// a checkpoint stride equal to the worker count, and a client on its bus.
struct Service {
    bus: Bus,
    server: CampaignServer,
    client: CampaignClient,
    dir: PathBuf,
}

impl Service {
    fn start(workers: usize, seed: u64) -> Result<Self, String> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("checkpoints-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = CampaignServer::new(CampaignExecutor::new(workers), &dir)
            .map_err(|error| format!("CampaignServer::new: {error}"))?
            .with_checkpoint_stride(workers);
        let bus = Bus::new();
        server.attach(&bus);
        let client = CampaignClient::new(&bus);
        Ok(Self { bus, server, client, dir })
    }

    /// Submits `request` and drives the server until the job completes,
    /// polling its status between steps.  With a tracer, each call is a
    /// span under `parent`.
    fn serve(
        &self,
        request: CampaignRequest,
        mut tracer: Option<(&mut Tracer, SpanId)>,
    ) -> Result<Served, String> {
        let clock = tracer.as_ref().map_or_else(Clock::start, |(tracer, _)| tracer.clock());
        let mut span = |name: &'static str, from: u64, to: u64| {
            if let Some((tracer, parent)) = tracer.as_mut() {
                tracer.record(name, Some(*parent), from, to);
            }
        };
        let start = clock.now();
        let ticket = self.client.submit(&request).map_err(|error| format!("submit: {error}"))?;
        let submitted = clock.now();
        span("serve.submit", start, submitted);
        let (mut status_ns, mut steps_ns) = (Vec::new(), Vec::new());
        let result = loop {
            let begin = clock.now();
            let status =
                self.client.status(ticket.job_id).map_err(|error| format!("status: {error}"))?;
            let polled = clock.now();
            span("serve.status", begin, polled);
            status_ns.push(polled - begin);
            if let JobStatus::Complete(result) = status {
                break result;
            }
            self.server.step_once(&self.bus).map_err(|error| format!("step_once: {error}"))?;
            let stepped = clock.now();
            span("serve.step_once", polled, stepped);
            steps_ns.push(stepped - polled);
        };
        Ok(Served {
            request,
            result,
            latency_ns: clock.now() - start,
            submit_ns: submitted - start,
            status_ns,
            steps_ns,
            job_id: ticket.job_id,
        })
    }

    fn counters(&self) -> ServerCounters {
        self.server.counters()
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn library(workers: usize, request: &CampaignRequest) -> Result<EnvironmentCampaign, String> {
    let scheme = SchemeConfig::cached(request.training_environment, request.training);
    CampaignExecutor::new(workers)
        .run_campaign(&request.config, &scheme)
        .map_err(|error| format!("run_campaign: {error}"))
}

fn record_counters(record: &mut Record, counters: &ServerCounters) {
    record.count("server.jobs_submitted", counters.jobs_submitted);
    record.count("server.duplicate_submissions", counters.duplicate_submissions);
    record.count("server.jobs_resumed", counters.jobs_resumed);
    record.count("server.jobs_completed", counters.jobs_completed);
    record.count("server.chunks_executed", counters.chunks_executed);
    record.count("server.checkpoints_written", counters.checkpoints_written);
    record.count("server.checkpoint_failures", counters.checkpoint_failures);
    record.count("server.progress_updates", counters.progress_updates);
}

fn recomputations(served: &[Served]) -> u64 {
    served
        .iter()
        .flat_map(|job| {
            job.result.gaussian_recomputations.iter().chain(&job.result.autoencoder_recomputations)
        })
        .map(|(_, count)| count)
        .sum()
}

pub fn run(args: &Args, outcome: &mut Outcome, layers: &mut Layers, record: &mut Record) {
    let (detectors, setup_s) = setup::train(outcome);
    let missions_per_job = campaign::missions(&request(0).config);
    record.shape("missions_per_job", missions_per_job as u64);
    if args.trace {
        match Service::start(record.workers, args.seed) {
            Ok(service) => traced(args, &service, &detectors, outcome, layers, record),
            Err(error) => outcome.error(error),
        }
        return;
    }

    // Whole passes over the job pool, each on a fresh server: a server
    // recognises a request it has served and would not fly it again.
    let mut first: Vec<Served> = Vec::new();
    let mut latency_ms = Vec::new();
    let mut counters = ServerCounters::default();
    let mut passes = 0;
    let start = Instant::now();
    'passes: while another(passes, start.elapsed().as_secs_f64(), args.seconds) {
        let service = match Service::start(record.workers, args.seed) {
            Ok(service) => service,
            Err(error) => {
                outcome.error(error);
                break;
            }
        };
        for index in 0..JOBS {
            let job = match service.serve(request(index), None) {
                Ok(job) => job,
                Err(error) => {
                    outcome.error(error);
                    break 'passes;
                }
            };
            latency_ms.push(job.latency_ns as f64 / 1e6);
            match first.get(index as usize) {
                Some(earlier) => outcome.check(earlier.result == job.result, || {
                    format!("job {:016x}: served result differs between passes", job.job_id)
                }),
                None => first.push(job),
            }
        }
        counters = service.counters();
        passes += 1;
    }
    let wall = start.elapsed().as_secs_f64();

    // Outside the timed window: each job's first served result against
    // library `run_campaign` on the same request.
    for job in &first {
        match library(record.workers, &job.request) {
            Ok(campaign) => outcome.check(campaign == *job.result, || {
                format!("job {:016x}: served result differs from run_campaign", job.job_id)
            }),
            Err(error) => outcome.error(error),
        }
    }

    let served = latency_ms.len();
    record.shape("jobs", JOBS);
    record.shape("passes", passes as u64);
    record.shape("served", served as u64);
    record.shape("missions", (served * missions_per_job) as u64);
    record.shape("recomputations_per_pass", recomputations(&first));
    record_counters(record, &counters);
    record.note("wall_missions_per_s", Json::Num((served * missions_per_job) as f64 / wall));
    record.note("job_p50_ms", Json::Num(median(&latency_ms)));
    if let Some(tail) = tail_json(&latency_ms) {
        record.note("job_tail_ms", tail);
    }
    outcome.metric("setup_s", setup_s, "s");
    let request_ms = mean(&latency_ms);
    outcome.metric("missions_per_s", missions_per_job as f64 / (request_ms / 1e3), "1/s");
    outcome.metric("request_ms", request_ms, "ms");
    outcome.metric(
        "golden_success_pct",
        campaign::success_pct(first.iter().map(|job| &job.result.golden)),
        "%",
    );
    outcome.metric(
        "aad_success_pct",
        campaign::success_pct(first.iter().map(|job| &job.result.autoencoder)),
        "%",
    );
}

fn traced(
    args: &Args,
    service: &Service,
    detectors: &TrainedDetectors,
    outcome: &mut Outcome,
    layers: &mut Layers,
    record: &mut Record,
) {
    let mut tracer = Tracer::new();
    let root = tracer.open("farm_served", None);
    let (collect_s, fit_s) = setup::train_traced(detectors, &mut tracer, root, outcome);

    // Each job served, then the same request through library run_campaign,
    // chunk by chunk alone, and through the traced loop.  Interleaving per
    // job lets a slow spell of the host fall on all four alike.
    let executor = CampaignExecutor::new(record.workers);
    let mut counts = FlightCounts::default();
    let mut served = Vec::new();
    let mut chunk_s = Vec::new();
    let mut checkpoint_bytes = Vec::new();
    let (mut served_ns, mut library_ns, mut alone_ns, mut traced_ns) = (0, 0, 0, 0);
    for index in 0..TRACED_JOBS {
        let span = tracer.open("serve.job", Some(root));
        let job = service.serve(request(index), Some((&mut tracer, span)));
        served_ns += tracer.close(span);
        let job = match job {
            Ok(job) => job,
            Err(error) => {
                outcome.error(error);
                continue;
            }
        };
        if let Ok(metadata) = std::fs::metadata(service.server.checkpoint_path(job.job_id)) {
            checkpoint_bytes.push(metadata.len() as f64);
        }
        let config = job.request.config;
        let (campaign, nanos) =
            tracer.time("exec.run_campaign", Some(root), || library(record.workers, &job.request));
        library_ns += nanos;
        match campaign {
            Ok(campaign) => outcome.check(campaign == *job.result, || {
                format!("job {:016x}: served result differs from run_campaign", job.job_id)
            }),
            Err(error) => outcome.error(error),
        }

        let scheme = SchemeConfig::cached(job.request.training_environment, job.request.training);
        let mut state = CampaignFoldState::new(&config);
        for chunk in 0..executor.campaign_chunk_count(&config) {
            let (result, nanos) = tracer.time("exec.chunk", Some(root), || {
                executor.run_campaign_chunks(&config, &scheme, chunk..chunk + 1, &mut state)
            });
            alone_ns += nanos;
            chunk_s.push(nanos as f64 / 1e9);
            if let Err(error) = result {
                outcome.error(format!("run_campaign_chunks({chunk}): {error}"));
            }
        }
        outcome.check(state.finish(&config) == *job.result, || {
            format!("job {:016x}: chunks run alone fold differently", job.job_id)
        });

        let begin = tracer.now();
        let fold = campaign::fly_traced(&config, detectors, &mut tracer, root, &mut counts);
        traced_ns += tracer.now() - begin;
        outcome.check(fold.matches(&config, &job.result), || {
            format!("job {:016x}: the traced loop's fold differs", job.job_id)
        });
        served.push(job);
    }
    tracer.close(root);

    let tree = tracer.tree();
    record.shape("jobs", served.len() as u64);
    record.shape("chunks", chunk_s.len() as u64);
    record_counters(record, &service.counters());
    record.flights(&counts, 1);

    let statuses: Vec<u64> = served.iter().flat_map(|job| job.status_ns.iter().copied()).collect();
    let steps: Vec<u64> = served.iter().flat_map(|job| job.steps_ns.iter().copied()).collect();
    let chunk_total: f64 = chunk_s.iter().sum();
    let submit_total: u64 = served.iter().map(|job| job.submit_ns).sum();
    layers.flights(&tracer, &tree, &counts, 1);
    layers.set("exec.chunks", chunk_s.len() as f64);
    layers.set("exec.chunk_s_max", chunk_s.iter().copied().fold(0.0, f64::max));
    layers.set("exec.chunk_s_mean", per(chunk_total, chunk_s.len() as u64));
    layers.set(
        "exec.efficiency_pct",
        pct(chunk_total, record.workers as f64 * library_ns as f64 / 1e9),
    );
    layers.set("serve.submit_us", per(submit_total as f64 / 1e3, served.len() as u64));
    layers.set(
        "serve.status_us",
        per(statuses.iter().sum::<u64>() as f64 / 1e3, statuses.len() as u64),
    );
    layers.set("serve.stride_ms", per(steps.iter().sum::<u64>() as f64 / 1e6, steps.len() as u64));
    layers.set("serve.checkpoint_bytes", median(&checkpoint_bytes));
    layers.set("serve.overhead_pct", pct(served_ns as f64 - library_ns as f64, library_ns as f64));
    layers.set("training.collect_s", collect_s);
    layers.set("training.fit_s", fit_s);
    // The untraced twin of the traced loop: the same missions, chunk by
    // chunk on one worker.
    layers.set("tracing.overhead_pct", pct(traced_ns as f64 - alone_ns as f64, alone_ns as f64));
    crate::finish_trace(&tracer, &tree, args, layers, record);
}
