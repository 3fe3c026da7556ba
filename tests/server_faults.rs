//! Fault-injection harness for the campaign service *itself*: kill the
//! server at every checkpoint boundary, corrupt and truncate checkpoint
//! files, drop and duplicate client submissions — and assert that resume
//! equals an uninterrupted serve bit-for-bit and that every failure
//! surfaces as a typed [`ServerError`], never a panic.
//!
//! This is the service-level counterpart of `tests/replay_determinism.rs`:
//! there the artifact under attack is a mission trace, here it is the
//! campaign server's own persistence and protocol layer.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use mavfi_suite::mavfi::serve::{progress_topic, CampaignCheckpoint};
use mavfi_suite::mavfi_middleware::prelude::*;
use mavfi_suite::mavfi_middleware::trace::{fold_digest, DIGEST_SEED};
use mavfi_suite::prelude::*;

/// A tiny three-job campaign (2 golden runs, each paired with one of the 3
/// injections) with a pinned chunk size of 1, i.e. exactly 3 checkpointable
/// chunks.
fn quick_request(seed: u64) -> CampaignRequest {
    let mut request = CampaignRequest::quick(EnvironmentKind::Farm, seed);
    request.config.golden_runs = 2;
    request.config.injections_per_stage = 1;
    request.config.mission_time_budget = 60.0;
    request.chunk_jobs = 1;
    request
}

/// A fresh per-test checkpoint directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mavfi_faults_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    dir
}

/// The library-call reference the served results must be byte-identical to.
fn library_reference(request: &CampaignRequest, workers: usize) -> EnvironmentCampaign {
    let scheme = SchemeConfig::cached(request.training_environment, request.training);
    CampaignExecutor::new(workers)
        .with_chunk_jobs(request.chunk_jobs)
        .run_campaign(&request.config, &scheme)
        .expect("library campaign")
}

/// Serves `request` on a fresh server over `dir` until completion.
fn serve_to_completion(
    request: &CampaignRequest,
    workers: usize,
    dir: &Path,
) -> Arc<EnvironmentCampaign> {
    let bus = Bus::new();
    let server = CampaignServer::new(CampaignExecutor::new(workers), dir).expect("create server");
    server.attach(&bus);
    let client = CampaignClient::new(&bus);
    let ticket = client.submit(request).expect("submit");
    drive_to_completion(&server, &bus, &client, ticket.job_id)
}

/// Steps `server` until `job_id` reports a final campaign.
fn drive_to_completion(
    server: &CampaignServer,
    bus: &Bus,
    client: &CampaignClient,
    job_id: u64,
) -> Arc<EnvironmentCampaign> {
    for _ in 0..64 {
        if let Some(result) = client.result(job_id).expect("status") {
            return result;
        }
        server.step_once(bus).expect("server step");
    }
    panic!("job {job_id:016x} did not complete");
}

fn as_json(campaign: &EnvironmentCampaign) -> String {
    serde_json::to_string(campaign).expect("serialize campaign")
}

#[test]
fn served_results_match_the_library_for_multiple_worker_counts() {
    let request = quick_request(901);
    let reference = library_reference(&request, 1);
    for workers in [1, 2] {
        let library = library_reference(&request, workers);
        let served =
            serve_to_completion(&request, workers, &fresh_dir(&format!("match_w{workers}")));
        assert_eq!(*served, library, "{workers} workers: served vs library");
        assert_eq!(as_json(&served), as_json(&reference), "{workers} workers: serialized bytes");
    }
}

/// The acceptance criterion: kill the server after every possible number of
/// completed checkpoint strides (including before the first and after the
/// last), restart on the same checkpoint directory without resubmitting,
/// and require the final campaign to be byte-identical to the
/// uninterrupted library result — for more than one worker count.
#[test]
fn kill_at_every_checkpoint_boundary_then_resume_is_bit_identical() {
    let request = quick_request(902);
    for workers in [1, 2] {
        let reference = library_reference(&request, workers);
        let reference_json = as_json(&reference);
        for kill_after in 0..=3u64 {
            let label = format!("workers {workers}, killed after {kill_after} strides");
            let dir = fresh_dir(&format!("kill_w{workers}_k{kill_after}"));

            // Phase A: serve until the boundary, then "kill" the process by
            // dropping the server, its bus and every client.
            let job_id = {
                let bus = Bus::new();
                let server = CampaignServer::new(CampaignExecutor::new(workers), dir.clone())
                    .expect("create server");
                server.attach(&bus);
                let client = CampaignClient::new(&bus);
                let ticket = client.submit(&request).expect("submit");
                assert_eq!(ticket.chunks_total, 3, "{label}: chunk count");
                for _ in 0..kill_after {
                    assert!(server.step_once(&bus).expect("server step"), "{label}: had work");
                }
                if kill_after < ticket.chunks_total {
                    let status = client.status(ticket.job_id).expect("status");
                    assert_eq!(
                        status,
                        JobStatus::Pending { chunks_done: kill_after, chunks_total: 3 },
                        "{label}: pre-kill status"
                    );
                }
                ticket.job_id
            };

            // Phase B: a fresh server on the same directory resumes the job
            // from its checkpoint — no resubmission.
            let bus = Bus::new();
            let server = CampaignServer::new(CampaignExecutor::new(workers), dir.clone())
                .expect("restarted server");
            assert_eq!(server.resumed_job_ids(), vec![job_id], "{label}: resumed job");
            let counters = server.counters();
            assert_eq!(counters.jobs_resumed, 1, "{label}: resume counter");
            assert_eq!(counters.checkpoints_loaded, 1, "{label}: load counter");
            server.attach(&bus);
            let client = CampaignClient::new(&bus);
            let resumed = drive_to_completion(&server, &bus, &client, job_id);

            assert_eq!(*resumed, reference, "{label}: resumed vs library");
            assert_eq!(as_json(&resumed), reference_json, "{label}: serialized bytes");
        }
    }
}

#[test]
fn duplicate_submissions_are_idempotent() {
    let request = quick_request(903);
    let reference = library_reference(&request, 2);
    let dir = fresh_dir("dup");
    let bus = Bus::new();
    let server = CampaignServer::new(CampaignExecutor::new(2), dir).expect("create server");
    server.attach(&bus);
    let client = CampaignClient::new(&bus);

    let first = client.submit(&request).expect("submit");
    assert!(!first.duplicate);
    let second = client.submit(&request).expect("resubmit");
    assert!(second.duplicate, "identical request lands on the existing job");
    assert_eq!(second.job_id, first.job_id);
    assert_eq!(server.job_count(), 1, "no second job was enqueued");

    // A duplicate arriving mid-run reports the job's live progress.
    server.step_once(&bus).expect("server step");
    let mid = client.submit(&request).expect("mid-run resubmit");
    assert!(mid.duplicate);
    assert_eq!(mid.chunks_done, 1);

    let result = drive_to_completion(&server, &bus, &client, first.job_id);
    // Even a duplicate arriving after completion is answered with a ticket.
    let late = client.submit(&request).expect("post-completion resubmit");
    assert!(late.duplicate);
    assert_eq!(late.chunks_done, late.chunks_total);

    let counters = server.counters();
    assert_eq!(counters.jobs_submitted, 1);
    assert_eq!(counters.duplicate_submissions, 3);
    assert_eq!(*result, reference, "duplicates did not perturb the result");
}

#[test]
fn corrupt_checkpoints_surface_as_typed_errors_and_resubmission_recovers() {
    let request = quick_request(904);
    let reference = library_reference(&request, 2);
    let dir = fresh_dir("corrupt");

    // Serve one stride, then kill and corrupt the checkpoint on disk.
    let (job_id, checkpoint_path) = {
        let bus = Bus::new();
        let server =
            CampaignServer::new(CampaignExecutor::new(2), dir.clone()).expect("create server");
        server.attach(&bus);
        let ticket = CampaignClient::new(&bus).submit(&request).expect("submit");
        server.step_once(&bus).expect("server step");
        (ticket.job_id, server.checkpoint_path(ticket.job_id))
    };
    let mut bytes = std::fs::read(&checkpoint_path).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&checkpoint_path, &bytes).expect("write corrupted checkpoint");

    // Plant additional damaged stores: a truncated copy and pure garbage.
    std::fs::write(dir.join("00000000000000aa.mvcp"), &bytes[..8]).expect("truncated");
    std::fs::write(dir.join("00000000000000bb.mvcp"), b"not a checkpoint at all").expect("garbage");

    // Restart: every damaged file becomes a typed recovery error; nothing
    // panics, nothing is silently resumed.
    let bus = Bus::new();
    let server =
        CampaignServer::new(CampaignExecutor::new(2), dir.clone()).expect("restarted server");
    assert_eq!(server.job_count(), 0, "corrupt checkpoints must not be resumed");
    let errors = server.recovery_errors();
    assert_eq!(errors.len(), 3, "one typed error per damaged file: {errors:?}");
    assert!(
        errors.iter().all(|error| matches!(error, ServerError::CheckpointCorrupt { .. })),
        "all damage is detected at the trace layer: {errors:?}"
    );
    assert!(
        errors.iter().any(|error| error.to_string().contains(&format!("{job_id:016x}.mvcp"))),
        "the flipped-byte file is named: {errors:?}"
    );
    assert_eq!(server.counters().checkpoints_corrupt, 3);
    assert_eq!(server.telemetry_report().server.checkpoints_corrupt, 3);
    assert_eq!(
        server.telemetry_report().deterministic_view().server,
        ServerCounters::default(),
        "kill/resume history never leaks into deterministic views"
    );

    // The lost job is typed-unknown, and resubmitting the same request
    // starts it afresh on the same id, overwriting the damaged file.
    server.attach(&bus);
    let client = CampaignClient::new(&bus);
    assert!(matches!(client.status(job_id), Err(ServerError::UnknownJob { .. })));
    let ticket = client.submit(&request).expect("resubmit");
    assert_eq!(ticket.job_id, job_id, "content-derived ids survive the restart");
    assert!(!ticket.duplicate, "the job restarts from scratch");
    let result = drive_to_completion(&server, &bus, &client, job_id);
    assert_eq!(*result, reference, "recovery reproduces the reference bit-for-bit");
}

/// A version 1 checkpoint counted chunks of a run list this build no longer
/// flies: even with a valid digest it is a typed recovery error, never
/// resumed.
#[test]
fn version_one_checkpoints_are_recovery_errors_not_resumed() {
    let request = quick_request(908);
    let dir = fresh_dir("v1");
    let path = {
        let bus = Bus::new();
        let server =
            CampaignServer::new(CampaignExecutor::new(1), dir.clone()).expect("create server");
        server.attach(&bus);
        let ticket = CampaignClient::new(&bus).submit(&request).expect("submit");
        server.checkpoint_path(ticket.job_id)
    };
    // Re-frame the admission checkpoint as version 1, digest included.
    let mut bytes = std::fs::read(&path).expect("read checkpoint");
    bytes.truncate(bytes.len() - 8);
    bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
    let digest = fold_digest(DIGEST_SEED, &bytes);
    bytes.extend_from_slice(&digest.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write version 1 checkpoint");

    let server = CampaignServer::new(CampaignExecutor::new(1), dir).expect("restarted server");
    assert_eq!(server.job_count(), 0, "a version 1 checkpoint must not be resumed");
    let errors = server.recovery_errors();
    assert!(
        matches!(
            errors.as_slice(),
            [ServerError::CheckpointCorrupt { detail, .. }] if detail.contains("version 1")
        ),
        "one typed error naming the version: {errors:?}"
    );
    let counters = server.counters();
    assert_eq!((counters.checkpoints_corrupt, counters.jobs_resumed), (1, 0));
}

#[test]
fn dropped_and_invalid_submissions_fail_typed_never_panic() {
    let request = quick_request(905);
    let bus = Bus::new();
    let client = CampaignClient::new(&bus);

    // No server at all: the middleware error is folded into the taxonomy.
    assert!(matches!(client.submit(&request), Err(ServerError::Unavailable { .. })));

    let dir = fresh_dir("detach");
    let server = CampaignServer::new(CampaignExecutor::new(1), dir).expect("create server");
    server.attach(&bus);
    let ticket = client.submit(&request).expect("submit while attached");

    // A detached (shutting-down) server drops subsequent submissions and
    // polls with typed errors; reattaching restores service.
    CampaignServer::detach(&bus);
    assert!(matches!(client.submit(&request), Err(ServerError::Unavailable { .. })));
    assert!(matches!(client.status(ticket.job_id), Err(ServerError::Unavailable { .. })));
    server.attach(&bus);
    assert!(client.status(ticket.job_id).is_ok());

    // Malformed campaigns are rejected at admission, with reasons.
    let mut empty = request;
    empty.config.golden_runs = 0;
    empty.config.injections_per_stage = 0;
    assert!(matches!(client.submit(&empty), Err(ServerError::InvalidRequest { .. })));
    let mut bad_budget = request;
    bad_budget.config.mission_time_budget = f64::NAN;
    assert!(matches!(client.submit(&bad_budget), Err(ServerError::InvalidRequest { .. })));
    assert_eq!(server.job_count(), 1, "rejected requests are not admitted");
}

/// An unwritable checkpoint store must not lose work or panic: each stride
/// still executes and streams progress, `step_once` returns a typed error
/// naming the job, and the final result is still bit-identical to the
/// library call.
#[test]
fn checkpoint_write_failures_return_typed_errors_but_preserve_results() {
    let request = quick_request(906);
    let reference = library_reference(&request, 2);
    let dir = fresh_dir("unwritable");
    let bus = Bus::new();
    let server = CampaignServer::new(CampaignExecutor::new(2), dir.clone()).expect("create server");
    server.attach(&bus);
    let client = CampaignClient::new(&bus);
    let ticket = client.submit(&request).expect("submit");
    let progress = client.subscribe_progress(ticket.job_id);

    // Sabotage the job's checkpoint path: a non-empty directory squatting
    // on the file name makes the atomic rename fail on every stride.
    let path = server.checkpoint_path(ticket.job_id);
    std::fs::remove_file(&path).expect("remove admission checkpoint");
    std::fs::create_dir(&path).expect("squat a directory on the checkpoint path");
    std::fs::write(path.join("occupied"), b"x").expect("make it non-empty");

    for stride in 0..ticket.chunks_total {
        let error = server.step_once(&bus).expect_err("every stride's checkpoint write fails");
        assert!(matches!(error, ServerError::CheckpointIo { .. }), "stride {stride}: {error:?}");
        let text = error.to_string();
        assert!(text.contains("checkpoint write failed"), "error names the failure: {text}");
        assert!(text.contains(&format!("{:016x}", ticket.job_id)), "error names the job: {text}");
    }
    assert!(!server.step_once(&bus).expect("no work left"), "the job is complete");

    // The work itself was never lost: progress streamed for every stride
    // and the final campaign matches the library bit-for-bit.
    let updates = progress.drain();
    assert_eq!(updates.len(), 3, "one progress update per stride");
    assert!(updates.last().is_some_and(|update| update.complete));
    let result = client.result(ticket.job_id).expect("status").expect("complete");
    assert_eq!(*result, reference);
    assert_eq!(as_json(&result), as_json(&reference));
}

/// A progress topic already held by another message type must not panic
/// the server: each stride still folds, counts and checkpoints, and
/// `step_once` returns a typed error naming the job.
#[test]
fn a_foreign_type_on_the_progress_topic_is_a_typed_error_not_a_panic() {
    let request = quick_request(907);
    let reference = library_reference(&request, 2);
    let dir = fresh_dir("foreign_progress");
    let bus = Bus::new();
    let server = CampaignServer::new(CampaignExecutor::new(2), dir).expect("create server");
    server.attach(&bus);
    let client = CampaignClient::new(&bus);
    let ticket = client.submit(&request).expect("submit");
    let squatter = client.bus().subscribe::<u64>(&progress_topic(ticket.job_id));

    for stride in 1..=ticket.chunks_total {
        let error = server.step_once(&bus).expect_err("the progress topic is taken");
        assert!(
            matches!(error, ServerError::ProgressUnpublished { job_id, .. } if job_id == ticket.job_id),
            "stride {stride}: {error:?}"
        );
        assert!(error.to_string().contains(&format!("{:016x}", ticket.job_id)), "{error}");
        let checkpoint = CampaignCheckpoint::load(&server.checkpoint_path(ticket.job_id))
            .expect("the stride was checkpointed");
        assert_eq!(checkpoint.chunks_done, stride, "checkpoint after stride {stride}");
    }
    assert!(!server.step_once(&bus).expect("no work left"), "the job is complete");

    let counters = server.counters();
    assert_eq!(counters.chunks_executed, ticket.chunks_total);
    assert_eq!(counters.checkpoints_written, ticket.chunks_total + 1, "admission + every stride");
    assert_eq!(counters.checkpoint_failures, 0);
    assert_eq!(counters.progress_updates, 0, "nothing was streamed");
    assert!(squatter.is_empty());
    let result = client.result(ticket.job_id).expect("status").expect("complete");
    assert_eq!(*result, reference);
}

/// Run counts come from outside the program: a request or a digest-valid
/// checkpoint whose job count overflows or exceeds the server's cap is a
/// typed error, never a panic in the bus handler or at resume.
#[test]
fn oversized_campaigns_are_typed_errors_at_admission_and_resume() {
    let request = quick_request(909);
    let dir = fresh_dir("oversized");
    let bus = Bus::new();
    let server = CampaignServer::new(CampaignExecutor::new(1), dir.clone()).expect("create server");
    server.attach(&bus);
    let client = CampaignClient::new(&bus);

    let mut overflowing = request;
    overflowing.config.injections_per_stage = usize::MAX / 2;
    assert!(matches!(client.submit(&overflowing), Err(ServerError::InvalidRequest { .. })));
    let mut huge = request;
    huge.config.golden_runs = usize::MAX;
    assert!(matches!(client.submit(&huge), Err(ServerError::InvalidRequest { .. })));
    assert_eq!(server.job_count(), 0, "rejected requests are not admitted");

    // Re-save a valid admission checkpoint with each oversized request: the
    // digest is valid, the request is not.
    let ticket = client.submit(&request).expect("submit");
    let path = server.checkpoint_path(ticket.job_id);
    let mut checkpoint = CampaignCheckpoint::load(&path).expect("load checkpoint");
    std::fs::remove_file(&path).expect("remove valid checkpoint");
    for (tag, config) in [("aa", overflowing.config), ("bb", huge.config)] {
        checkpoint.request.config = config;
        checkpoint.save(&dir.join(format!("00000000000000{tag}.mvcp"))).expect("save checkpoint");
    }

    let server = CampaignServer::new(CampaignExecutor::new(1), dir).expect("restarted server");
    assert_eq!(server.job_count(), 0, "oversized checkpoints must not be resumed");
    let errors = server.recovery_errors();
    assert_eq!(errors.len(), 2, "one typed error per oversized checkpoint: {errors:?}");
    assert!(
        errors.iter().all(|error| matches!(error, ServerError::CheckpointCorrupt { .. })),
        "oversized requests are corrupt checkpoints: {errors:?}"
    );
    let counters = server.counters();
    assert_eq!((counters.checkpoints_corrupt, counters.jobs_resumed), (2, 0));
}
