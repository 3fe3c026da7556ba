//! Campaign-as-a-service demo: run a [`CampaignServer`] on the in-repo
//! middleware, submit campaigns from a typed client, stream incremental
//! progress, kill the server mid-flight and resume from its checkpoints.
//!
//! Run with: `cargo run --release --example campaign_server`
//!
//! With `--smoke` the example instead runs the CI acceptance loop: submit a
//! tiny campaign, kill the server after one checkpointed stride, resume on
//! a fresh server over the same checkpoint directory, and verify that the
//! final result is byte-identical to both an uninterrupted serve and the
//! library `run_campaign` call — exiting non-zero on any mismatch.
//! `scripts/check.sh` runs this mode.
//!
//! See `docs/SERVING.md` for the protocol, determinism contract and
//! failure taxonomy.

use std::path::PathBuf;

use mavfi::prelude::*;
use mavfi_middleware::prelude::*;

/// A small five-job campaign: 2 golden + 3 injections in 3 chunks of 2.
fn request_for(environment: EnvironmentKind, seed: u64) -> CampaignRequest {
    let mut request = CampaignRequest::quick(environment, seed);
    request.config.golden_runs = 2;
    request.config.injections_per_stage = 1;
    request.config.mission_time_budget = 90.0;
    request.chunk_jobs = 2;
    request
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mavfi_example_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Steps the server until `job_id` completes, draining progress updates.
fn drive(
    server: &CampaignServer,
    bus: &Bus,
    client: &CampaignClient,
    job_id: u64,
) -> std::sync::Arc<EnvironmentCampaign> {
    loop {
        if let Some(result) = client.result(job_id).expect("job is known") {
            return result;
        }
        server.step_once(bus).expect("server step");
    }
}

fn json(campaign: &EnvironmentCampaign) -> String {
    serde_json::to_string(campaign).expect("serialize campaign")
}

fn print_campaign(campaign: &EnvironmentCampaign) {
    println!("  {:<16} {:>8} {:>10} {:>12}", "setting", "runs", "success", "mean time");
    for setting in campaign.settings() {
        println!(
            "  {:<16} {:>8} {:>9.0}% {:>10.1} s",
            setting.label,
            setting.summary.runs,
            setting.summary.success_rate * 100.0,
            setting.summary.mean_flight_time_s,
        );
    }
}

/// The CI acceptance loop: kill-resume equals uninterrupted equals library.
fn smoke() -> i32 {
    let request = request_for(EnvironmentKind::Farm, 91);
    let scheme = SchemeConfig::cached(request.training_environment, request.training);
    let library = CampaignExecutor::new(2)
        .with_chunk_jobs(request.chunk_jobs)
        .run_campaign(&request.config, &scheme)
        .expect("library campaign");
    let reference = json(&library);

    // Uninterrupted serve.
    let uninterrupted_dir = fresh_dir("smoke_ref");
    let bus = Bus::new();
    let server = CampaignServer::new(CampaignExecutor::new(2), uninterrupted_dir.clone())
        .expect("create server");
    server.attach(&bus);
    let client = CampaignClient::new(&bus);
    let ticket = client.submit(&request).expect("submit");
    let uninterrupted = drive(&server, &bus, &client, ticket.job_id);
    if json(&uninterrupted) != reference {
        eprintln!("smoke FAILED: uninterrupted serve diverged from run_campaign");
        return 1;
    }

    // Kill after one stride, then resume on a fresh server + bus.
    let dir = fresh_dir("smoke_resume");
    let job_id = {
        let bus = Bus::new();
        let server =
            CampaignServer::new(CampaignExecutor::new(2), dir.clone()).expect("create server");
        server.attach(&bus);
        let client = CampaignClient::new(&bus);
        let ticket = client.submit(&request).expect("submit");
        server.step_once(&bus).expect("first stride");
        ticket.job_id
        // The server, bus and client drop here: the "kill".
    };
    let bus = Bus::new();
    let server =
        CampaignServer::new(CampaignExecutor::new(2), dir.clone()).expect("restarted server");
    if server.resumed_job_ids() != vec![job_id] {
        eprintln!("smoke FAILED: restarted server did not resume the checkpointed job");
        return 1;
    }
    server.attach(&bus);
    let client = CampaignClient::new(&bus);
    let resumed = drive(&server, &bus, &client, job_id);
    if json(&resumed) != reference {
        eprintln!("smoke FAILED: resumed serve diverged from run_campaign");
        return 1;
    }

    let _ = std::fs::remove_dir_all(&uninterrupted_dir);
    let _ = std::fs::remove_dir_all(&dir);
    println!("smoke ok: kill/resume and uninterrupted serves are byte-identical to run_campaign");
    0
}

fn demo() {
    let dir = fresh_dir("demo");
    println!("=== Campaign server demo (checkpoints in {}) ===", dir.display());

    let requests = [request_for(EnvironmentKind::Farm, 7), request_for(EnvironmentKind::Sparse, 8)];

    // Phase 1: submit both campaigns, then "crash" after a few strides.
    let bus = Bus::new();
    let server = CampaignServer::new(CampaignExecutor::new(2), dir.clone())
        .expect("create server")
        .with_checkpoint_stride(1);
    server.attach(&bus);
    let client = CampaignClient::new(&bus);
    let tickets: Vec<JobTicket> =
        requests.iter().map(|request| client.submit(request).expect("submit")).collect();
    let subscribers: Vec<_> =
        tickets.iter().map(|ticket| client.subscribe_progress(ticket.job_id)).collect();
    for ticket in &tickets {
        println!(
            "submitted job {:016x}: {} chunks, streaming on {}",
            ticket.job_id, ticket.chunks_total, ticket.progress_topic
        );
    }

    for _ in 0..3 {
        server.step_once(&bus).expect("server step");
    }
    for subscriber in &subscribers {
        for update in subscriber.drain() {
            println!(
                "progress job {:016x}: {}/{} chunks, {} runs folded",
                update.job_id, update.chunks_done, update.chunks_total, update.jobs_folded
            );
        }
    }
    println!("--- killing the server after 3 strides (checkpoints survive) ---");
    drop(server);
    CampaignServer::detach(&bus);

    // Phase 2: a fresh server on the same directory resumes both jobs.
    let server =
        CampaignServer::new(CampaignExecutor::new(2), dir.clone()).expect("restarted server");
    for job_id in server.resumed_job_ids() {
        println!("resumed job {job_id:016x} from its checkpoint");
    }
    server.attach(&bus);
    for ticket in &tickets {
        let campaign = drive(&server, &bus, &client, ticket.job_id);
        println!("\njob {:016x} ({:?}) complete:", ticket.job_id, campaign.environment);
        print_campaign(&campaign);
    }

    let counters = server.counters();
    println!(
        "\nserver counters: {} resumed, {} chunks executed, {} checkpoints written, \
         {} progress updates",
        counters.jobs_resumed,
        counters.chunks_executed,
        counters.checkpoints_written,
        counters.progress_updates,
    );
    println!(
        "(wall-clock and serving history are stripped by TelemetryReport::deterministic_view; \
         results are byte-identical to `run_campaign` — see tests/server_determinism.rs)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn main() {
    if std::env::args().any(|arg| arg == "--smoke") {
        std::process::exit(smoke());
    }
    demo();
}
