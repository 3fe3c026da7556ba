//! Campaign-as-a-service: a sharded, checkpointing campaign server over
//! the in-repo middleware.
//!
//! [`CampaignServer`] promotes [`run_campaign`](crate::exec::CampaignExecutor::run_campaign)
//! from a library call into a long-running service: clients submit
//! [`CampaignRequest`]s over a bus service, the server shards each
//! campaign across its persistent worker pool in *chunks* of consecutive
//! jobs, streams incremental [`CampaignProgress`] aggregates on a per-job
//! topic, and persists a versioned, digest-checked [`CampaignCheckpoint`]
//! after every stride, one stride per
//! [`step_once`](CampaignServer::step_once) call.  A server killed at any
//! point — between strides, or mid-write thanks to atomic checkpoint
//! renames — resumes from the last checkpoint and produces a final
//! campaign **byte-identical** to an uninterrupted serve and to the library
//! call.
//!
//! The determinism contract, wire protocol and failure taxonomy are
//! documented in `docs/SERVING.md`; `tests/server_faults.rs` and
//! `tests/server_determinism.rs` enforce them.
//!
//! # Examples
//!
//! ```no_run
//! use mavfi::exec::CampaignExecutor;
//! use mavfi::serve::{CampaignClient, CampaignRequest, CampaignServer};
//! use mavfi_middleware::Bus;
//! use mavfi_sim::env::EnvironmentKind;
//!
//! let bus = Bus::new();
//! let server = CampaignServer::new(CampaignExecutor::new(4), "/tmp/campaigns").unwrap();
//! server.attach(&bus);
//! let client = CampaignClient::new(&bus);
//! let ticket = client.submit(&CampaignRequest::quick(EnvironmentKind::Farm, 7)).unwrap();
//! let progress = client.subscribe_progress(ticket.job_id);
//!
//! while server.step_once(&bus).unwrap() {
//!     if let Some(update) = progress.drain().last() {
//!         println!("{}/{} chunks", update.chunks_done, update.chunks_total);
//!     }
//! }
//! let campaign = client.result(ticket.job_id).unwrap().expect("complete");
//! println!("golden success rate {}", campaign.golden.summary.success_rate);
//! ```

pub mod checkpoint;
pub mod client;
pub mod protocol;
pub mod server;

pub use checkpoint::{request_job_id, CampaignCheckpoint, CHECKPOINT_MAGIC, CHECKPOINT_VERSION};
pub use client::CampaignClient;
pub use protocol::{
    progress_topic, CampaignProgress, CampaignRequest, JobStatus, JobTicket, ServerError,
    STATUS_SERVICE, SUBMIT_SERVICE,
};
pub use server::{clear_checkpoints, CampaignServer, CHECKPOINT_EXTENSION, MAX_CAMPAIGN_JOBS};
