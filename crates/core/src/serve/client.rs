//! Typed client driver for the campaign service.

use std::sync::Arc;

use mavfi_middleware::topic::{Bus, Subscriber};

use crate::campaign::EnvironmentCampaign;
use crate::serve::protocol::{
    progress_topic, CampaignProgress, CampaignRequest, JobStatus, JobTicket, ServerError,
    STATUS_SERVICE, SUBMIT_SERVICE,
};

/// A submitting client: wraps the bus services in typed calls and folds
/// middleware-level failures (no server advertised, incompatible types)
/// into the same [`ServerError`] taxonomy the server itself speaks — a
/// client never sees a panic or an untyped error, whether the server is
/// alive, restarted or gone.
#[derive(Debug, Clone)]
pub struct CampaignClient {
    bus: Bus,
}

impl CampaignClient {
    /// A client on `bus`.
    pub fn new(bus: &Bus) -> Self {
        Self { bus: bus.clone() }
    }

    /// Submits a campaign.  Resubmitting an identical request is safe: the
    /// server recognises the duplicate and returns the existing job's
    /// ticket instead of flying it twice.
    ///
    /// # Errors
    ///
    /// [`ServerError::Unavailable`] when no server answers;
    /// [`ServerError::InvalidRequest`] when the server rejects the config.
    pub fn submit(&self, request: &CampaignRequest) -> Result<JobTicket, ServerError> {
        self.bus
            .call_service::<CampaignRequest, Result<JobTicket, ServerError>>(
                SUBMIT_SERVICE,
                *request,
            )
            .map_err(|error| ServerError::Unavailable { detail: error.to_string() })?
    }

    /// Polls a job's status.
    ///
    /// # Errors
    ///
    /// [`ServerError::Unavailable`] when no server answers;
    /// [`ServerError::UnknownJob`] when this server never admitted (or
    /// could not resume) the job.
    pub fn status(&self, job_id: u64) -> Result<JobStatus, ServerError> {
        self.bus
            .call_service::<u64, Result<JobStatus, ServerError>>(STATUS_SERVICE, job_id)
            .map_err(|error| ServerError::Unavailable { detail: error.to_string() })?
    }

    /// The finished campaign of `job_id`, or `None` while it is still
    /// executing.
    ///
    /// # Errors
    ///
    /// Propagates [`status`](Self::status) errors.
    pub fn result(&self, job_id: u64) -> Result<Option<Arc<EnvironmentCampaign>>, ServerError> {
        Ok(match self.status(job_id)? {
            JobStatus::Complete(result) => Some(result),
            JobStatus::Pending { .. } => None,
        })
    }

    /// Subscribes to a job's incremental [`CampaignProgress`] stream.  The
    /// subscription keeps at most the bus's
    /// [`QUEUE_CAPACITY`](mavfi_middleware::topic::QUEUE_CAPACITY) newest
    /// updates.
    pub fn subscribe_progress(&self, job_id: u64) -> Subscriber<CampaignProgress> {
        self.bus.subscribe(&progress_topic(job_id))
    }

    /// The bus this client talks over.
    pub fn bus(&self) -> &Bus {
        &self.bus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mavfi_sim::env::EnvironmentKind;

    #[test]
    fn calls_without_a_server_are_typed_unavailable_errors() {
        let client = CampaignClient::new(&Bus::new());
        let request = CampaignRequest::quick(EnvironmentKind::Farm, 3);
        assert!(matches!(client.submit(&request), Err(ServerError::Unavailable { .. })));
        assert!(matches!(client.status(7), Err(ServerError::Unavailable { .. })));
        assert!(matches!(client.result(7), Err(ServerError::Unavailable { .. })));
    }
}
