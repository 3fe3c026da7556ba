//! Error types shared across the middleware.

use std::error::Error;
use std::fmt;

/// Errors raised by bus and service operations.
///
/// Every public fallible middleware API returns this type.  The variants are
/// intentionally coarse: the middleware is an in-process substrate, so the
/// only failure modes are type mismatches and unknown service names.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MiddlewareError {
    /// A topic was accessed with a message type different from the type it
    /// was first advertised or subscribed with.
    TopicTypeMismatch {
        /// Name of the offending topic.
        topic: String,
    },
    /// A service call referenced a service that no server has advertised.
    NoSuchService {
        /// Name of the missing service.
        service: String,
    },
    /// A service was called with request/response types different from the
    /// types registered by its server.
    ServiceTypeMismatch {
        /// Name of the offending service.
        service: String,
    },
}

impl fmt::Display for MiddlewareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::TopicTypeMismatch { topic } => {
                write!(f, "topic `{topic}` accessed with mismatched message type")
            }
            Self::NoSuchService { service } => {
                write!(f, "no server advertised for service `{service}`")
            }
            Self::ServiceTypeMismatch { service } => {
                write!(f, "service `{service}` called with mismatched request or response type")
            }
        }
    }
}

impl Error for MiddlewareError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase_start() {
        let errors = [
            MiddlewareError::TopicTypeMismatch { topic: "imu".into() },
            MiddlewareError::NoSuchService { service: "plan".into() },
            MiddlewareError::ServiceTypeMismatch { service: "plan".into() },
        ];
        for err in errors {
            let text = err.to_string();
            assert!(!text.is_empty());
            assert!(!text.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MiddlewareError>();
    }
}
