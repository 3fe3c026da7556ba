//! Error type of the top-level MAVFI framework.

use std::error::Error;
use std::fmt;

/// Errors raised by the MAVFI mission runner, campaigns and experiments.
#[derive(Debug)]
#[non_exhaustive]
pub enum MavfiError {
    /// A configuration value is invalid or inconsistent.
    InvalidConfig {
        /// What is wrong with the configuration.
        reason: String,
    },
    /// A protection scheme requiring trained detectors was requested but no
    /// trained detectors were supplied.
    MissingDetectors {
        /// Which scheme was requested.
        scheme: String,
    },
    /// Reading or writing a file (mission trace, campaign checkpoint)
    /// failed.
    Io(std::io::Error),
    /// Writing or parsing a mission trace header's JSON failed.
    Serialization(serde_json::Error),
    /// A mission trace failed to parse, verify or decompress.
    Trace(mavfi_middleware::trace::TraceError),
}

impl fmt::Display for MavfiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            Self::MissingDetectors { scheme } => {
                write!(f, "protection scheme `{scheme}` requires trained detectors")
            }
            Self::Io(err) => write!(f, "i/o failure: {err}"),
            Self::Serialization(err) => write!(f, "trace header serialization failed: {err}"),
            Self::Trace(err) => write!(f, "mission trace error: {err}"),
        }
    }
}

impl Error for MavfiError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io(err) => Some(err),
            Self::Serialization(err) => Some(err),
            Self::Trace(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for MavfiError {
    fn from(err: std::io::Error) -> Self {
        Self::Io(err)
    }
}

impl From<serde_json::Error> for MavfiError {
    fn from(err: serde_json::Error) -> Self {
        Self::Serialization(err)
    }
}

impl From<mavfi_middleware::trace::TraceError> for MavfiError {
    fn from(err: mavfi_middleware::trace::TraceError) -> Self {
        Self::Trace(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let err = MavfiError::InvalidConfig { reason: "zero runs".into() };
        assert!(err.to_string().contains("zero runs"));
        let err = MavfiError::MissingDetectors { scheme: "Gaussian".into() };
        assert!(err.to_string().contains("Gaussian"));
    }

    #[test]
    fn conversions_from_underlying_errors() {
        let io: MavfiError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(matches!(io, MavfiError::Io(_)));
        assert!(io.source().is_some());
    }
}
