//! `mavfi-detect` implements MAVFI's two low-overhead anomaly detection and
//! recovery schemes: Gaussian-based detection (GAD, per-state online range
//! detectors with per-stage recomputation) and autoencoder-based detection
//! (AAD, one 13-6-3-13 autoencoder over all monitored inter-kernel states
//! with control-stage recomputation), plus the shared data preprocessing and
//! the telemetry collection / training pipeline.
//!
//! # Examples
//!
//! ```
//! use mavfi_detect::prelude::*;
//! use mavfi_ppc::states::{MonitoredStates, StateField};
//!
//! // Collect error-free telemetry and build a Gaussian detector bank.
//! let mut telemetry = TelemetrySet::new();
//! for step in 0..100 {
//!     let mut states = MonitoredStates::default();
//!     states.set_field(StateField::CommandVx, 2.0 + 0.1 * (step as f64 * 0.3).sin());
//!     telemetry.record(&states);
//! }
//! let bank = telemetry.build_gad(CgadConfig::default());
//! let detector = DetectorTap::new(DetectionScheme::Gaussian(bank));
//! assert_eq!(detector.stats().total_alarms(), 0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aad;
pub mod detector_node;
pub mod gad;
pub mod preprocess;
pub mod training;
pub mod welford;

pub use aad::{AadConfig, AadDetector, AadScratch};
pub use detector_node::{DetectionScheme, DetectorStats, DetectorTap, ShadowDetector};
pub use gad::{Cgad, CgadConfig, GadBank};
pub use preprocess::{magnitude_code, sign_exponent, Preprocessor};
pub use training::TelemetrySet;
pub use welford::Welford;

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::aad::{AadConfig, AadDetector, AadScratch};
    pub use crate::detector_node::{DetectionScheme, DetectorStats, DetectorTap, ShadowDetector};
    pub use crate::gad::{Cgad, CgadConfig, GadBank};
    pub use crate::preprocess::{magnitude_code, sign_exponent, Preprocessor};
    pub use crate::training::TelemetrySet;
    pub use crate::welford::Welford;
}
