//! `mavfi-platform` models the hardware side of the paper's evaluation: the
//! i9 and Cortex-A57 (TX2) companion computers, the AirSim UAV and DJI Spark
//! airframes, DMR/TMR hardware redundancy, and the cyber-physical visual
//! performance model linking compute latency/power/mass to flight time and
//! mission energy (Figs. 8 and 9).
//!
//! # Examples
//!
//! ```
//! use mavfi_platform::prelude::*;
//!
//! let model = VisualPerformanceModel::default();
//! let estimate = model.evaluate(
//!     &UavSpec::dji_spark(),
//!     &ComputePlatform::cortex_a57(),
//!     ProtectionScheme::Tmr,
//! );
//! assert!(estimate.flight_time_s > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod perf_model;
pub mod redundancy;
pub mod spec;
pub mod uav;

pub use perf_model::{FlightEstimate, ScenarioParams, VisualPerformanceModel};
pub use redundancy::ProtectionScheme;
pub use spec::ComputePlatform;
pub use uav::UavSpec;

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::perf_model::{FlightEstimate, ScenarioParams, VisualPerformanceModel};
    pub use crate::redundancy::ProtectionScheme;
    pub use crate::spec::ComputePlatform;
    pub use crate::uav::UavSpec;
}
