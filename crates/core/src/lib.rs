//! # MAVFI — fault analysis with anomaly detection and recovery for MAVs
//!
//! `mavfi` is the top-level crate of a from-scratch Rust reproduction of
//! *"MAVFI: An End-to-End Fault Analysis Framework with Anomaly Detection
//! and Recovery for Micro Aerial Vehicles"* (DATE 2023).  It ties together
//! the workspace substrates — the simulated world ([`mavfi_sim`]), the
//! perception-planning-control pipeline ([`mavfi_ppc`]), the bit-flip fault
//! injector ([`mavfi_fault`]), the Gaussian and autoencoder detectors
//! ([`mavfi_detect`]) and the platform models ([`mavfi_platform`]) — into
//! mission runs, fault-injection campaigns, quality-of-flight reports and
//! the experiment drivers that regenerate every table and figure of the
//! paper's evaluation.
//!
//! # Examples
//!
//! Run one golden mission and one mission with a planning-stage bit flip:
//!
//! ```no_run
//! use mavfi::prelude::*;
//!
//! let spec = MissionSpec::new(EnvironmentKind::Sparse, 42);
//! let runner = MissionRunner::new(spec);
//!
//! let golden = runner.run_golden();
//! let fault = FaultSpec::new(InjectionTarget::Stage(Stage::Planning), 50, 7);
//! let faulty = runner.run(Some(fault), Protection::None, None).unwrap();
//!
//! println!(
//!     "golden {:.1} s vs faulty {:.1} s",
//!     golden.qof.flight_time_s, faulty.qof.flight_time_s
//! );
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod campaign;
pub mod config;
pub mod error;
pub mod exec;
pub mod experiments;
pub mod qof;
pub mod replay;
pub mod report;
pub mod runner;
pub mod serve;
pub mod trace;
pub mod training;

pub use campaign::{CampaignConfig, EnvironmentCampaign, SettingResult};
pub use config::{MissionSpec, Protection, TrainingSpec};
pub use error::MavfiError;
pub use exec::{
    CampaignExecutor, CampaignFoldState, SchemeConfig, TrainedDetectorCache, WorkerPool,
};
pub use qof::{QofMetrics, QofSummary};
pub use replay::{ReplayDivergence, ReplayHarness, ReplayReport};
pub use runner::{Flight, MissionOutcome, MissionRunner, TrainedDetectors};
pub use serve::{
    CampaignClient, CampaignProgress, CampaignRequest, CampaignServer, JobStatus, JobTicket,
    ServerError,
};
pub use trace::{DetectorProvenance, MissionTrace, TraceMeta, TraceTopic};
pub use training::{train_detectors, train_detectors_in};

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::campaign::{CampaignConfig, EnvironmentCampaign, SettingResult};
    pub use crate::config::{MissionSpec, Protection, TrainingSpec};
    pub use crate::error::MavfiError;
    pub use crate::exec::{
        CampaignExecutor, CampaignFoldState, SchemeConfig, TrainedDetectorCache, WorkerPool,
    };
    pub use crate::qof::{QofMetrics, QofSummary};
    pub use crate::replay::{ReplayDivergence, ReplayHarness, ReplayReport};
    pub use crate::report::TextTable;
    pub use crate::runner::{Flight, MissionOutcome, MissionRunner, TrainedDetectors};
    pub use crate::serve::{
        CampaignClient, CampaignProgress, CampaignRequest, CampaignServer, JobStatus, JobTicket,
        ServerError,
    };
    pub use crate::trace::{DetectorProvenance, MissionTrace, TraceMeta, TraceTopic};
    pub use crate::training::{train_detectors, train_detectors_in};

    pub use mavfi_detect::prelude::*;
    pub use mavfi_fault::prelude::*;
    pub use mavfi_platform::prelude::*;
    pub use mavfi_ppc::prelude::*;
    pub use mavfi_sim::prelude::*;
    pub use mavfi_telemetry::prelude::*;
}
