//! `mavfi-fault` provides MAVFI's fault-injection machinery: the single-bit
//! flip fault model over IEEE-754 doubles, injection targets at kernel /
//! inter-kernel-state / stage granularity, the one-shot [`FaultInjector`]
//! stage tap, and campaign planning for the paper's 100-runs-per-target
//! experiments.
//!
//! # Examples
//!
//! ```
//! use mavfi_fault::prelude::*;
//! use mavfi_ppc::kernel::KernelId;
//!
//! // Plan the Fig. 3 campaign: 100 single-bit injections per kernel, each
//! // firing at a random tick in [10, 300).
//! let targets: Vec<_> = KernelId::FIG3_KERNELS.into_iter().map(InjectionTarget::Kernel).collect();
//! let plan =
//!     CampaignPlan::new(&targets, 100, FaultModel::default(), TriggerWindow::new(10, 300), 42);
//! assert_eq!(plan.len(), 700);
//! let first = plan.specs()[0];
//! let injector = FaultInjector::new(first);
//! assert!(!injector.has_fired());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bitflip;
pub mod campaign;
pub mod injector;
pub mod model;
pub mod severity;
pub mod target;

pub use bitflip::{flip_bit, flip_is_masked, BitField};
pub use campaign::{CampaignPlan, TriggerWindow};
pub use injector::{FaultInjector, FaultRecord, FaultSpec};
pub use model::{BitSelection, CorruptionDetail, FaultModel};
pub use severity::{classify, classify_detail, FlipSurvey, Severity, SeverityThresholds};
pub use target::InjectionTarget;

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::bitflip::{flip_bit, BitField};
    pub use crate::campaign::{CampaignPlan, TriggerWindow};
    pub use crate::injector::{FaultInjector, FaultRecord, FaultSpec};
    pub use crate::model::{BitSelection, FaultModel};
    pub use crate::severity::{
        classify, classify_detail, FlipSurvey, Severity, SeverityThresholds,
    };
    pub use crate::target::InjectionTarget;
}
