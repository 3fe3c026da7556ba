//! `mavfi-telemetry` is the observability layer of the MAVFI reproduction:
//! always compiled, runtime-toggleable, **allocation-free after setup** and
//! **provably inert w.r.t. results**.
//!
//! Three pieces (see `docs/OBSERVABILITY.md` for the design rules):
//!
//! * [`LatencyHistogram`] — fixed-bucket log2 wall-clock histograms
//!   (p50/p90/p99/max) per [`KernelId`](mavfi_ppc::KernelId), recorded via
//!   array-indexed buckets so the counting-allocator tests pass with
//!   telemetry on.  Per-planner latency falls out of per-kernel bucketing:
//!   each planner is its own kernel.
//! * [`EventTimeline`] — the deterministic fault → detect → recover record,
//!   stamped with tick index + sim time (never wall clock), bit-identical
//!   across runs and worker counts; detection/recovery latency is reported
//!   in ticks exactly as the paper frames it.
//! * [`MissionTelemetry`] / [`TelemetryReport`] — the per-mission sink the
//!   runner feeds each tick, and the serde-serialised campaign rollup
//!   `run_campaign` merges in deterministic run order (fixed order,
//!   histogram bucket-wise addition).
//!
//! The one rule everything here obeys: **wall clock never feeds results**.
//! Wall-clock data exists only inside histograms and the rollup's
//! `wall_clock` section; all control flow, all counters and the whole
//! timeline derive from deterministic simulation state.

pub mod histogram;
pub mod report;
pub mod sink;
pub mod timeline;

pub use histogram::LatencyHistogram;
pub use report::{
    LatencyTicks, MissionReport, ServerCounters, TelemetryReport, TrunkCounters, WallClockRollup,
};
pub use sink::{MissionTelemetry, TelemetryCounters};
pub use timeline::{EventTimeline, TelemetryEvent, TimelineEvent};

/// Commonly used items, suitable for glob import.
pub mod prelude {
    pub use crate::histogram::LatencyHistogram;
    pub use crate::report::{
        LatencyTicks, MissionReport, ServerCounters, TelemetryReport, TrunkCounters,
        WallClockRollup,
    };
    pub use crate::sink::{MissionTelemetry, TelemetryCounters};
    pub use crate::timeline::{EventTimeline, TelemetryEvent, TimelineEvent};
}
