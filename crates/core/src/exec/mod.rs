//! Parallel campaign execution: worker pool, trained-detector cache and the
//! campaign engine.
//!
//! The paper's evaluation protocol (§VI) is 100 golden + 300 injection
//! missions per environment, repeated across ten figures and tables — all
//! embarrassingly parallel, and all sharing a handful of trained detector
//! banks.  This module turns that structure into wall-clock savings without
//! giving up reproducibility:
//!
//! * [`WorkerPool`] — scoped-thread fan-out with work stealing and an
//!   order-restoring streaming aggregator ([`WorkerPool::fold_ordered`]);
//!   results are byte-identical for any worker count.
//! * [`TrainedDetectorCache`] — one trained GAD/AAD bank per
//!   `(environment, training config)`, shared across experiments instead of
//!   retrained per driver.
//! * [`CampaignExecutor`] — the one entry point every campaign runs
//!   through (the experiment drivers, the campaign server and the
//!   benchmark): it builds a campaign's full run list (golden + per-stage
//!   injections), derives every run's seed from `(base_seed, run_index)`
//!   exactly as the sequential path does, and folds outcomes in run order.
//!
//! [`CampaignExecutor::new`] takes the worker count; `0` reads it from the
//! `MAVFI_WORKERS` environment variable, falling back to the machine's
//! available parallelism.

mod cache;
mod engine;
mod pool;

pub use cache::{CacheStats, TrainedDetectorCache};
pub use engine::{CampaignExecutor, CampaignFoldState, InjectionSweep, SchemeConfig, SweepOutcome};
pub use pool::{PoolStats, WorkerPool};
