//! `mavfi-suite` is the workspace-root facade of the MAVFI reproduction:
//! it re-exports every member crate so the repository-level `examples/`
//! and `tests/` directories can exercise the whole workspace, and its
//! crate documentation below is the repository `README.md` (whose code
//! blocks compile as doctests).
//!
//! ---
#![doc = include_str!("../README.md")]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

/// Rendered copies of the repository's `docs/` pages.
///
/// Including them here puts every page through the rustdoc lint gate
/// (`scripts/check.sh` builds docs with `RUSTDOCFLAGS="-D warnings"`), so
/// broken intra-doc references, malformed markdown and untagged code fences
/// in `docs/` fail the build exactly like those in source comments; the
/// pages' Rust code blocks, if any, compile as doctests like the README's.
#[doc(hidden)]
pub mod docs {
    /// `docs/ARCHITECTURE.md`: closed-loop data flow and engine design.
    #[doc = include_str!("../docs/ARCHITECTURE.md")]
    pub mod architecture {}

    /// `docs/PLANNERS.md`: the three motion planners and the
    /// `plan_into` contract.
    #[doc = include_str!("../docs/PLANNERS.md")]
    pub mod planners {}

    /// `docs/PERFORMANCE.md`: scratch-buffer conventions, the replan path
    /// and the revision-cache invariants.
    #[doc = include_str!("../docs/PERFORMANCE.md")]
    pub mod performance {}

    /// `docs/OBSERVABILITY.md`: telemetry design rules — histograms,
    /// the deterministic event timeline and campaign rollups.
    #[doc = include_str!("../docs/OBSERVABILITY.md")]
    pub mod observability {}

    /// `docs/REPLAY.md`: the mission trace format, the record/replay
    /// determinism contract and the golden-trace store workflow.
    #[doc = include_str!("../docs/REPLAY.md")]
    pub mod replay {}

    /// `docs/SERVING.md`: the campaign service — submit/stream protocol,
    /// checkpoint format, resume determinism contract, failure taxonomy.
    #[doc = include_str!("../docs/SERVING.md")]
    pub mod serving {}
}

pub mod golden;

pub use mavfi;
pub use mavfi_detect;
pub use mavfi_fault;
pub use mavfi_middleware;
pub use mavfi_nn;
pub use mavfi_platform;
pub use mavfi_ppc;
pub use mavfi_sim;
pub use mavfi_telemetry;

/// Convenience re-exports used by the examples and integration tests.
///
/// # Examples
///
/// ```
/// use mavfi_suite::prelude::*;
///
/// let env = EnvironmentKind::Sparse.build(7);
/// assert!(env.obstacles().len() > 0);
/// ```
pub mod prelude {
    pub use mavfi::prelude::*;
}
