//! Tier-1 gate on the committed golden-trace store: every trace in
//! `tests/golden/` must load, carry the metadata the manifest promises,
//! and replay bit-identically without the sim in the loop; re-recording
//! every mission, protected ones with detectors from the process-wide cache,
//! must reproduce the committed bytes exactly.
//!
//! Regenerate the store with `scripts/retrace.sh` after an intentional
//! behaviour change (see `docs/REPLAY.md`).

use mavfi_suite::golden::{manifest, GOLDEN_TIME_BUDGET};
use mavfi_suite::prelude::*;

#[test]
fn golden_store_is_complete_and_replays_bit_identically() {
    for spec in manifest() {
        let path = spec.path();
        assert!(
            std::path::Path::new(&path).exists(),
            "missing golden trace {path}; run scripts/retrace.sh to regenerate"
        );

        let trace = MissionTrace::load(&path)
            .unwrap_or_else(|err| panic!("golden trace {path} failed to load/verify: {err}"));
        let meta = trace.meta().unwrap();
        assert_eq!(meta.spec.environment, spec.environment, "{path}");
        assert_eq!(meta.spec.seed, spec.seed, "{path}");
        assert_eq!(meta.spec.mission.max_mission_time, GOLDEN_TIME_BUDGET, "{path}");
        assert_eq!(meta.protection, spec.protection, "{path}");
        assert_eq!(meta.fault, spec.fault, "{path}");
        assert_eq!(meta.detectors.is_some(), spec.protection != Protection::None, "{path}");

        let report = spec
            .replay_committed()
            .unwrap_or_else(|err| panic!("golden trace {path} failed to replay: {err}"));
        assert!(
            report.is_match(),
            "golden trace {path} diverged: {:?} (recorded digest {:016x}, replayed {:016x})",
            report.divergence,
            report.recorded_output_digest,
            report.replayed_output_digest
        );
        assert!(report.ticks > 0, "{path}");
        assert_eq!(report.status, Some(MissionStatus::Succeeded), "{path}");
        assert_eq!(report.stream_digest, trace.stream_digest().unwrap(), "{path}");
    }
}

#[test]
fn rerecording_unprotected_missions_reproduces_committed_bytes() {
    for spec in manifest().into_iter().filter(|spec| spec.protection == Protection::None) {
        let committed = std::fs::read(spec.path()).unwrap_or_else(|err| {
            panic!("missing golden trace {}: {err}; run scripts/retrace.sh", spec.path())
        });
        let (_, trace) = spec.record().unwrap();
        assert_eq!(
            trace.to_bytes(),
            committed,
            "re-recording {} produced different bytes; if the behaviour change is \
             intentional, regenerate the store with scripts/retrace.sh",
            spec.file
        );
    }
}

/// The protected traces' detectors come from the process-wide cache, trained
/// per the manifest's provenance, just as a replay of them retrains them.
#[test]
fn rerecording_protected_missions_reproduces_committed_bytes() {
    let protected: Vec<_> =
        manifest().into_iter().filter(|spec| spec.protection != Protection::None).collect();
    assert!(!protected.is_empty(), "the manifest lists no protected mission");
    for spec in protected {
        let committed = std::fs::read(spec.path()).unwrap_or_else(|err| {
            panic!("missing golden trace {}: {err}; run scripts/retrace.sh", spec.path())
        });
        let (_, trace) = spec.record().unwrap();
        assert_eq!(
            trace.to_bytes(),
            committed,
            "re-recording {} produced different bytes; if the behaviour change is \
             intentional, regenerate the store with scripts/retrace.sh",
            spec.file
        );
    }
}
