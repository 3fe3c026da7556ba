//! Property tests for the campaign checkpoint format: arbitrary
//! interleavings of fold progress, checkpointing and restore must be
//! invisible against an uninterrupted reference fold, the binary codec
//! must round-trip bit-exactly (including non-finite floats), and damaged
//! bytes must always produce typed errors — never panics, never silent
//! acceptance.
//!
//! Modeled on `crates/middleware/tests/proptest_recorder.rs`, which plays
//! the same game against the trace ring buffer.

use mavfi_suite::mavfi::serve::checkpoint::{request_job_id, CampaignCheckpoint};
use mavfi_suite::mavfi_middleware::trace::TraceError;
use mavfi_suite::prelude::*;
use proptest::prelude::*;

fn arb_status() -> impl Strategy<Value = MissionStatus> {
    (0usize..4).prop_map(|index| {
        [
            MissionStatus::InProgress,
            MissionStatus::Succeeded,
            MissionStatus::Collided,
            MissionStatus::TimedOut,
        ][index]
    })
}

/// Floats as they actually occur in fold state — plus the adversarial ones
/// (NaN, infinities, signed zero) the bit-exact codec must preserve.
fn arb_f64() -> impl Strategy<Value = f64> {
    (0usize..12, -1.0e6..1.0e6f64).prop_map(|(kind, finite)| match kind {
        8 => f64::NAN,
        9 => f64::INFINITY,
        10 => f64::NEG_INFINITY,
        11 => -0.0,
        _ => finite,
    })
}

fn arb_metrics() -> impl Strategy<Value = QofMetrics> {
    (arb_status(), arb_f64(), arb_f64(), arb_f64()).prop_map(
        |(status, flight_time_s, energy_j, distance_m)| QofMetrics {
            status,
            flight_time_s,
            energy_j,
            distance_m,
        },
    )
}

fn arb_stage() -> impl Strategy<Value = Stage> {
    (0usize..3).prop_map(|index| Stage::ALL[index])
}

fn arb_environment() -> impl Strategy<Value = EnvironmentKind> {
    (0usize..5).prop_map(|index| {
        [
            EnvironmentKind::Factory,
            EnvironmentKind::Farm,
            EnvironmentKind::Sparse,
            EnvironmentKind::Dense,
            EnvironmentKind::Randomized,
        ][index]
    })
}

fn arb_request() -> impl Strategy<Value = CampaignRequest> {
    (
        (arb_environment(), 0usize..40, 0usize..40, any::<u64>(), arb_f64()),
        (arb_environment(), 0usize..5, any::<u64>(), arb_f64(), 0usize..9),
        1usize..64,
    )
        .prop_map(
            |(
                (environment, golden_runs, injections_per_stage, base_seed, mission_time_budget),
                (training_environment, missions, training_seed, training_budget, epochs),
                chunk_jobs,
            )| CampaignRequest {
                config: CampaignConfig {
                    environment,
                    golden_runs,
                    injections_per_stage,
                    base_seed,
                    mission_time_budget,
                },
                training_environment,
                training: TrainingSpec {
                    missions,
                    base_seed: training_seed,
                    mission_time_budget: training_budget,
                    epochs,
                },
                chunk_jobs,
            },
        )
}

/// One unit of fold progress, applied to [`CampaignFoldState`] exactly the
/// way the campaign engine's chunk fold mutates it.
#[derive(Debug, Clone)]
enum FoldEvent {
    Golden { metrics: QofMetrics, ticks: u64, compute_ms: f64 },
    Fault { injected: QofMetrics, gaussian: QofMetrics, autoencoder: QofMetrics },
    Recompute { stage: Stage, gaussian: u64, autoencoder: u64 },
}

fn arb_event() -> impl Strategy<Value = FoldEvent> {
    (
        0usize..3,
        (arb_metrics(), 0u64..5_000, arb_f64()),
        (arb_metrics(), arb_metrics()),
        (arb_stage(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(kind, (metrics, ticks, compute_ms), (gaussian, autoencoder), recompute)| match kind {
                0 => FoldEvent::Golden { metrics, ticks, compute_ms },
                1 => FoldEvent::Fault { injected: metrics, gaussian, autoencoder },
                _ => FoldEvent::Recompute {
                    stage: recompute.0,
                    gaussian: recompute.1,
                    autoencoder: recompute.2,
                },
            },
        )
}

fn apply(state: &mut CampaignFoldState, event: &FoldEvent) {
    match event {
        FoldEvent::Golden { metrics, ticks, compute_ms } => {
            state.golden_runs.push(*metrics);
            state.golden_ticks += ticks;
            state.golden_compute_ms += compute_ms;
        }
        FoldEvent::Fault { injected, gaussian, autoencoder } => {
            state.injected_runs.push(*injected);
            state.gaussian_runs.push(*gaussian);
            state.autoencoder_runs.push(*autoencoder);
        }
        FoldEvent::Recompute { stage, gaussian, autoencoder } => {
            state.gaussian_recomputations.push((*stage, *gaussian));
            state.autoencoder_recomputations.push((*stage, *autoencoder));
        }
    }
}

/// Bit-level state equality: serialized bytes, so NaN == NaN holds the way
/// the resume path needs it to.
fn state_bytes(request: &CampaignRequest, chunks_done: u64, state: &CampaignFoldState) -> Vec<u8> {
    CampaignCheckpoint { request: *request, chunks_done, state: state.clone() }.encode()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode -> decode -> encode is the identity on bytes, and the decoded
    /// checkpoint preserves the request's content-derived job id.
    #[test]
    fn round_trip_is_bit_exact(
        request in arb_request(),
        chunks_done in 0u64..1_000,
        events in proptest::collection::vec(arb_event(), 0..24),
    ) {
        let mut state = CampaignFoldState::new(&request.config);
        for event in &events {
            apply(&mut state, event);
        }
        let checkpoint = CampaignCheckpoint { request, chunks_done, state };
        let encoded = checkpoint.encode();
        let decoded = CampaignCheckpoint::decode(&encoded).expect("decode");
        prop_assert_eq!(decoded.chunks_done, chunks_done);
        prop_assert_eq!(decoded.job_id(), request_job_id(&request));
        prop_assert_eq!(decoded.encode(), encoded, "re-encode must reproduce the bytes");
    }

    /// Arbitrary interleavings of fold progress, checkpoint and restore end
    /// in exactly the state of an uninterrupted fold: before each event the
    /// fold may be serialized and replaced by its decoded self (a simulated
    /// kill/resume), any number of times, without perturbing a single bit.
    #[test]
    fn checkpoint_restore_interleavings_match_the_uninterrupted_fold(
        request in arb_request(),
        events in proptest::collection::vec((arb_event(), any::<bool>()), 1..32),
    ) {
        let mut uninterrupted = CampaignFoldState::new(&request.config);
        let mut resumed = CampaignFoldState::new(&request.config);
        for (index, (event, checkpoint_here)) in events.iter().enumerate() {
            if *checkpoint_here {
                let encoded =
                    state_bytes(&request, index as u64, &resumed);
                let restored = CampaignCheckpoint::decode(&encoded).expect("restore");
                prop_assert_eq!(restored.chunks_done, index as u64);
                resumed = restored.state;
            }
            apply(&mut uninterrupted, event);
            apply(&mut resumed, event);
        }
        prop_assert_eq!(
            state_bytes(&request, events.len() as u64, &resumed),
            state_bytes(&request, events.len() as u64, &uninterrupted),
            "restored fold diverged from the uninterrupted reference"
        );
    }

    /// Any single corrupted byte is detected: decode returns a typed error,
    /// it never panics and never silently accepts damaged state.
    #[test]
    fn corrupted_bytes_are_always_rejected(
        request in arb_request(),
        events in proptest::collection::vec(arb_event(), 0..12),
        position in any::<usize>(),
        mask in 1u8..=255,
    ) {
        let mut state = CampaignFoldState::new(&request.config);
        for event in &events {
            apply(&mut state, event);
        }
        let mut bytes = CampaignCheckpoint { request, chunks_done: 3, state }.encode();
        let index = position % bytes.len();
        bytes[index] ^= mask;
        prop_assert!(
            CampaignCheckpoint::decode(&bytes).is_err(),
            "flipping byte {} escaped the digest", index
        );
    }

    /// Every strict prefix of a valid checkpoint is rejected as truncated
    /// (or otherwise malformed) — no prefix length panics.
    #[test]
    fn truncations_are_always_rejected(
        request in arb_request(),
        events in proptest::collection::vec(arb_event(), 0..12),
        cut in any::<usize>(),
    ) {
        let mut state = CampaignFoldState::new(&request.config);
        for event in &events {
            apply(&mut state, event);
        }
        let bytes = CampaignCheckpoint { request, chunks_done: 1, state }.encode();
        let len = cut % bytes.len();
        prop_assert!(CampaignCheckpoint::decode(&bytes[..len]).is_err());
    }

    /// Arbitrary garbage never panics the decoder; whatever it returns is a
    /// typed [`TraceError`].
    #[test]
    fn garbage_input_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        match CampaignCheckpoint::decode(&bytes) {
            Ok(_) => prop_assert!(false, "garbage must not verify"),
            Err(
                TraceError::BadMagic { .. }
                | TraceError::UnsupportedVersion { .. }
                | TraceError::Truncated
                | TraceError::DigestMismatch { .. }
                | TraceError::Malformed { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error variant: {other:?}"),
        }
    }
}
