//! Replay determinism: record→replay bit-equality across seeds,
//! environments and fault settings; identical trace digests regardless of
//! worker count; and typed-error (never panic) handling of damaged or
//! foreign trace files and of damaged depth frames inside a valid stream.

use mavfi_suite::mavfi_middleware::trace::{
    compress_container, write_varint, TraceError, TraceReader, TraceWriter,
};
use mavfi_suite::prelude::*;

fn quick_detectors() -> TrainedDetectors {
    // The same quick-training convention the detection suite uses; the
    // process-wide cache shares the trained bank across tests.
    let training =
        TrainingSpec { missions: 2, base_seed: 640, mission_time_budget: 30.0, epochs: 10 };
    (*TrainedDetectorCache::global().get_or_train(EnvironmentKind::Randomized, &training)).clone()
}

fn quick_spec(kind: EnvironmentKind, seed: u64) -> MissionSpec {
    MissionSpec::new(kind, seed).with_time_budget(60.0)
}

fn planning_fault(seed: u64) -> FaultSpec {
    FaultSpec::new(InjectionTarget::Stage(Stage::Planning), 25, seed)
}

#[test]
fn record_replay_is_bit_identical_across_seeds_environments_and_faults() {
    for environment in [EnvironmentKind::Sparse, EnvironmentKind::Farm] {
        for seed in [3u64, 8, 21] {
            let runner = MissionRunner::new(quick_spec(environment, seed));

            let (golden, golden_trace) =
                runner.run_recorded(None, Protection::None, None, None).unwrap();
            let report = ReplayHarness::new(&golden_trace).replay().unwrap();
            assert!(
                report.is_match(),
                "{environment:?} seed {seed} golden diverged: {:?}",
                report.divergence
            );
            assert_eq!(report.ticks, golden.pipeline.ticks);
            assert_eq!(report.status, Some(golden.qof.status));

            let fault = planning_fault(seed);
            let (faulty, fault_trace) =
                runner.run_recorded(Some(fault), Protection::None, None, None).unwrap();
            let report = ReplayHarness::new(&fault_trace).replay().unwrap();
            assert!(
                report.is_match(),
                "{environment:?} seed {seed} faulty diverged: {:?}",
                report.divergence
            );
            assert_eq!(report.ticks, faulty.pipeline.ticks);
            // The fault trace really differs from the golden one.
            assert_ne!(golden_trace.stream_digest().unwrap(), fault_trace.stream_digest().unwrap());
        }
    }
}

#[test]
fn protected_recording_replays_via_detector_provenance() {
    let detectors = quick_detectors();
    let provenance = DetectorProvenance {
        environment: EnvironmentKind::Randomized,
        training: TrainingSpec {
            missions: 2,
            base_seed: 640,
            mission_time_budget: 30.0,
            epochs: 10,
        },
    };
    let runner = MissionRunner::new(quick_spec(EnvironmentKind::Sparse, 5));
    let (outcome, trace) = runner
        .run_recorded(
            Some(planning_fault(11)),
            Protection::Gaussian,
            Some(&detectors),
            Some(provenance),
        )
        .unwrap();
    assert!(outcome.detector.is_some());

    // Self-contained path: the harness retrains from the provenance.
    let report = ReplayHarness::new(&trace).replay().unwrap();
    assert!(report.is_match(), "provenance replay diverged: {:?}", report.divergence);

    // Explicit-detector path matches too.
    let report = ReplayHarness::new(&trace).with_detectors(&detectors).replay().unwrap();
    assert!(report.is_match(), "explicit-detector replay diverged: {:?}", report.divergence);
}

#[test]
fn trace_digests_are_identical_across_worker_counts() {
    let seeds: Vec<u64> = vec![3, 8, 21, 34];
    let record = |_, seed: &u64| {
        let runner = MissionRunner::new(quick_spec(EnvironmentKind::Sparse, *seed));
        let (_, trace) = runner.run_recorded(None, Protection::None, None, None)?;
        trace.stream_digest()
    };
    let digests = |workers| {
        let mut digests = Vec::new();
        WorkerPool::new(workers)
            .fold_ordered(&seeds, record, &mut digests, |digests, _, digest| digests.push(digest))
            .unwrap();
        digests
    };
    let serial = digests(1);
    assert_eq!(serial.len(), seeds.len());
    assert_eq!(serial, digests(2));
    assert_eq!(serial, digests(8));
}

#[test]
fn trace_io_round_trips_and_rejects_damage_with_typed_errors() {
    let runner = MissionRunner::new(quick_spec(EnvironmentKind::Sparse, 3));
    let (_, trace) = runner.run_recorded(None, Protection::None, None, None).unwrap();

    // Save/load round trip through a temp file.
    let path = std::env::temp_dir().join(format!("mavfi_replay_rt_{}.mvt", std::process::id()));
    trace.save(&path).unwrap();
    let loaded = MissionTrace::load(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(loaded, trace);
    assert_eq!(loaded.stream_digest().unwrap(), trace.stream_digest().unwrap());
    let report = ReplayHarness::new(&loaded).replay().unwrap();
    assert!(report.is_match());

    // A foreign file is a typed error, not a panic.
    let err = MissionTrace::from_bytes(b"\x89PNG\r\n\x1a\nnot a trace").unwrap_err();
    assert!(matches!(err, MavfiError::Trace(TraceError::BadMagic { .. })), "{err}");

    // A future format version is rejected by the header check.
    let mut stream = trace.stream().to_vec();
    stream[4] = 0x7F; // bump the version word past TRACE_VERSION
    let err = MissionTrace::from_bytes(&compress_container(&stream)).unwrap_err();
    assert!(matches!(err, MavfiError::Trace(TraceError::UnsupportedVersion { .. })), "{err}");

    // Truncation and payload corruption fail verification, typed.
    let container = trace.to_bytes();
    let err = MissionTrace::from_bytes(&container[..container.len() / 2]).unwrap_err();
    assert!(matches!(err, MavfiError::Trace(_)), "{err}");
    let mut stream = trace.stream().to_vec();
    let index = stream.len() / 2;
    stream[index] ^= 0x10;
    let err = MissionTrace::from_bytes(&compress_container(&stream)).unwrap_err();
    assert!(matches!(err, MavfiError::Trace(_)), "{err}");
}

/// Re-emits `trace`'s stream through a fresh [`TraceWriter`] with the
/// payload of its `index`-th `DepthRays` record replaced by `payload`, so
/// the stream's digests verify and only replay sees the damage.
fn with_depth_rays_payload(trace: &MissionTrace, index: usize, payload: &[u8]) -> MissionTrace {
    let mut reader = TraceReader::new(trace.stream()).unwrap();
    let mut writer = TraceWriter::new(reader.meta(), reader.topics());
    let mut seen = 0;
    while let Some(record) = reader.next_record().unwrap() {
        let mut bytes = record.payload;
        if record.topic == TraceTopic::DepthRays.id() {
            if seen == index {
                bytes = payload;
            }
            seen += 1;
        }
        writer.record(record.topic, record.tick, record.sim_time, bytes);
    }
    assert!(seen > index, "the trace has only {seen} depth frames");
    MissionTrace::from_bytes(&compress_container(&writer.finish())).unwrap()
}

/// A `DepthRays` payload: `rays_cast`, then one `(index delta, t)` per delta.
fn depth_rays_payload(rays_cast: u64, deltas: &[u64]) -> Vec<u8> {
    let mut payload = Vec::new();
    write_varint(&mut payload, rays_cast);
    write_varint(&mut payload, deltas.len() as u64);
    for &delta in deltas {
        write_varint(&mut payload, delta);
        write_varint(&mut payload, 7.25f64.to_bits());
    }
    payload
}

#[test]
fn replay_rejects_damaged_depth_rays_with_typed_errors() {
    let runner = MissionRunner::new(quick_spec(EnvironmentKind::Sparse, 3));
    let (_, trace) = runner.run_recorded(None, Protection::None, None, None).unwrap();
    let ray_count = trace.meta().unwrap().camera.ray_count() as u64;

    // Re-emitting a frame unchanged still replays bit-identically.
    let mut reader = TraceReader::new(trace.stream()).unwrap();
    let first_rays = std::iter::from_fn(|| reader.next_record().unwrap())
        .find(|record| record.topic == TraceTopic::DepthRays.id())
        .unwrap()
        .payload
        .to_vec();
    let report =
        ReplayHarness::new(&with_depth_rays_payload(&trace, 0, &first_rays)).replay().unwrap();
    assert!(report.is_match(), "{:?}", report.divergence);

    let damaged = [
        // An index delta that wraps `u64`.
        depth_rays_payload(ray_count, &[5, u64::MAX]),
        // An index past the frame's last ray.
        depth_rays_payload(ray_count, &[ray_count]),
        // A frame of more rays than the camera casts, with a hit in range of
        // the frame but past the camera's ray tables.
        depth_rays_payload(ray_count * 4, &[ray_count * 3]),
        // A frame of fewer rays than the camera casts.
        depth_rays_payload(ray_count - 1, &[]),
    ];
    for (case, payload) in damaged.iter().enumerate() {
        for frame in [0, 9] {
            let damaged = with_depth_rays_payload(&trace, frame, payload);
            let err = ReplayHarness::new(&damaged).replay().unwrap_err();
            assert!(
                matches!(err, MavfiError::Trace(TraceError::Malformed { .. })),
                "case {case}, frame {frame}: {err}"
            );
        }
    }
}
