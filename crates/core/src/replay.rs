//! Replaying recorded missions without the simulator in the loop.
//!
//! [`ReplayHarness`] rebuilds the recorded closed loop's deterministic half
//! — the PPC pipeline, the fault injector and the detector tap — from a
//! trace's [`TraceMeta`], re-drives it tick by tick from the recorded
//! *inputs* (vehicle states and depth rays; no [`World`], no dynamics, no
//! ray casting), and asserts that every recorded *output* record is
//! reproduced bit-for-bit, reporting the first divergent tick and topic
//! otherwise.  See `docs/REPLAY.md` for the determinism contract and the
//! divergence triage workflow.
//!
//! [`World`]: mavfi_sim::world::World

use std::ops::Range;

use mavfi_fault::injector::FaultInjector;
use mavfi_middleware::trace::{fold_digest, TraceError, TraceReader, DIGEST_SEED};
use mavfi_sim::geometry::Pose;
use mavfi_sim::sensors::{CaptureScratch, DepthFrame, RayHits};
use mavfi_sim::world::MissionStatus;

use crate::config::Protection;
use crate::error::MavfiError;
use crate::exec::TrainedDetectorCache;
use crate::qof::QofMetrics;
use crate::runner::{detector_tap, mission_pipeline, MissionTap, TrainedDetectors};
use crate::trace::{
    decode_mission_end, InputCodec, MissionTrace, OutputTracker, TraceMeta, TraceTopic,
};

/// The first point at which a replay's outputs stopped matching the
/// recording.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayDivergence {
    /// Tick at which the divergence appeared.
    pub tick: u64,
    /// Topic whose record diverged.
    pub topic: TraceTopic,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

/// The outcome of one replay.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayReport {
    /// Ticks replayed (up to the divergence, if any).
    pub ticks: u64,
    /// The first divergence, or `None` for a bit-identical replay.
    pub divergence: Option<ReplayDivergence>,
    /// The recorded stream's footer digest (verified).
    pub stream_digest: u64,
    /// FNV-1a digest over the recorded output records.
    pub recorded_output_digest: u64,
    /// FNV-1a digest over the output records the replay produced.
    pub replayed_output_digest: u64,
    /// The recorded mission's final status, from its `MissionEnd` record.
    pub status: Option<MissionStatus>,
    /// The recorded mission's QoF totals, from its `MissionEnd` record.
    pub qof: Option<QofMetrics>,
}

impl ReplayReport {
    /// `true` when the replay reproduced every recorded output record
    /// bit-for-bit.
    pub fn is_match(&self) -> bool {
        self.divergence.is_none() && self.recorded_output_digest == self.replayed_output_digest
    }
}

/// Re-drives the ppc/detect stages of a recorded mission from its trace —
/// the simulator stays out of the loop.
///
/// # Examples
///
/// ```no_run
/// use mavfi::prelude::*;
/// use mavfi::replay::ReplayHarness;
///
/// let trace = MissionTrace::load("tests/golden/sparse_s3_golden.mvt").unwrap();
/// let report = ReplayHarness::new(&trace).replay().unwrap();
/// assert!(report.is_match(), "diverged: {:?}", report.divergence);
/// ```
#[derive(Debug)]
pub struct ReplayHarness<'a> {
    trace: &'a MissionTrace,
    detectors: Option<TrainedDetectors>,
}

impl<'a> ReplayHarness<'a> {
    /// Creates a harness for one trace.
    pub fn new(trace: &'a MissionTrace) -> Self {
        Self { trace, detectors: None }
    }

    /// Supplies trained detectors explicitly, overriding the trace's
    /// [`DetectorProvenance`](crate::trace::DetectorProvenance) (if any).
    pub fn with_detectors(mut self, detectors: &TrainedDetectors) -> Self {
        self.detectors = Some(detectors.clone());
        self
    }

    /// Replays the trace and reports whether every output matched.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::Trace`] for a damaged trace,
    /// [`MavfiError::Serialization`] for an unreadable meta blob and
    /// [`MavfiError::MissingDetectors`] when the trace was recorded under a
    /// protection scheme but carries no detector provenance and none were
    /// supplied via [`ReplayHarness::with_detectors`].
    pub fn replay(&self) -> Result<ReplayReport, MavfiError> {
        let meta = self.trace.meta()?;
        let mut reader = TraceReader::new(self.trace.stream())?;
        let replayed = self.replay_records(meta, &mut reader);
        // One pass over the stream checks its digests: finish it whatever
        // the replay made of the records, so a damaged stream reports the
        // error a full verification gives (the reader repeats its first
        // error), ahead of anything the replay found.
        while reader.next_record()?.is_some() {}
        let summary = reader.summary().expect("summary is set once next_record returns None");
        Ok(ReplayReport { stream_digest: summary.stream_digest, ..replayed? })
    }

    /// Re-drives the recorded records from `reader` until the mission end
    /// or the first divergence.  The report's `stream_digest` is left for
    /// the caller, which finishes the digest pass.
    fn replay_records(
        &self,
        meta: TraceMeta,
        reader: &mut TraceReader<'_>,
    ) -> Result<ReplayReport, MavfiError> {
        // Detectors: explicit override, else retrain bit-identical ones
        // from the trace's provenance via the shared cache.
        let cached;
        let detectors: Option<&TrainedDetectors> = match (&self.detectors, meta.detectors) {
            (Some(detectors), _) => Some(detectors),
            (None, Some(provenance)) if !matches!(meta.protection, Protection::None) => {
                cached = TrainedDetectorCache::global()
                    .get_or_train(provenance.environment, &provenance.training);
                Some(&cached)
            }
            _ => None,
        };
        let detector = detector_tap(meta.protection, detectors)?;

        // Rebuild the deterministic half of the closed loop through the
        // runner's own setup; the world itself is never constructed.
        let spec = meta.spec;
        let (_, mut pipeline) = mission_pipeline(&spec);
        let mut tap = MissionTap {
            injector: meta.fault.map(FaultInjector::new),
            detector,
            shadows: Vec::new(),
        };
        let camera = meta.camera;
        let dt = spec.control_period;

        let mut inputs = InputCodec::default();
        let mut tracker = OutputTracker::default();
        // The outputs the replay produced this tick: payload bytes
        // concatenated in one buffer, and each record's topic and range.
        let mut expected_bytes: Vec<u8> = Vec::new();
        let mut expected: Vec<(TraceTopic, Range<usize>)> = Vec::new();
        let mut rays = RayHits::default();
        let mut scratch = CaptureScratch::new();
        let mut frame = DepthFrame::default();

        let mut ticks = 0u64;
        let mut divergence = None;
        let mut recorded_output_digest = DIGEST_SEED;
        let mut replayed_output_digest = DIGEST_SEED;
        let mut end = None;

        'stream: while let Some(record) = reader.next_record()? {
            let topic = TraceTopic::from_id(record.topic).ok_or_else(|| TraceError::Malformed {
                reason: format!("unknown topic id {}", record.topic),
            })?;
            match topic {
                TraceTopic::MissionEnd => {
                    end = Some(decode_mission_end(record.payload)?);
                }
                TraceTopic::VehicleState => {
                    let tick = record.tick;
                    let state = inputs.decode_state(record.payload)?;
                    let rays_record = reader.next_record()?.ok_or(TraceError::Truncated)?;
                    if rays_record.topic != TraceTopic::DepthRays.id() {
                        return Err(MavfiError::Trace(TraceError::Malformed {
                            reason: format!(
                                "tick {tick}: expected depth_rays after vehicle_state, found id {}",
                                rays_record.topic
                            ),
                        }));
                    }
                    inputs.decode_rays(rays_record.payload, &mut rays)?;
                    // `decode_rays` keeps every index below the frame's
                    // `rays_cast`; holding the frame to the recorded
                    // camera's ray count keeps it inside the ray tables
                    // `resolve_rays` indexes.
                    if rays.rays_cast != camera.ray_count() {
                        return Err(MavfiError::Trace(TraceError::Malformed {
                            reason: format!(
                                "tick {tick}: depth_rays frame casts {} rays, the camera {}",
                                rays.rays_cast,
                                camera.ray_count()
                            ),
                        }));
                    }

                    // Re-drive the pipeline from the recorded inputs.
                    let pose = Pose::new(state.position, state.yaw);
                    camera.resolve_rays(&pose, &rays, &mut scratch, &mut frame);
                    let ppc_tick = pipeline.tick(&frame, &state, dt, &mut tap);

                    expected_bytes.clear();
                    expected.clear();
                    tracker.emit(
                        &ppc_tick,
                        pipeline.trajectory(),
                        pipeline.trajectory_revision(),
                        tap.detector.as_ref().map(|detector| detector.stats()),
                        tap.injector.as_ref().and_then(|injector| injector.record()),
                        |topic, payload| {
                            let start = expected_bytes.len();
                            expected_bytes.extend_from_slice(payload);
                            expected.push((topic, start..expected_bytes.len()));
                        },
                    );
                    for (expected_topic, range) in &expected {
                        let expected_payload = &expected_bytes[range.clone()];
                        replayed_output_digest =
                            fold_output(replayed_output_digest, *expected_topic, expected_payload);
                        let Some(recorded) = reader.next_record()? else {
                            divergence = Some(ReplayDivergence {
                                tick,
                                topic: *expected_topic,
                                detail: "replay produced a record past the end of the recording"
                                    .to_owned(),
                            });
                            break 'stream;
                        };
                        let recorded_topic =
                            TraceTopic::from_id(recorded.topic).unwrap_or(TraceTopic::MissionEnd);
                        recorded_output_digest =
                            fold_output(recorded_output_digest, recorded_topic, recorded.payload);
                        if recorded_topic != *expected_topic {
                            divergence = Some(ReplayDivergence {
                                tick,
                                topic: *expected_topic,
                                detail: format!(
                                    "replay produced a {} record where the recording has {}",
                                    expected_topic.name(),
                                    recorded_topic.name()
                                ),
                            });
                            break 'stream;
                        }
                        if recorded.payload != expected_payload {
                            divergence = Some(ReplayDivergence {
                                tick,
                                topic: *expected_topic,
                                detail: payload_diff(recorded.payload, expected_payload),
                            });
                            break 'stream;
                        }
                    }
                    ticks += 1;
                }
                other => {
                    // An output record the replay did not produce for the
                    // preceding tick.
                    recorded_output_digest =
                        fold_output(recorded_output_digest, other, record.payload);
                    divergence = Some(ReplayDivergence {
                        tick: record.tick,
                        topic: other,
                        detail: format!(
                            "recording has a {} record the replay did not produce",
                            other.name()
                        ),
                    });
                    break 'stream;
                }
            }
        }

        Ok(ReplayReport {
            ticks,
            divergence,
            stream_digest: 0,
            recorded_output_digest,
            replayed_output_digest,
            status: end.map(|(qof, _)| qof.status),
            qof: end.map(|(qof, _)| qof),
        })
    }
}

fn fold_output(digest: u64, topic: TraceTopic, payload: &[u8]) -> u64 {
    fold_digest(fold_digest(digest, &[topic.id()]), payload)
}

fn payload_diff(recorded: &[u8], replayed: &[u8]) -> String {
    if recorded.len() != replayed.len() {
        return format!(
            "payload length differs: recorded {} bytes, replayed {} bytes",
            recorded.len(),
            replayed.len()
        );
    }
    let offset = recorded.iter().zip(replayed).position(|(a, b)| a != b).unwrap_or(0);
    format!(
        "payload differs at byte {offset} of {}: recorded {:#04x}, replayed {:#04x}",
        recorded.len(),
        recorded[offset],
        replayed[offset]
    )
}
