//! Mission trace schemas: what the closed loop records per tick and how
//! each topic's payload is encoded.
//!
//! The middleware's [`TraceWriter`]/[`TraceReader`]
//! (`mavfi_middleware::trace`) own framing, stamps and digests; this module
//! owns the *content* — the typed per-topic payload schemas of a MAVFI
//! mission — and the [`MissionTrace`] container tying a recorded stream to
//! its [`TraceMeta`].  See `docs/REPLAY.md` for the format and the
//! determinism contract.
//!
//! Payloads lean on two encodings chosen for bit-exactness *and* size:
//!
//! - every `f64` travels as its IEEE bit pattern XORed against the previous
//!   value of the same logical column and varint-packed — consecutive
//!   closed-loop samples share high bits, so most stamps shrink to a few
//!   bytes while non-finite values (post-fault `NaN`/`inf`) survive exactly;
//! - depth frames travel as `(ray index, hit parameter)` pairs
//!   ([`RayHits`]), ~10 bytes per hit instead of three coordinates, with
//!   [`DepthCamera::resolve_rays`] reconstructing the identical point cloud
//!   on replay.

use std::path::Path;

use mavfi_detect::detector_node::DetectorStats;
use mavfi_fault::bitflip::BitField;
use mavfi_fault::injector::{FaultRecord, FaultSpec};
use mavfi_fault::model::CorruptionDetail;
use mavfi_middleware::trace::{
    compress_container, decompress_container, read_summary, write_varint, ByteReader, TopicDecl,
    TraceError, TraceReader, TraceSummary, TraceWriter,
};
use mavfi_ppc::pipeline::PpcTick;
use mavfi_ppc::states::{Stage, StateField, Trajectory};
use mavfi_sim::env::EnvironmentKind;
use mavfi_sim::geometry::Vec3;
use mavfi_sim::sensors::{DepthCamera, RayHits};
use mavfi_sim::vehicle::QuadrotorState;
use mavfi_sim::world::MissionStatus;
use serde::{Deserialize, Serialize};

use crate::config::{MissionSpec, Protection, TrainingSpec};
use crate::error::MavfiError;
use crate::qof::QofMetrics;

/// The topics a mission trace carries.
///
/// `VehicleState` and `DepthRays` are the closed loop's *inputs* (what the
/// sim fed the pipeline); the rest are *outputs* whose bit-identity replay
/// asserts.  `MissionEnd` is informational (sim-side QoF totals) and is
/// excluded from the replay comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceTopic {
    /// Input: the vehicle state the pipeline ticked on.
    VehicleState,
    /// Input: the depth capture in `(ray, t)` hit-parameter form.
    DepthRays,
    /// Output: the flight command the pipeline produced.
    Command,
    /// Output: the monitored inter-kernel states (raw, fault corruption
    /// included).
    Monitored,
    /// Output: per-tick flags — replanned, mission-complete, recomputed
    /// stages.
    TickFlags,
    /// Output: the planned trajectory, emitted on revision change.
    PlannedPath,
    /// Output: detector counter deltas, emitted on change.
    Detector,
    /// Output: the fault record, emitted once when the injection fires.
    Fault,
    /// Informational: final mission status and QoF totals from the sim.
    MissionEnd,
}

impl TraceTopic {
    /// Every topic, in per-tick emission order.
    pub const ALL: [Self; 9] = [
        Self::VehicleState,
        Self::DepthRays,
        Self::Command,
        Self::Monitored,
        Self::TickFlags,
        Self::PlannedPath,
        Self::Detector,
        Self::Fault,
        Self::MissionEnd,
    ];

    /// The stream topic id.
    pub fn id(self) -> u8 {
        match self {
            Self::VehicleState => 1,
            Self::DepthRays => 2,
            Self::Command => 3,
            Self::Monitored => 4,
            Self::TickFlags => 5,
            Self::PlannedPath => 6,
            Self::Detector => 7,
            Self::Fault => 8,
            Self::MissionEnd => 9,
        }
    }

    /// The topic carrying this id, if any.
    pub fn from_id(id: u8) -> Option<Self> {
        Self::ALL.into_iter().find(|topic| topic.id() == id)
    }

    /// Stable topic name (used in the stream header and divergence reports).
    pub fn name(self) -> &'static str {
        match self {
            Self::VehicleState => "vehicle_state",
            Self::DepthRays => "depth_rays",
            Self::Command => "command",
            Self::Monitored => "monitored",
            Self::TickFlags => "tick_flags",
            Self::PlannedPath => "planned_path",
            Self::Detector => "detector",
            Self::Fault => "fault",
            Self::MissionEnd => "mission_end",
        }
    }

    /// `true` for the pipeline-output topics replay compares bit-for-bit.
    pub fn is_output(self) -> bool {
        matches!(
            self,
            Self::Command
                | Self::Monitored
                | Self::TickFlags
                | Self::PlannedPath
                | Self::Detector
                | Self::Fault
        )
    }

    /// The topic table declared in every mission trace header.
    pub(crate) fn declarations() -> Vec<TopicDecl> {
        Self::ALL.into_iter().map(|topic| TopicDecl::new(topic.id(), topic.name(), 1)).collect()
    }
}

/// Where the detectors supervising a recorded mission came from, so a
/// replay can retrain bit-identical ones via the global detector cache
/// without the trace having to embed the trained weights.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectorProvenance {
    /// Environment kind the training missions flew in.
    pub environment: EnvironmentKind,
    /// The training configuration.
    pub training: TrainingSpec,
}

/// Everything a replay needs to rebuild the recorded closed loop: the
/// mission, the protection scheme, the fault, the camera intrinsics and the
/// detector provenance.  Serialized as JSON into the trace header's meta
/// blob.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceMeta {
    /// The mission specification the runner flew.
    pub spec: MissionSpec,
    /// The active protection scheme.
    pub protection: Protection,
    /// The injected fault, if any.
    pub fault: Option<FaultSpec>,
    /// The depth-camera intrinsics used for capture.
    pub camera: DepthCamera,
    /// How to retrain the supervising detectors, when `protection` needs
    /// them and the trace should be self-contained.
    pub detectors: Option<DetectorProvenance>,
}

/// One XOR-prev-bits varint column: the unit of `f64` compression every
/// payload schema is built from.
#[derive(Debug, Clone, Copy, Default)]
struct XorColumn {
    prev: u64,
}

impl XorColumn {
    fn encode(&mut self, out: &mut Vec<u8>, value: f64) {
        let bits = value.to_bits();
        write_varint(out, bits ^ self.prev);
        self.prev = bits;
    }

    fn decode(&mut self, reader: &mut ByteReader<'_>) -> Result<f64, TraceError> {
        let bits = reader.read_varint()? ^ self.prev;
        self.prev = bits;
        Ok(f64::from_bits(bits))
    }
}

/// Column state for the input topics (vehicle state, depth rays).
#[derive(Debug, Clone, Default)]
pub(crate) struct InputCodec {
    state: [XorColumn; 7],
    ray_t: XorColumn,
}

impl InputCodec {
    pub(crate) fn encode_state(&mut self, out: &mut Vec<u8>, state: &QuadrotorState) {
        out.clear();
        let values = [
            state.position.x,
            state.position.y,
            state.position.z,
            state.velocity.x,
            state.velocity.y,
            state.velocity.z,
            state.yaw,
        ];
        for (column, value) in self.state.iter_mut().zip(values) {
            column.encode(out, value);
        }
    }

    pub(crate) fn decode_state(&mut self, payload: &[u8]) -> Result<QuadrotorState, TraceError> {
        let mut reader = ByteReader::new(payload);
        let mut values = [0.0f64; 7];
        for (column, value) in self.state.iter_mut().zip(values.iter_mut()) {
            *value = column.decode(&mut reader)?;
        }
        expect_drained(&reader, TraceTopic::VehicleState)?;
        Ok(QuadrotorState {
            position: Vec3::new(values[0], values[1], values[2]),
            velocity: Vec3::new(values[3], values[4], values[5]),
            yaw: values[6],
        })
    }

    pub(crate) fn encode_rays(&mut self, out: &mut Vec<u8>, rays: &RayHits) {
        out.clear();
        write_varint(out, rays.rays_cast as u64);
        write_varint(out, rays.hits.len() as u64);
        let mut prev_ray = 0u64;
        for &(ray, t) in &rays.hits {
            // Rays are scanned in order, so indices strictly increase
            // within a frame and the delta stays small.
            write_varint(out, u64::from(ray) - prev_ray);
            prev_ray = u64::from(ray);
            self.ray_t.encode(out, t);
        }
    }

    pub(crate) fn decode_rays(
        &mut self,
        payload: &[u8],
        rays: &mut RayHits,
    ) -> Result<(), TraceError> {
        let mut reader = ByteReader::new(payload);
        rays.clear();
        rays.rays_cast = reader.read_varint()? as usize;
        let hits = reader.read_varint()? as usize;
        let mut prev_ray = 0u64;
        for _ in 0..hits {
            let ray = prev_ray.checked_add(reader.read_varint()?).ok_or_else(|| {
                TraceError::Malformed { reason: "ray index delta overflows u64".into() }
            })?;
            prev_ray = ray;
            if ray >= rays.rays_cast as u64 {
                return Err(TraceError::Malformed {
                    reason: format!("ray index {ray} is not below rays_cast {}", rays.rays_cast),
                });
            }
            let ray = u32::try_from(ray)
                .map_err(|_| TraceError::Malformed { reason: "ray index exceeds u32".into() })?;
            rays.hits.push((ray, self.ray_t.decode(&mut reader)?));
        }
        expect_drained(&reader, TraceTopic::DepthRays)
    }
}

fn expect_drained(reader: &ByteReader<'_>, topic: TraceTopic) -> Result<(), TraceError> {
    if reader.is_empty() {
        Ok(())
    } else {
        Err(TraceError::Malformed {
            reason: format!("{} payload has trailing bytes", topic.name()),
        })
    }
}

/// Snapshot of the monotonic detector counters a [`OutputTracker`] diffs
/// against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct DetectorCounters {
    alarms: [u64; Stage::COUNT],
    recomputations: [u64; Stage::COUNT],
    abandonments: u64,
}

impl DetectorCounters {
    fn of(stats: &DetectorStats) -> Self {
        let mut counters = Self { abandonments: stats.abandonments, ..Self::default() };
        for stage in Stage::ALL {
            counters.alarms[stage.index()] = stats.alarms_of(stage);
            counters.recomputations[stage.index()] = stats.recomputations_of(stage);
        }
        counters
    }
}

/// Emits the per-tick *output* records for one pipeline tick — the single
/// source of truth shared by the recording path ([`TraceCapture`]) and the
/// replay harness, so both sides produce byte-identical records under
/// identical pipeline behaviour.
#[derive(Debug, Clone)]
pub(crate) struct OutputTracker {
    command: [XorColumn; 4],
    monitored: [XorColumn; 13],
    path: [XorColumn; 7],
    /// `u64::MAX` sentinel: the first tick always emits the initial path.
    last_revision: u64,
    detector: DetectorCounters,
    fault_written: bool,
    scratch: Vec<u8>,
}

impl Default for OutputTracker {
    fn default() -> Self {
        Self {
            command: Default::default(),
            monitored: Default::default(),
            path: Default::default(),
            last_revision: u64::MAX,
            detector: DetectorCounters::default(),
            fault_written: false,
            scratch: Vec::new(),
        }
    }
}

impl OutputTracker {
    /// Emits this tick's output records, in the fixed per-tick order
    /// `Command`, `Monitored`, `TickFlags`, then conditionally
    /// `PlannedPath` (trajectory revision changed), `Detector` (any counter
    /// changed) and `Fault` (first tick the injector reports a record).
    pub(crate) fn emit(
        &mut self,
        tick: &PpcTick,
        trajectory: &Trajectory,
        revision: u64,
        detector: Option<&DetectorStats>,
        fault: Option<&FaultRecord>,
        mut sink: impl FnMut(TraceTopic, &[u8]),
    ) {
        let mut scratch = std::mem::take(&mut self.scratch);

        scratch.clear();
        let command_values = [
            tick.command.velocity.x,
            tick.command.velocity.y,
            tick.command.velocity.z,
            tick.command.yaw_rate,
        ];
        for (column, value) in self.command.iter_mut().zip(command_values) {
            column.encode(&mut scratch, value);
        }
        sink(TraceTopic::Command, &scratch);

        scratch.clear();
        // Raw field reads: `MonitoredStates::as_array` squashes non-finite
        // values, which would lose exactly the post-fault states replay
        // must reproduce.
        for (column, field) in self.monitored.iter_mut().zip(StateField::ALL) {
            column.encode(&mut scratch, tick.monitored.field(field));
        }
        scratch.push(u8::from(tick.monitored.collision.obstacle_ahead));
        sink(TraceTopic::Monitored, &scratch);

        scratch.clear();
        let flags = u8::from(tick.replanned) | (u8::from(tick.mission_complete) << 1);
        scratch.push(flags);
        let stages = tick.recomputed_stages.as_slice();
        scratch.push(stages.len() as u8);
        for stage in stages {
            scratch.push(stage.index() as u8);
        }
        sink(TraceTopic::TickFlags, &scratch);

        if revision != self.last_revision {
            self.last_revision = revision;
            scratch.clear();
            write_varint(&mut scratch, revision);
            write_varint(&mut scratch, trajectory.waypoints.len() as u64);
            for waypoint in &trajectory.waypoints {
                let values = [
                    waypoint.position.x,
                    waypoint.position.y,
                    waypoint.position.z,
                    waypoint.yaw,
                    waypoint.velocity.x,
                    waypoint.velocity.y,
                    waypoint.velocity.z,
                ];
                for (column, value) in self.path.iter_mut().zip(values) {
                    column.encode(&mut scratch, value);
                }
            }
            sink(TraceTopic::PlannedPath, &scratch);
        }

        if let Some(stats) = detector {
            let counters = DetectorCounters::of(stats);
            if counters != self.detector {
                scratch.clear();
                for stage in Stage::ALL {
                    write_varint(
                        &mut scratch,
                        counters.alarms[stage.index()] - self.detector.alarms[stage.index()],
                    );
                }
                for stage in Stage::ALL {
                    write_varint(
                        &mut scratch,
                        counters.recomputations[stage.index()]
                            - self.detector.recomputations[stage.index()],
                    );
                }
                write_varint(&mut scratch, counters.abandonments - self.detector.abandonments);
                self.detector = counters;
                sink(TraceTopic::Detector, &scratch);
            }
        }

        if let Some(record) = fault {
            if !self.fault_written {
                self.fault_written = true;
                scratch.clear();
                encode_fault(&mut scratch, record);
                sink(TraceTopic::Fault, &scratch);
            }
        }

        self.scratch = scratch;
    }
}

fn encode_fault(out: &mut Vec<u8>, record: &FaultRecord) {
    write_varint(out, record.tick);
    out.push(record.field.map_or(0xFF, |field| field.index() as u8));
    write_varint(out, record.target.len() as u64);
    out.extend_from_slice(record.target.as_bytes());
    out.extend_from_slice(&record.detail.original.to_bits().to_le_bytes());
    out.extend_from_slice(&record.detail.corrupted.to_bits().to_le_bytes());
    out.push(record.detail.bit.unwrap_or(0xFF));
    out.push(match record.detail.field {
        None => 0xFF,
        Some(BitField::Sign) => 0,
        Some(BitField::Exponent) => 1,
        Some(BitField::Mantissa) => 2,
    });
}

/// Decodes a [`TraceTopic::Fault`] payload back into the fault record —
/// useful when triaging a divergence around the injection tick.
pub fn decode_fault(payload: &[u8]) -> Result<FaultRecord, TraceError> {
    let mut reader = ByteReader::new(payload);
    let tick = reader.read_varint()?;
    let field = match reader.read_u8()? {
        0xFF => None,
        index => Some(
            *StateField::ALL
                .get(index as usize)
                .ok_or_else(|| TraceError::Malformed { reason: "bad state-field index".into() })?,
        ),
    };
    let target_len = reader.read_varint()? as usize;
    let target = std::str::from_utf8(reader.read_exact(target_len)?)
        .map_err(|_| TraceError::Malformed { reason: "fault target is not UTF-8".into() })?
        .to_owned();
    let original = f64::from_bits(reader.read_u64_le()?);
    let corrupted = f64::from_bits(reader.read_u64_le()?);
    let bit = match reader.read_u8()? {
        0xFF => None,
        value => Some(value),
    };
    let bit_field = match reader.read_u8()? {
        0xFF => None,
        0 => Some(BitField::Sign),
        1 => Some(BitField::Exponent),
        2 => Some(BitField::Mantissa),
        _ => return Err(TraceError::Malformed { reason: "bad bit-field tag".into() }),
    };
    expect_drained(&reader, TraceTopic::Fault)?;
    Ok(FaultRecord {
        tick,
        target,
        field,
        detail: CorruptionDetail { original, corrupted, bit, field: bit_field },
    })
}

pub(crate) fn encode_mission_end(out: &mut Vec<u8>, qof: &QofMetrics, ticks: u64) {
    out.push(match qof.status {
        MissionStatus::InProgress => 0,
        MissionStatus::Succeeded => 1,
        MissionStatus::Collided => 2,
        MissionStatus::TimedOut => 3,
    });
    out.extend_from_slice(&qof.flight_time_s.to_bits().to_le_bytes());
    out.extend_from_slice(&qof.energy_j.to_bits().to_le_bytes());
    out.extend_from_slice(&qof.distance_m.to_bits().to_le_bytes());
    write_varint(out, ticks);
}

/// Decodes a [`TraceTopic::MissionEnd`] payload into `(qof, ticks)`.
pub(crate) fn decode_mission_end(payload: &[u8]) -> Result<(QofMetrics, u64), TraceError> {
    let mut reader = ByteReader::new(payload);
    let status = match reader.read_u8()? {
        0 => MissionStatus::InProgress,
        1 => MissionStatus::Succeeded,
        2 => MissionStatus::Collided,
        3 => MissionStatus::TimedOut,
        other => {
            return Err(TraceError::Malformed { reason: format!("bad mission status {other}") })
        }
    };
    let flight_time_s = f64::from_bits(reader.read_u64_le()?);
    let energy_j = f64::from_bits(reader.read_u64_le()?);
    let distance_m = f64::from_bits(reader.read_u64_le()?);
    let ticks = reader.read_varint()?;
    expect_drained(&reader, TraceTopic::MissionEnd)?;
    Ok((QofMetrics { status, flight_time_s, energy_j, distance_m }, ticks))
}

/// The recording side: owned by [`MissionRunner::run_recorded`]
/// (`crate::runner`), fed once per tick, finished into a [`MissionTrace`].
///
/// [`MissionRunner::run_recorded`]: crate::runner::MissionRunner::run_recorded
#[derive(Debug)]
pub(crate) struct TraceCapture {
    writer: TraceWriter,
    inputs: InputCodec,
    outputs: OutputTracker,
    /// Input payload buffer, reused every tick.
    payload: Vec<u8>,
    last_tick: u64,
    last_sim_time: f64,
}

impl TraceCapture {
    pub(crate) fn new(meta: &TraceMeta) -> Result<Self, MavfiError> {
        let meta_json = serde_json::to_string(meta).map_err(MavfiError::Serialization)?;
        Ok(Self {
            writer: TraceWriter::new(meta_json.as_bytes(), &TraceTopic::declarations()),
            inputs: InputCodec::default(),
            outputs: OutputTracker::default(),
            payload: Vec::new(),
            last_tick: 0,
            last_sim_time: 0.0,
        })
    }

    /// Records the tick's inputs (stamped at tick start, before the world
    /// steps).
    pub(crate) fn record_inputs(
        &mut self,
        tick: u64,
        sim_time: f64,
        state: &QuadrotorState,
        rays: &RayHits,
    ) {
        self.last_tick = tick;
        self.last_sim_time = sim_time;
        self.inputs.encode_state(&mut self.payload, state);
        self.writer.record(TraceTopic::VehicleState.id(), tick, sim_time, &self.payload);
        self.inputs.encode_rays(&mut self.payload, rays);
        self.writer.record(TraceTopic::DepthRays.id(), tick, sim_time, &self.payload);
    }

    /// Records the tick's pipeline outputs (same tick-start stamp as the
    /// inputs).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn record_outputs(
        &mut self,
        tick: u64,
        sim_time: f64,
        ppc_tick: &PpcTick,
        trajectory: &Trajectory,
        revision: u64,
        detector: Option<&DetectorStats>,
        fault: Option<&FaultRecord>,
    ) {
        let writer = &mut self.writer;
        self.outputs.emit(ppc_tick, trajectory, revision, detector, fault, |topic, payload| {
            writer.record(topic.id(), tick, sim_time, payload);
        });
    }

    /// Appends the mission-end record and returns the finished trace.
    pub(crate) fn finish(mut self, qof: &QofMetrics, ticks: u64) -> MissionTrace {
        self.payload.clear();
        encode_mission_end(&mut self.payload, qof, ticks);
        self.writer.record(
            TraceTopic::MissionEnd.id(),
            self.last_tick,
            self.last_sim_time,
            &self.payload,
        );
        MissionTrace { stream: self.writer.finish() }
    }
}

/// A recorded mission: the finished binary trace stream plus accessors for
/// its metadata, digest and on-disk (LZSS container) form.
///
/// # Examples
///
/// ```no_run
/// use mavfi::prelude::*;
/// use mavfi::replay::ReplayHarness;
///
/// let spec = MissionSpec::new(EnvironmentKind::Sparse, 3);
/// let (outcome, trace) = MissionRunner::new(spec).run_recorded(None, Protection::None, None, None).unwrap();
/// let report = ReplayHarness::new(&trace).replay().unwrap();
/// assert!(report.is_match());
/// assert_eq!(report.ticks, outcome.pipeline.ticks);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissionTrace {
    stream: Vec<u8>,
}

impl MissionTrace {
    /// The raw (uncompressed) trace stream bytes.
    pub fn stream(&self) -> &[u8] {
        &self.stream
    }

    /// Parses the trace's [`TraceMeta`] from the stream header.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::Trace`] for a damaged header and
    /// [`MavfiError::Serialization`] for an unreadable meta blob.
    pub fn meta(&self) -> Result<TraceMeta, MavfiError> {
        let reader = TraceReader::new(&self.stream)?;
        let meta = std::str::from_utf8(reader.meta()).map_err(|_| {
            MavfiError::Trace(TraceError::Malformed { reason: "meta blob is not UTF-8".into() })
        })?;
        serde_json::from_str(meta).map_err(MavfiError::Serialization)
    }

    /// Reads the whole stream, verifying every record and digest, and
    /// returns the footer summary.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::Trace`] when the stream fails verification.
    pub fn verify(&self) -> Result<TraceSummary, MavfiError> {
        Ok(read_summary(&self.stream)?)
    }

    /// The recorded stream digest (from the verified footer).
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::Trace`] when the stream fails verification.
    pub fn stream_digest(&self) -> Result<u64, MavfiError> {
        Ok(self.verify()?.stream_digest)
    }

    /// Serializes to the on-disk container form (`.mvt`): magic, codec
    /// byte, raw length, LZSS-compressed stream.
    pub fn to_bytes(&self) -> Vec<u8> {
        compress_container(&self.stream)
    }

    /// Parses a container produced by [`MissionTrace::to_bytes`], verifying
    /// the full stream (header, records, digests).
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::Trace`] for foreign, truncated or corrupted
    /// data — never panics.
    pub fn from_bytes(data: &[u8]) -> Result<Self, MavfiError> {
        let trace = Self { stream: decompress_container(data)? };
        trace.verify()?;
        Ok(trace)
    }

    /// Writes the container form to `path`.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::Io`] on filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), MavfiError> {
        Ok(std::fs::write(path, self.to_bytes())?)
    }

    /// Loads and verifies a container written by [`MissionTrace::save`].
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::Io`] on filesystem errors and
    /// [`MavfiError::Trace`] for damaged or foreign files.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, MavfiError> {
        Self::from_bytes(&std::fs::read(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_codec_round_trips_states_and_rays() {
        let mut encoder = InputCodec::default();
        let mut decoder = InputCodec::default();
        let mut payload = Vec::new();
        let states = [
            QuadrotorState {
                position: Vec3::new(1.0, -2.5, 3.25),
                velocity: Vec3::new(0.1, 0.2, -0.3),
                yaw: 0.7,
            },
            QuadrotorState {
                position: Vec3::new(1.01, -2.49, 3.26),
                velocity: Vec3::new(f64::NAN, f64::INFINITY, -0.31),
                yaw: 0.71,
            },
        ];
        for state in states {
            encoder.encode_state(&mut payload, &state);
            let decoded = decoder.decode_state(&payload).unwrap();
            assert_eq!(decoded.position.x.to_bits(), state.position.x.to_bits());
            assert_eq!(decoded.velocity.x.to_bits(), state.velocity.x.to_bits());
            assert_eq!(decoded.velocity.y.to_bits(), state.velocity.y.to_bits());
            assert_eq!(decoded.yaw.to_bits(), state.yaw.to_bits());
        }

        let rays = RayHits { rays_cast: 256, hits: vec![(3, 4.5), (17, 4.51), (255, 19.999)] };
        encoder.encode_rays(&mut payload, &rays);
        let mut decoded = RayHits::default();
        decoder.decode_rays(&payload, &mut decoded).unwrap();
        assert_eq!(decoded.rays_cast, rays.rays_cast);
        assert_eq!(decoded.hits.len(), rays.hits.len());
        for ((ray_a, t_a), (ray_b, t_b)) in decoded.hits.iter().zip(&rays.hits) {
            assert_eq!(ray_a, ray_b);
            assert_eq!(t_a.to_bits(), t_b.to_bits());
        }
    }

    #[test]
    fn decode_rays_rejects_overflowing_deltas_and_out_of_range_indices() {
        let rays_payload = |rays_cast: u64, deltas: &[u64]| {
            let mut payload = Vec::new();
            write_varint(&mut payload, rays_cast);
            write_varint(&mut payload, deltas.len() as u64);
            for &delta in deltas {
                write_varint(&mut payload, delta);
                write_varint(&mut payload, 4.5f64.to_bits());
            }
            payload
        };
        let decode =
            |payload: &[u8]| InputCodec::default().decode_rays(payload, &mut RayHits::default());
        assert!(decode(&rays_payload(256, &[3, 14, 238])).is_ok());

        // The second delta wraps `u64`: a typed error, not an overflow.
        let err = decode(&rays_payload(256, &[5, u64::MAX])).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { .. }), "{err}");
        // Index 256 is past the frame's last ray, 255.
        let err = decode(&rays_payload(256, &[3, 253])).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { .. }), "{err}");
        // A frame of no rays holds no hit.
        let err = decode(&rays_payload(0, &[0])).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { .. }), "{err}");
        // In range of a huge frame, but not a `u32` ray index.
        let err = decode(&rays_payload(u64::MAX, &[1 << 40])).unwrap_err();
        assert!(matches!(err, TraceError::Malformed { .. }), "{err}");
    }

    #[test]
    fn close_samples_compress_well() {
        let mut encoder = InputCodec::default();
        let mut payload = Vec::new();
        let base = QuadrotorState {
            position: Vec3::new(10.0, 5.0, 2.0),
            velocity: Vec3::new(1.0, 0.0, 0.0),
            yaw: 0.0,
        };
        encoder.encode_state(&mut payload, &base);
        // An identical consecutive sample is one byte per column.
        encoder.encode_state(&mut payload, &base);
        assert_eq!(payload.len(), 7);
    }

    #[test]
    fn fault_and_end_records_round_trip() {
        let record = FaultRecord {
            tick: 42,
            target: "planning/waypoint_x".to_owned(),
            field: Some(StateField::WaypointX),
            detail: CorruptionDetail {
                original: 1.5,
                corrupted: f64::NAN,
                bit: Some(62),
                field: Some(BitField::Exponent),
            },
        };
        let mut payload = Vec::new();
        encode_fault(&mut payload, &record);
        let decoded = decode_fault(&payload).unwrap();
        assert_eq!(decoded.tick, record.tick);
        assert_eq!(decoded.target, record.target);
        assert_eq!(decoded.field, record.field);
        assert_eq!(decoded.detail.corrupted.to_bits(), record.detail.corrupted.to_bits());
        assert_eq!(decoded.detail.bit, record.detail.bit);
        assert_eq!(decoded.detail.field, record.detail.field);

        let qof = QofMetrics {
            status: MissionStatus::Succeeded,
            flight_time_s: 31.2,
            energy_j: 880.5,
            distance_m: 45.0,
        };
        let mut payload = Vec::new();
        encode_mission_end(&mut payload, &qof, 312);
        let (decoded_qof, ticks) = decode_mission_end(&payload).unwrap();
        assert_eq!(decoded_qof, qof);
        assert_eq!(ticks, 312);
    }

    #[test]
    fn topic_ids_are_unique_and_reversible() {
        for topic in TraceTopic::ALL {
            assert_eq!(TraceTopic::from_id(topic.id()), Some(topic));
        }
        let mut ids: Vec<u8> = TraceTopic::ALL.iter().map(|t| t.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), TraceTopic::ALL.len());
    }

    /// Replay checks an in-memory trace's digests in its one pass over the
    /// stream: a damaged stream replays to exactly the error that reading
    /// its metadata and verifying it report, wherever the damage lies —
    /// also where the replay itself fails first, as at a flipped first
    /// byte of a `DepthRays` payload (its ray count no longer matches the
    /// camera's).
    #[test]
    fn replaying_a_damaged_stream_reports_what_verification_reports() {
        use crate::config::{MissionSpec, Protection};
        use crate::replay::ReplayHarness;
        use crate::runner::MissionRunner;

        let spec = MissionSpec::new(EnvironmentKind::Sparse, 3).with_time_budget(20.0);
        let (_, trace) =
            MissionRunner::new(spec).run_recorded(None, Protection::None, None, None).unwrap();
        assert!(ReplayHarness::new(&trace).replay().unwrap().is_match());
        let stream = trace.stream();
        let mut reader = TraceReader::new(stream).unwrap();
        let depth_rays = std::iter::from_fn(|| reader.next_record().unwrap())
            .filter(|record| record.topic == TraceTopic::DepthRays.id())
            .map(|record| record.payload.as_ptr() as usize - stream.as_ptr() as usize)
            .step_by(40);
        let strided = (0..stream.len()).step_by(stream.len() / 61);
        for index in strided.chain(depth_rays) {
            let mut damaged = MissionTrace { stream: stream.to_vec() };
            damaged.stream[index] ^= 0x20;
            let expected = damaged.meta().and_then(|_| damaged.verify()).unwrap_err();
            let replayed = ReplayHarness::new(&damaged).replay().unwrap_err();
            assert_eq!(format!("{replayed:?}"), format!("{expected:?}"), "flip at byte {index}");
        }
    }
}
