//! Versioned, digest-checked binary checkpoints of in-flight campaign
//! jobs.
//!
//! A checkpoint captures everything needed to resume a served campaign
//! bit-identically after a process restart: the admitted
//! [`CampaignRequest`] (with its chunk size pinned, so chunk boundaries
//! stay stable), the number of chunks already folded, and the
//! [`CampaignFoldState`] those chunks produced.  `f64`s are stored as raw
//! IEEE-754 bit patterns — a decoded state is the *same bytes*, not a
//! nearest-value reparse — which is what makes resume-equals-uninterrupted
//! an equality of bits rather than of tolerances.
//!
//! ```text
//! checkpoint: magic "MVCP" · u16 version · payload · u64 FNV-1a digest
//! payload:    request · varint chunks_done · fold state
//! ```
//!
//! The digest covers magic, version and payload, using the same FNV-1a
//! fold as `.mvt` trace streams; a flipped byte anywhere surfaces as
//! [`TraceError::DigestMismatch`], never as a panic or a silently wrong
//! resume.

use std::path::Path;

use mavfi_middleware::trace::{fold_digest, write_varint, ByteReader, TraceError, DIGEST_SEED};
use mavfi_ppc::states::Stage;
use mavfi_sim::env::EnvironmentKind;
use mavfi_sim::world::MissionStatus;

use crate::campaign::CampaignConfig;
use crate::config::TrainingSpec;
use crate::error::MavfiError;
use crate::exec::CampaignFoldState;
use crate::qof::QofMetrics;
use crate::serve::protocol::CampaignRequest;

/// Magic bytes opening a campaign checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"MVCP";
/// Current checkpoint format version.
///
/// Version 2 counts `chunks_done` in chunks of the one-job-per-seed run
/// list, where job `j` flies golden run `j` and fault `j` together.  A
/// version 1 file counted chunks of the older golden-runs-then-faults list,
/// so resuming it would fold some jobs twice and skip others: it is
/// rejected, never resumed.
pub const CHECKPOINT_VERSION: u16 = 2;

/// The resumable on-disk state of one campaign job.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    /// The admitted request; `chunk_jobs` is always resolved (non-zero).
    pub request: CampaignRequest,
    /// Chunks already folded into `state`.
    pub chunks_done: u64,
    /// The fold state those chunks produced.
    pub state: CampaignFoldState,
}

/// Content-derived job id: the FNV-1a digest of the request's canonical
/// encoding.  Equal requests — including retried or duplicated submissions
/// — map to equal ids.
pub fn request_job_id(request: &CampaignRequest) -> u64 {
    let mut bytes = Vec::with_capacity(96);
    encode_request(&mut bytes, request);
    fold_digest(DIGEST_SEED, &bytes)
}

impl CampaignCheckpoint {
    /// The job id of the checkpointed request.
    pub fn job_id(&self) -> u64 {
        request_job_id(&self.request)
    }

    /// Serialises the checkpoint to its framed binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(256);
        out.extend_from_slice(&CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        encode_request(&mut out, &self.request);
        write_varint(&mut out, self.chunks_done);
        encode_state(&mut out, &self.state);
        let digest = fold_digest(DIGEST_SEED, &out);
        out.extend_from_slice(&digest.to_le_bytes());
        out
    }

    /// Parses and verifies a framed checkpoint.
    ///
    /// # Errors
    ///
    /// Typed, never a panic: [`TraceError::BadMagic`] for foreign files,
    /// [`TraceError::UnsupportedVersion`] for any version but
    /// [`CHECKPOINT_VERSION`] (older files included: their chunk numbering
    /// no longer matches the run list),
    /// [`TraceError::DigestMismatch`] for any flipped byte,
    /// [`TraceError::Truncated`] / [`TraceError::Malformed`] for cut or
    /// inconsistent payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, TraceError> {
        if bytes.len() < 8 + 6 {
            return Err(TraceError::Truncated);
        }
        let (body, footer) = bytes.split_at(bytes.len() - 8);
        let expected = u64::from_le_bytes(footer.try_into().expect("footer is eight bytes"));
        let mut reader = ByteReader::new(body);
        let magic: [u8; 4] =
            reader.read_exact(4)?.try_into().expect("read_exact returned four bytes");
        if magic != CHECKPOINT_MAGIC {
            return Err(TraceError::BadMagic { found: magic });
        }
        let version = reader.read_u16_le()?;
        if version != CHECKPOINT_VERSION {
            return Err(TraceError::UnsupportedVersion {
                found: version,
                supported: CHECKPOINT_VERSION,
            });
        }
        // Verify the digest before trusting any decoded lengths.
        let found = fold_digest(DIGEST_SEED, body);
        if found != expected {
            return Err(TraceError::DigestMismatch { expected, found });
        }
        let request = decode_request(&mut reader)?;
        let chunks_done = reader.read_varint()?;
        let state = decode_state(&mut reader)?;
        if !reader.is_empty() {
            return Err(TraceError::Malformed {
                reason: format!("{} trailing bytes after fold state", reader.remaining()),
            });
        }
        Ok(Self { request, chunks_done, state })
    }

    /// Writes the checkpoint to `path` atomically (temporary file plus
    /// rename), so a kill mid-write leaves the previous checkpoint intact
    /// rather than a torn one.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::Io`] when the directory is missing or
    /// unwritable.
    pub fn save(&self, path: &Path) -> Result<(), MavfiError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)?;
        Ok(())
    }

    /// Reads and verifies a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// Returns [`MavfiError::Io`] for unreadable files and
    /// [`MavfiError::Trace`] for files that fail decoding or verification.
    pub fn load(path: &Path) -> Result<Self, MavfiError> {
        let bytes = std::fs::read(path)?;
        Ok(Self::decode(&bytes)?)
    }
}

fn environment_code(environment: EnvironmentKind) -> u8 {
    match environment {
        EnvironmentKind::Factory => 0,
        EnvironmentKind::Farm => 1,
        EnvironmentKind::Sparse => 2,
        EnvironmentKind::Dense => 3,
        EnvironmentKind::Randomized => 4,
        // `EnvironmentKind` is non-exhaustive; a variant added without a
        // code here encodes as 0xFF, which decode rejects as malformed
        // instead of silently aliasing an existing environment.
        _ => u8::MAX,
    }
}

fn environment_from_code(code: u8) -> Result<EnvironmentKind, TraceError> {
    Ok(match code {
        0 => EnvironmentKind::Factory,
        1 => EnvironmentKind::Farm,
        2 => EnvironmentKind::Sparse,
        3 => EnvironmentKind::Dense,
        4 => EnvironmentKind::Randomized,
        other => {
            return Err(TraceError::Malformed { reason: format!("unknown environment {other}") })
        }
    })
}

fn status_code(status: MissionStatus) -> u8 {
    match status {
        MissionStatus::InProgress => 0,
        MissionStatus::Succeeded => 1,
        MissionStatus::Collided => 2,
        MissionStatus::TimedOut => 3,
    }
}

fn status_from_code(code: u8) -> Result<MissionStatus, TraceError> {
    Ok(match code {
        0 => MissionStatus::InProgress,
        1 => MissionStatus::Succeeded,
        2 => MissionStatus::Collided,
        3 => MissionStatus::TimedOut,
        other => {
            return Err(TraceError::Malformed { reason: format!("unknown mission status {other}") })
        }
    })
}

fn write_f64_bits(out: &mut Vec<u8>, value: f64) {
    out.extend_from_slice(&value.to_bits().to_le_bytes());
}

fn read_f64_bits(reader: &mut ByteReader<'_>) -> Result<f64, TraceError> {
    Ok(f64::from_bits(reader.read_u64_le()?))
}

fn encode_request(out: &mut Vec<u8>, request: &CampaignRequest) {
    out.push(environment_code(request.config.environment));
    write_varint(out, request.config.golden_runs as u64);
    write_varint(out, request.config.injections_per_stage as u64);
    out.extend_from_slice(&request.config.base_seed.to_le_bytes());
    write_f64_bits(out, request.config.mission_time_budget);
    out.push(environment_code(request.training_environment));
    write_varint(out, request.training.missions as u64);
    out.extend_from_slice(&request.training.base_seed.to_le_bytes());
    write_f64_bits(out, request.training.mission_time_budget);
    write_varint(out, request.training.epochs as u64);
    write_varint(out, request.chunk_jobs as u64);
}

fn decode_request(reader: &mut ByteReader<'_>) -> Result<CampaignRequest, TraceError> {
    let environment = environment_from_code(reader.read_u8()?)?;
    let golden_runs = reader.read_varint()? as usize;
    let injections_per_stage = reader.read_varint()? as usize;
    let base_seed = reader.read_u64_le()?;
    let mission_time_budget = read_f64_bits(reader)?;
    let config = CampaignConfig {
        environment,
        golden_runs,
        injections_per_stage,
        base_seed,
        mission_time_budget,
    };
    let training_environment = environment_from_code(reader.read_u8()?)?;
    let training = TrainingSpec {
        missions: reader.read_varint()? as usize,
        base_seed: reader.read_u64_le()?,
        mission_time_budget: read_f64_bits(reader)?,
        epochs: reader.read_varint()? as usize,
    };
    let chunk_jobs = reader.read_varint()? as usize;
    Ok(CampaignRequest { config, training_environment, training, chunk_jobs })
}

fn encode_runs(out: &mut Vec<u8>, runs: &[QofMetrics]) {
    write_varint(out, runs.len() as u64);
    for run in runs {
        out.push(status_code(run.status));
        write_f64_bits(out, run.flight_time_s);
        write_f64_bits(out, run.energy_j);
        write_f64_bits(out, run.distance_m);
    }
}

fn decode_runs(reader: &mut ByteReader<'_>) -> Result<Vec<QofMetrics>, TraceError> {
    let count = reader.read_varint()? as usize;
    // Eight bytes is a cheap lower bound per run; it rejects absurd
    // lengths from (pre-digest-check) hostile input without large upfront
    // allocations.
    if count > reader.remaining() / 8 {
        return Err(TraceError::Truncated);
    }
    let mut runs = Vec::with_capacity(count);
    for _ in 0..count {
        runs.push(QofMetrics {
            status: status_from_code(reader.read_u8()?)?,
            flight_time_s: read_f64_bits(reader)?,
            energy_j: read_f64_bits(reader)?,
            distance_m: read_f64_bits(reader)?,
        });
    }
    Ok(runs)
}

fn encode_recomputations(out: &mut Vec<u8>, totals: &[(Stage, u64)]) {
    write_varint(out, totals.len() as u64);
    for (stage, count) in totals {
        out.push(stage.index() as u8);
        out.extend_from_slice(&count.to_le_bytes());
    }
}

fn decode_recomputations(reader: &mut ByteReader<'_>) -> Result<Vec<(Stage, u64)>, TraceError> {
    let count = reader.read_varint()? as usize;
    if count > reader.remaining() / 9 {
        return Err(TraceError::Truncated);
    }
    let mut totals = Vec::with_capacity(count);
    for _ in 0..count {
        let index = reader.read_u8()? as usize;
        let stage = *Stage::ALL.get(index).ok_or_else(|| TraceError::Malformed {
            reason: format!("unknown stage index {index}"),
        })?;
        totals.push((stage, reader.read_u64_le()?));
    }
    Ok(totals)
}

fn encode_state(out: &mut Vec<u8>, state: &CampaignFoldState) {
    encode_runs(out, &state.golden_runs);
    out.extend_from_slice(&state.golden_ticks.to_le_bytes());
    write_f64_bits(out, state.golden_compute_ms);
    encode_runs(out, &state.injected_runs);
    encode_runs(out, &state.gaussian_runs);
    encode_runs(out, &state.autoencoder_runs);
    encode_recomputations(out, &state.gaussian_recomputations);
    encode_recomputations(out, &state.autoencoder_recomputations);
}

fn decode_state(reader: &mut ByteReader<'_>) -> Result<CampaignFoldState, TraceError> {
    Ok(CampaignFoldState {
        golden_runs: decode_runs(reader)?,
        golden_ticks: reader.read_u64_le()?,
        golden_compute_ms: read_f64_bits(reader)?,
        injected_runs: decode_runs(reader)?,
        gaussian_runs: decode_runs(reader)?,
        autoencoder_runs: decode_runs(reader)?,
        gaussian_recomputations: decode_recomputations(reader)?,
        autoencoder_recomputations: decode_recomputations(reader)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> CampaignCheckpoint {
        let mut request = CampaignRequest::quick(EnvironmentKind::Sparse, 11);
        request.chunk_jobs = 4;
        let mut state = CampaignFoldState::new(&request.config);
        state.golden_runs.push(QofMetrics {
            status: MissionStatus::Succeeded,
            flight_time_s: 123.456,
            energy_j: 7_890.12,
            distance_m: 345.678,
        });
        state.golden_ticks = 4_242;
        state.golden_compute_ms = 99.5;
        state.injected_runs.push(QofMetrics {
            status: MissionStatus::Collided,
            flight_time_s: 12.0,
            energy_j: 340.0,
            distance_m: 36.0,
        });
        state.gaussian_recomputations[1].1 = 17;
        CampaignCheckpoint { request, chunks_done: 3, state }
    }

    /// The job id and framed-checkpoint digest of a fixed request and fold
    /// state.  The job id was recorded before `chunk_jobs` got its current
    /// name, the digest when the format went to version 2 (the version word
    /// is inside the digest).  Any change to the canonical encoding — a
    /// reordered, added or dropped field — moves these constants, and with
    /// them every existing job id and `.mvcp` checkpoint.
    #[test]
    fn canonical_encoding_is_wire_compatible_with_recorded_checkpoints() {
        let mut request = CampaignRequest::quick(EnvironmentKind::Farm, 2024);
        request.chunk_jobs = 8;
        let mut state = CampaignFoldState::new(&request.config);
        state.golden_runs.push(QofMetrics {
            status: MissionStatus::Succeeded,
            flight_time_s: 41.25,
            energy_j: 2_048.5,
            distance_m: 96.75,
        });
        state.golden_ticks = 412;
        state.golden_compute_ms = 18.375;
        state.injected_runs.push(QofMetrics {
            status: MissionStatus::TimedOut,
            flight_time_s: 60.0,
            energy_j: 3_000.25,
            distance_m: 12.5,
        });
        state.gaussian_runs.push(QofMetrics {
            status: MissionStatus::Collided,
            flight_time_s: 7.5,
            energy_j: 310.0,
            distance_m: 9.0,
        });
        state.autoencoder_runs.push(QofMetrics {
            status: MissionStatus::Succeeded,
            flight_time_s: 44.0,
            energy_j: 2_200.0,
            distance_m: 97.0,
        });
        state.gaussian_recomputations[0].1 = 3;
        state.autoencoder_recomputations[2].1 = 5;
        let checkpoint = CampaignCheckpoint { request, chunks_done: 1, state };
        let bytes = checkpoint.encode();
        assert_eq!(request_job_id(&checkpoint.request), 0x2a9c_0624_7a2c_d2e4);
        assert_eq!(bytes.len(), 230);
        assert_eq!(fold_digest(DIGEST_SEED, &bytes), 0x0a4c_e2b5_a8cf_78ad);
    }

    /// `checkpoint` framed as `version` with a valid digest.
    fn frame_as_version(checkpoint: &CampaignCheckpoint, version: u16) -> Vec<u8> {
        let mut bytes = checkpoint.encode();
        bytes.truncate(bytes.len() - 8);
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        let digest = fold_digest(DIGEST_SEED, &bytes);
        bytes.extend_from_slice(&digest.to_le_bytes());
        bytes
    }

    #[test]
    fn version_one_checkpoints_are_rejected_not_resumed() {
        let v1 = frame_as_version(&sample_checkpoint(), 1);
        assert_eq!(
            CampaignCheckpoint::decode(&v1),
            Err(TraceError::UnsupportedVersion { found: 1, supported: 2 })
        );
    }

    #[test]
    fn round_trip_is_exact() {
        let checkpoint = sample_checkpoint();
        let decoded = CampaignCheckpoint::decode(&checkpoint.encode()).unwrap();
        assert_eq!(decoded, checkpoint);
        // Bit-level, not just PartialEq: re-encoding reproduces the bytes.
        assert_eq!(decoded.encode(), checkpoint.encode());
    }

    #[test]
    fn job_ids_depend_on_the_request_not_the_progress() {
        let mut checkpoint = sample_checkpoint();
        let id = checkpoint.job_id();
        checkpoint.chunks_done += 1;
        assert_eq!(checkpoint.job_id(), id);
        checkpoint.request.config.base_seed ^= 1;
        assert_ne!(checkpoint.job_id(), id);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample_checkpoint().encode();
        for index in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[index] ^= 0x40;
            let error = CampaignCheckpoint::decode(&corrupt)
                .expect_err("a flipped byte must not decode cleanly");
            match error {
                TraceError::BadMagic { .. }
                | TraceError::UnsupportedVersion { .. }
                | TraceError::DigestMismatch { .. }
                | TraceError::Truncated
                | TraceError::Malformed { .. } => {}
                other => panic!("unexpected error for flip at {index}: {other:?}"),
            }
        }
    }

    #[test]
    fn truncations_never_panic() {
        let bytes = sample_checkpoint().encode();
        for len in 0..bytes.len() {
            assert!(CampaignCheckpoint::decode(&bytes[..len]).is_err(), "length {len}");
        }
    }

    #[test]
    fn save_and_load_round_trip_through_disk() {
        let checkpoint = sample_checkpoint();
        let dir = std::env::temp_dir().join(format!("mavfi_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("job.mvcp");
        checkpoint.save(&path).unwrap();
        assert_eq!(CampaignCheckpoint::load(&path).unwrap(), checkpoint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_files_are_io_errors_not_trace_errors() {
        let err = CampaignCheckpoint::load(Path::new("/nonexistent/job.mvcp")).unwrap_err();
        assert!(matches!(err, MavfiError::Io(_)));
    }
}
