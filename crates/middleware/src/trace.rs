//! Typed, compact binary mission traces: [`TraceWriter`] / [`TraceReader`].
//!
//! The trace layer is the lossless capture path: a versioned binary stream
//! of per-topic records with varint-delta tick / sim-time stamps and an
//! FNV-1a stream digest, so a full mission can be re-driven bit-identically
//! from its trace (see `docs/REPLAY.md` in the repository root).
//!
//! The layer is deliberately schema-agnostic: topics are declared by `(id,
//! name, schema version)` and payloads are opaque byte strings encoded by
//! the caller (the `mavfi` core crate owns the per-topic schemas).  What the
//! middleware guarantees is framing, stamp compression, integrity (digest
//! verification on read) and typed errors — a corrupted or foreign file
//! yields a [`TraceError`], never a panic.
//!
//! # Stream layout (version 1)
//!
//! ```text
//! header:  magic "MVFT" · u16 version · varint meta_len · meta bytes
//!          · u8 topic_count · per topic: u8 id, u8 name_len, name,
//!            u8 schema_version
//! record:  u8 topic_id (≠ 0xFF) · varint tick_delta
//!          · varint sim_time_bits_xor · varint payload_len · payload
//! footer:  0xFF · varint record_count · u64 stream_digest
//!          · u8 topic_count · per topic: u8 id, varint records, u64 digest
//! ```
//!
//! Tick stamps are non-decreasing and delta-encoded; sim-time stamps are
//! stored as the XOR of consecutive `f64` bit patterns (close timestamps
//! share high bits, so the varint stays short).  On-disk traces additionally
//! go through [`compress_container`] (an LZSS byte compressor, offline and
//! dependency-free).
//!
//! # Examples
//!
//! ```
//! use mavfi_middleware::trace::{TopicDecl, TraceReader, TraceWriter};
//!
//! let topics = vec![TopicDecl::new(1, "pose", 1)];
//! let mut writer = TraceWriter::new(b"{\"mission\":7}", &topics);
//! writer.record(1, 0, 0.0, &[1, 2, 3]);
//! writer.record(1, 1, 0.1, &[4, 5, 6]);
//! let stream = writer.finish();
//!
//! let mut reader = TraceReader::new(&stream).unwrap();
//! assert_eq!(reader.meta(), b"{\"mission\":7}");
//! let first = reader.next_record().unwrap().unwrap();
//! assert_eq!((first.topic, first.tick, first.payload), (1, 0, &[1u8, 2, 3][..]));
//! ```

use std::error::Error;
use std::fmt;

/// Magic bytes opening an uncompressed trace stream.
pub const STREAM_MAGIC: [u8; 4] = *b"MVFT";
/// Magic bytes opening an on-disk (container) trace file.
pub const CONTAINER_MAGIC: [u8; 4] = *b"MVTZ";
/// Current trace stream format version.
pub const TRACE_VERSION: u16 = 1;

/// Reserved record tag marking the stream footer (never a valid topic id).
const FOOTER_TAG: u8 = 0xFF;

/// FNV-1a 64-bit offset basis — the same digest family the telemetry
/// timeline uses, so digests are comparable across observability layers.
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const DIGEST_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one byte into an FNV-1a digest.
#[inline]
pub fn fold_digest_byte(digest: u64, byte: u8) -> u64 {
    (digest ^ u64::from(byte)).wrapping_mul(DIGEST_PRIME)
}

/// Folds a byte slice into an FNV-1a digest.
#[inline]
pub fn fold_digest(mut digest: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        digest = fold_digest_byte(digest, byte);
    }
    digest
}

/// Errors raised while parsing, verifying or decompressing a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The stream does not start with the trace magic — a foreign file.
    BadMagic {
        /// The bytes found where the magic was expected.
        found: [u8; 4],
    },
    /// The stream's format version is newer than this reader understands.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The stream ended before a complete header, record or footer.
    Truncated,
    /// The recomputed stream digest does not match the footer's.
    DigestMismatch {
        /// Digest stored in the footer.
        expected: u64,
        /// Digest recomputed from the records actually read.
        found: u64,
    },
    /// A record references a topic id missing from the header's table.
    UnknownTopic {
        /// The undeclared topic id.
        id: u8,
    },
    /// The stream violates the format in some other way.
    Malformed {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic { found } => {
                write!(f, "not a mavfi trace (magic {found:02x?}, expected {STREAM_MAGIC:02x?})")
            }
            Self::UnsupportedVersion { found } => {
                write!(f, "unsupported trace version {found} (reader supports {TRACE_VERSION})")
            }
            Self::Truncated => write!(f, "trace ends mid-structure (truncated file?)"),
            Self::DigestMismatch { expected, found } => write!(
                f,
                "trace digest mismatch: footer {expected:#018x}, recomputed {found:#018x}"
            ),
            Self::UnknownTopic { id } => write!(f, "record references undeclared topic id {id}"),
            Self::Malformed { reason } => write!(f, "malformed trace: {reason}"),
        }
    }
}

impl Error for TraceError {}

/// Appends a LEB128 varint.
pub fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A bounds-checked cursor over a byte slice with the primitive readers the
/// trace format (and the core crate's payload schemas) are built from.
/// Every method returns [`TraceError::Truncated`] instead of panicking when
/// the input runs out.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// Creates a cursor at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Self { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Returns `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Current byte offset from the start of the underlying slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Reads `count` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Truncated`] if fewer than `count` bytes remain.
    pub fn read_exact(&mut self, count: usize) -> Result<&'a [u8], TraceError> {
        if self.remaining() < count {
            return Err(TraceError::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + count];
        self.pos += count;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Truncated`] at end of input.
    pub fn read_u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.read_exact(1)?[0])
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Truncated`] if fewer than two bytes remain.
    pub fn read_u16_le(&mut self) -> Result<u16, TraceError> {
        let bytes = self.read_exact(2)?;
        Ok(u16::from_le_bytes([bytes[0], bytes[1]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Truncated`] if fewer than eight bytes remain.
    pub fn read_u64_le(&mut self) -> Result<u64, TraceError> {
        let bytes = self.read_exact(8)?;
        let mut word = [0u8; 8];
        word.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(word))
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Truncated`] at end of input and
    /// [`TraceError::Malformed`] on an over-long encoding.
    pub fn read_varint(&mut self) -> Result<u64, TraceError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift == 63 && byte > 1 {
                return Err(TraceError::Malformed { reason: "varint exceeds 64 bits".into() });
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(TraceError::Malformed { reason: "varint exceeds 64 bits".into() });
            }
        }
    }
}

/// Declaration of one topic carried by a trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicDecl {
    /// Stream-unique topic id (anything but `0xFF`, which tags the footer).
    pub id: u8,
    /// Human-readable topic name, at most 255 bytes of UTF-8.
    pub name: String,
    /// Version of this topic's payload schema.
    pub schema_version: u8,
}

impl TopicDecl {
    /// Creates a topic declaration.
    ///
    /// # Panics
    ///
    /// Panics if `id` is `0xFF` (reserved for the footer) or the name
    /// exceeds 255 bytes — both are programming errors in the recorder, not
    /// runtime conditions.
    pub fn new(id: u8, name: impl Into<String>, schema_version: u8) -> Self {
        let name = name.into();
        assert!(id != FOOTER_TAG, "topic id 0xFF is reserved for the stream footer");
        assert!(name.len() <= 255, "topic names are limited to 255 bytes");
        Self { id, name, schema_version }
    }
}

/// Per-topic accounting reported by a trace footer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicSummary {
    /// The topic id.
    pub id: u8,
    /// Number of records carried on this topic.
    pub records: u64,
    /// FNV-1a digest over this topic's stamped payloads.
    pub digest: u64,
}

/// The verified footer of a trace stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total records in the stream.
    pub records: u64,
    /// FNV-1a digest over every stamped record.
    pub stream_digest: u64,
    /// Per-topic record counts and digests, in declaration order.
    pub topics: Vec<TopicSummary>,
}

impl TraceSummary {
    /// The summary of `topic`, if the stream declared it.
    pub fn topic(&self, id: u8) -> Option<&TopicSummary> {
        self.topics.iter().find(|summary| summary.id == id)
    }
}

/// Streaming writer of the binary trace format.
///
/// The header is emitted at construction; each [`TraceWriter::record`]
/// appends one stamped record, and [`TraceWriter::finish`] appends the
/// digest footer and returns the completed stream.
#[derive(Debug)]
pub struct TraceWriter {
    buf: Vec<u8>,
    topics: Vec<TopicDecl>,
    accounting: Vec<(u64, u64)>, // (records, digest) per declared topic
    prev_tick: u64,
    prev_sim_bits: u64,
    records: u64,
    stream_digest: u64,
}

impl TraceWriter {
    /// Starts a stream carrying the caller-defined `meta` blob and the given
    /// topic table.
    ///
    /// # Panics
    ///
    /// Panics if two topics share an id — a recorder configuration error.
    pub fn new(meta: &[u8], topics: &[TopicDecl]) -> Self {
        for (index, topic) in topics.iter().enumerate() {
            assert!(
                !topics[..index].iter().any(|other| other.id == topic.id),
                "duplicate topic id {} in trace declaration",
                topic.id
            );
        }
        let mut buf = Vec::with_capacity(256 + meta.len());
        buf.extend_from_slice(&STREAM_MAGIC);
        buf.extend_from_slice(&TRACE_VERSION.to_le_bytes());
        write_varint(&mut buf, meta.len() as u64);
        buf.extend_from_slice(meta);
        buf.push(topics.len() as u8);
        for topic in topics {
            buf.push(topic.id);
            buf.push(topic.name.len() as u8);
            buf.extend_from_slice(topic.name.as_bytes());
            buf.push(topic.schema_version);
        }
        Self {
            buf,
            topics: topics.to_vec(),
            accounting: vec![(0, DIGEST_SEED); topics.len()],
            prev_tick: 0,
            prev_sim_bits: 0,
            records: 0,
            stream_digest: DIGEST_SEED,
        }
    }

    /// Appends one record.  `tick` must be non-decreasing across calls (the
    /// stamp is delta-encoded).
    ///
    /// # Panics
    ///
    /// Panics if `topic` was not declared or `tick` regresses — both are
    /// recorder bugs, not data conditions.
    pub fn record(&mut self, topic: u8, tick: u64, sim_time: f64, payload: &[u8]) {
        let slot = self
            .topics
            .iter()
            .position(|decl| decl.id == topic)
            .unwrap_or_else(|| panic!("record on undeclared topic id {topic}"));
        assert!(tick >= self.prev_tick, "trace ticks must be non-decreasing");
        let sim_bits = sim_time.to_bits();
        self.buf.push(topic);
        write_varint(&mut self.buf, tick - self.prev_tick);
        write_varint(&mut self.buf, sim_bits ^ self.prev_sim_bits);
        write_varint(&mut self.buf, payload.len() as u64);
        self.buf.extend_from_slice(payload);
        self.prev_tick = tick;
        self.prev_sim_bits = sim_bits;
        self.records += 1;

        let stamp = Self::stamp_digest(topic, tick, sim_bits, payload);
        self.stream_digest = Self::fold_stamped(self.stream_digest, stamp, payload);
        let (count, digest) = &mut self.accounting[slot];
        *count += 1;
        *digest = Self::fold_stamped(*digest, stamp, payload);
    }

    fn stamp_digest(topic: u8, tick: u64, sim_bits: u64, _payload: &[u8]) -> [u8; 17] {
        let mut stamp = [0u8; 17];
        stamp[0] = topic;
        stamp[1..9].copy_from_slice(&tick.to_le_bytes());
        stamp[9..17].copy_from_slice(&sim_bits.to_le_bytes());
        stamp
    }

    fn fold_stamped(digest: u64, stamp: [u8; 17], payload: &[u8]) -> u64 {
        fold_digest(fold_digest(digest, &stamp), payload)
    }

    /// Number of records appended so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// The running FNV-1a digest over every stamped record so far.
    pub fn stream_digest(&self) -> u64 {
        self.stream_digest
    }

    /// Appends the footer and returns the completed stream bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf.push(FOOTER_TAG);
        write_varint(&mut self.buf, self.records);
        self.buf.extend_from_slice(&self.stream_digest.to_le_bytes());
        self.buf.push(self.topics.len() as u8);
        for (topic, (count, digest)) in self.topics.iter().zip(&self.accounting) {
            self.buf.push(topic.id);
            write_varint(&mut self.buf, *count);
            self.buf.extend_from_slice(&digest.to_le_bytes());
        }
        self.buf
    }
}

/// One record yielded by [`TraceReader::next_record`], borrowing its payload
/// from the underlying stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecordRef<'a> {
    /// Topic id (declared in the header).
    pub topic: u8,
    /// Absolute pipeline tick of the record.
    pub tick: u64,
    /// Absolute simulated time of the record (seconds).
    pub sim_time: f64,
    /// The schema-typed payload bytes.
    pub payload: &'a [u8],
}

/// Streaming reader of the binary trace format.
///
/// Construction parses and validates the header; [`TraceReader::next_record`]
/// yields records in stream order and, on reaching the footer, verifies the
/// stream digest against the recomputed one.
#[derive(Debug, Clone)]
pub struct TraceReader<'a> {
    reader: ByteReader<'a>,
    meta: &'a [u8],
    topics: Vec<TopicDecl>,
    prev_tick: u64,
    prev_sim_bits: u64,
    records_read: u64,
    stream_digest: u64,
    topic_digests: Vec<(u64, u64)>,
    summary: Option<TraceSummary>,
}

impl<'a> TraceReader<'a> {
    /// Parses the stream header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::BadMagic`] for a foreign file,
    /// [`TraceError::UnsupportedVersion`] for a future format version and
    /// [`TraceError::Truncated`] / [`TraceError::Malformed`] for a damaged
    /// header.
    pub fn new(stream: &'a [u8]) -> Result<Self, TraceError> {
        let mut reader = ByteReader::new(stream);
        let magic = reader.read_exact(4)?;
        if magic != STREAM_MAGIC {
            return Err(TraceError::BadMagic { found: [magic[0], magic[1], magic[2], magic[3]] });
        }
        let version = reader.read_u16_le()?;
        if version != TRACE_VERSION {
            return Err(TraceError::UnsupportedVersion { found: version });
        }
        let meta_len = reader.read_varint()? as usize;
        let meta = reader.read_exact(meta_len)?;
        let topic_count = reader.read_u8()? as usize;
        let mut topics = Vec::with_capacity(topic_count);
        for _ in 0..topic_count {
            let id = reader.read_u8()?;
            if id == FOOTER_TAG {
                return Err(TraceError::Malformed {
                    reason: "topic table declares the reserved footer id".into(),
                });
            }
            let name_len = reader.read_u8()? as usize;
            let name = std::str::from_utf8(reader.read_exact(name_len)?)
                .map_err(|_| TraceError::Malformed { reason: "topic name is not UTF-8".into() })?
                .to_owned();
            let schema_version = reader.read_u8()?;
            if topics.iter().any(|decl: &TopicDecl| decl.id == id) {
                return Err(TraceError::Malformed {
                    reason: format!("duplicate topic id {id} in header"),
                });
            }
            topics.push(TopicDecl { id, name, schema_version });
        }
        let topic_digests = vec![(0, DIGEST_SEED); topics.len()];
        Ok(Self {
            reader,
            meta,
            topics,
            prev_tick: 0,
            prev_sim_bits: 0,
            records_read: 0,
            stream_digest: DIGEST_SEED,
            topic_digests,
            summary: None,
        })
    }

    /// The caller-defined metadata blob from the header.
    pub fn meta(&self) -> &'a [u8] {
        self.meta
    }

    /// The declared topic table, in header order.
    pub fn topics(&self) -> &[TopicDecl] {
        &self.topics
    }

    /// The verified footer summary — available once [`Self::next_record`]
    /// has returned `Ok(None)`.
    pub fn summary(&self) -> Option<&TraceSummary> {
        self.summary.as_ref()
    }

    /// Records read so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Yields the next record, or `Ok(None)` once the footer has been
    /// reached and verified.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Truncated`] if the stream ends mid-record or
    /// without a footer, [`TraceError::UnknownTopic`] for an undeclared
    /// topic id and [`TraceError::DigestMismatch`] when the footer digest
    /// disagrees with the records actually read.
    pub fn next_record(&mut self) -> Result<Option<TraceRecordRef<'a>>, TraceError> {
        if self.summary.is_some() {
            return Ok(None);
        }
        let tag = self.reader.read_u8()?;
        if tag == FOOTER_TAG {
            return self.read_footer().map(|()| None);
        }
        let slot = self
            .topics
            .iter()
            .position(|decl| decl.id == tag)
            .ok_or(TraceError::UnknownTopic { id: tag })?;
        let tick = self
            .prev_tick
            .checked_add(self.reader.read_varint()?)
            .ok_or_else(|| TraceError::Malformed { reason: "tick stamp overflows".into() })?;
        let sim_bits = self.prev_sim_bits ^ self.reader.read_varint()?;
        let payload_len = self.reader.read_varint()? as usize;
        let payload = self.reader.read_exact(payload_len)?;
        self.prev_tick = tick;
        self.prev_sim_bits = sim_bits;
        self.records_read += 1;

        let stamp = TraceWriter::stamp_digest(tag, tick, sim_bits, payload);
        self.stream_digest = TraceWriter::fold_stamped(self.stream_digest, stamp, payload);
        let (count, digest) = &mut self.topic_digests[slot];
        *count += 1;
        *digest = TraceWriter::fold_stamped(*digest, stamp, payload);

        Ok(Some(TraceRecordRef { topic: tag, tick, sim_time: f64::from_bits(sim_bits), payload }))
    }

    fn read_footer(&mut self) -> Result<(), TraceError> {
        let records = self.reader.read_varint()?;
        let stream_digest = self.reader.read_u64_le()?;
        let topic_count = self.reader.read_u8()? as usize;
        let mut topics = Vec::with_capacity(topic_count);
        for _ in 0..topic_count {
            let id = self.reader.read_u8()?;
            let count = self.reader.read_varint()?;
            let digest = self.reader.read_u64_le()?;
            topics.push(TopicSummary { id, records: count, digest });
        }
        if records != self.records_read {
            return Err(TraceError::Malformed {
                reason: format!(
                    "footer claims {records} records, stream carried {}",
                    self.records_read
                ),
            });
        }
        if stream_digest != self.stream_digest {
            return Err(TraceError::DigestMismatch {
                expected: stream_digest,
                found: self.stream_digest,
            });
        }
        for (slot, summary) in topics.iter().enumerate() {
            let declared = self.topics.get(slot).map(|decl| decl.id);
            let (count, digest) = self.topic_digests.get(slot).copied().unwrap_or((0, 0));
            if declared != Some(summary.id) || count != summary.records {
                return Err(TraceError::Malformed {
                    reason: format!(
                        "footer topic table disagrees with header for id {}",
                        summary.id
                    ),
                });
            }
            if digest != summary.digest {
                return Err(TraceError::DigestMismatch { expected: summary.digest, found: digest });
            }
        }
        self.summary = Some(TraceSummary { records, stream_digest, topics });
        Ok(())
    }
}

/// Reads a whole stream, verifying every record and digest, and returns its
/// footer summary.
///
/// # Errors
///
/// Propagates any [`TraceError`] from parsing or verification.
pub fn read_summary(stream: &[u8]) -> Result<TraceSummary, TraceError> {
    let mut reader = TraceReader::new(stream)?;
    while reader.next_record()?.is_some() {}
    Ok(reader.summary().cloned().expect("summary is set once next_record returns None"))
}

// --- LZSS byte compression -------------------------------------------------
//
// Committed golden traces should be small, and the workspace vendors no
// compression crate, so the trace layer carries its own: a classic LZSS with
// a 4 KiB window, 3..=18 byte matches packed into two bytes (12-bit offset,
// 4-bit length) and 8-token flag groups.  Greedy matching over a hash chain
// keeps compression deterministic and fast; decompression is a strict
// inverse and validates offsets.

const LZ_WINDOW: usize = 4096;
const LZ_MIN_MATCH: usize = 3;
const LZ_MAX_MATCH: usize = 18;
const LZ_MAX_CHAIN: usize = 64;
const LZ_HASH_BITS: u32 = 13;

#[inline]
fn lz_hash(bytes: &[u8]) -> usize {
    let key = u32::from(bytes[0]) | u32::from(bytes[1]) << 8 | u32::from(bytes[2]) << 16;
    (key.wrapping_mul(2_654_435_761) >> (32 - LZ_HASH_BITS)) as usize
}

/// Length of the common prefix of `input[earlier..]` and `input[pos..]`, at
/// most `limit` bytes (`pos + limit` must not pass the end of `input`),
/// compared eight bytes at a time.
#[inline]
fn match_length(input: &[u8], earlier: usize, pos: usize, limit: usize) -> usize {
    let word = |at: usize| {
        u64::from_le_bytes(input[at..at + 8].try_into().expect("the range is eight bytes long"))
    };
    let mut length = 0;
    while length + 8 <= limit {
        let diff = word(earlier + length) ^ word(pos + length);
        if diff != 0 {
            return length + (diff.trailing_zeros() / 8) as usize;
        }
        length += 8;
    }
    while length < limit && input[earlier + length] == input[pos + length] {
        length += 1;
    }
    length
}

/// LZSS-compresses `input`.  Deterministic: identical input yields identical
/// output on every platform.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << LZ_HASH_BITS];
    let mut chain = vec![usize::MAX; input.len()];
    let mut flags_at = usize::MAX;
    let mut flag_bit = 8;
    let mut pos = 0;
    while pos < input.len() {
        if flag_bit == 8 {
            flags_at = out.len();
            out.push(0);
            flag_bit = 0;
        }
        let mut best_len = 0;
        let mut best_offset = 0;
        if pos + LZ_MIN_MATCH <= input.len() {
            let limit = (input.len() - pos).min(LZ_MAX_MATCH);
            let mut candidate = head[lz_hash(&input[pos..])];
            let mut steps = 0;
            // The first longest match in chain order wins.  A candidate
            // whose byte at `best_len` differs from ours matches fewer than
            // `best_len + 1` bytes, so it cannot win and is skipped without
            // a scan (deflate's `longest_match` test); once `best_len`
            // reaches `limit` no later candidate can win either.
            while candidate != usize::MAX && steps < LZ_MAX_CHAIN && best_len < limit {
                if pos - candidate > LZ_WINDOW {
                    break;
                }
                if input[candidate + best_len] == input[pos + best_len] {
                    let length = match_length(input, candidate, pos, limit);
                    if length > best_len {
                        best_len = length;
                        best_offset = pos - candidate;
                    }
                }
                candidate = chain[candidate];
                steps += 1;
            }
        }
        if best_len >= LZ_MIN_MATCH {
            out[flags_at] |= 1 << flag_bit;
            let offset = best_offset - 1;
            out.push((offset & 0xFF) as u8);
            out.push((((offset >> 8) as u8) << 4) | (best_len - LZ_MIN_MATCH) as u8);
            for covered in pos..pos + best_len {
                if covered + LZ_MIN_MATCH <= input.len() {
                    let bucket = lz_hash(&input[covered..]);
                    chain[covered] = head[bucket];
                    head[bucket] = covered;
                }
            }
            pos += best_len;
        } else {
            out.push(input[pos]);
            if pos + LZ_MIN_MATCH <= input.len() {
                let bucket = lz_hash(&input[pos..]);
                chain[pos] = head[bucket];
                head[bucket] = pos;
            }
            pos += 1;
        }
        flag_bit += 1;
    }
    out
}

/// Reverses [`compress`], producing exactly `expected_len` bytes.
///
/// # Errors
///
/// Returns [`TraceError::Malformed`] when the token stream is inconsistent
/// (bad offsets, wrong output length) and [`TraceError::Truncated`] when it
/// ends mid-token.
pub fn decompress(input: &[u8], expected_len: usize) -> Result<Vec<u8>, TraceError> {
    let mut out = Vec::with_capacity(expected_len);
    let mut reader = ByteReader::new(input);
    while out.len() < expected_len {
        let flags = reader.read_u8()?;
        for bit in 0..8 {
            if out.len() == expected_len {
                break;
            }
            if flags & (1 << bit) != 0 {
                let low = reader.read_u8()? as usize;
                let packed = reader.read_u8()? as usize;
                let offset = (low | (packed >> 4) << 8) + 1;
                let length = (packed & 0x0F) + LZ_MIN_MATCH;
                if offset > out.len() {
                    return Err(TraceError::Malformed {
                        reason: "match offset reaches before the output start".into(),
                    });
                }
                for _ in 0..length {
                    let byte = out[out.len() - offset];
                    out.push(byte);
                }
            } else {
                out.push(reader.read_u8()?);
            }
        }
    }
    if out.len() != expected_len || !reader.is_empty() {
        return Err(TraceError::Malformed {
            reason: "decompressed length disagrees with the container header".into(),
        });
    }
    Ok(out)
}

/// Codec byte: the container payload is the raw stream.
const CODEC_RAW: u8 = 0;
/// Codec byte: the container payload is LZSS-compressed.
const CODEC_LZSS: u8 = 1;

/// Wraps a trace stream in the on-disk container format, compressing it with
/// LZSS when that actually shrinks it.
pub fn compress_container(stream: &[u8]) -> Vec<u8> {
    let packed = compress(stream);
    let (codec, payload): (u8, &[u8]) =
        if packed.len() < stream.len() { (CODEC_LZSS, &packed) } else { (CODEC_RAW, stream) };
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&CONTAINER_MAGIC);
    out.push(codec);
    write_varint(&mut out, stream.len() as u64);
    out.extend_from_slice(payload);
    out
}

/// Unwraps an on-disk container back into the raw trace stream.
///
/// # Errors
///
/// Returns [`TraceError::BadMagic`] for a foreign file and
/// [`TraceError::Malformed`] / [`TraceError::Truncated`] for a damaged one.
pub fn decompress_container(data: &[u8]) -> Result<Vec<u8>, TraceError> {
    let mut reader = ByteReader::new(data);
    let magic = reader.read_exact(4)?;
    if magic != CONTAINER_MAGIC {
        return Err(TraceError::BadMagic { found: [magic[0], magic[1], magic[2], magic[3]] });
    }
    let codec = reader.read_u8()?;
    let raw_len = reader.read_varint()? as usize;
    let payload = reader.read_exact(reader.remaining())?;
    match codec {
        CODEC_RAW => {
            if payload.len() != raw_len {
                return Err(TraceError::Malformed {
                    reason: "raw container length disagrees with header".into(),
                });
            }
            Ok(payload.to_vec())
        }
        CODEC_LZSS => decompress(payload, raw_len),
        other => Err(TraceError::Malformed { reason: format!("unknown container codec {other}") }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stream() -> Vec<u8> {
        let topics = vec![TopicDecl::new(1, "pose", 1), TopicDecl::new(2, "cmd", 1)];
        let mut writer = TraceWriter::new(b"meta", &topics);
        writer.record(1, 0, 0.0, &[10, 11]);
        writer.record(2, 0, 0.0, &[20]);
        writer.record(1, 1, 0.1, &[12, 13]);
        writer.record(2, 1, 0.1, &[21]);
        writer.finish()
    }

    #[test]
    fn round_trips_records_and_stamps() {
        let stream = sample_stream();
        let mut reader = TraceReader::new(&stream).unwrap();
        assert_eq!(reader.meta(), b"meta");
        assert_eq!(reader.topics().len(), 2);
        let mut seen = Vec::new();
        while let Some(record) = reader.next_record().unwrap() {
            seen.push((record.topic, record.tick, record.sim_time, record.payload.to_vec()));
        }
        assert_eq!(seen.len(), 4);
        assert_eq!(seen[0], (1, 0, 0.0, vec![10, 11]));
        assert_eq!(seen[3], (2, 1, 0.1, vec![21]));
        let summary = reader.summary().unwrap();
        assert_eq!(summary.records, 4);
        assert_eq!(summary.topic(1).unwrap().records, 2);
        // Subsequent calls stay at end-of-stream.
        assert!(reader.next_record().unwrap().is_none());
    }

    #[test]
    fn summary_matches_writer_digest() {
        let topics = vec![TopicDecl::new(3, "t", 1)];
        let mut writer = TraceWriter::new(&[], &topics);
        writer.record(3, 5, 0.5, b"abc");
        let digest = writer.stream_digest();
        let stream = writer.finish();
        let summary = read_summary(&stream).unwrap();
        assert_eq!(summary.stream_digest, digest);
        assert_eq!(summary.records, 1);
    }

    #[test]
    fn foreign_magic_is_a_typed_error() {
        let err = TraceReader::new(b"PNG\x0d rest of file").unwrap_err();
        assert!(matches!(err, TraceError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn future_version_is_rejected() {
        let mut stream = sample_stream();
        stream[4] = 0xEE; // bump the version word
        let err = TraceReader::new(&stream).unwrap_err();
        assert!(matches!(err, TraceError::UnsupportedVersion { .. }), "{err}");
    }

    #[test]
    fn truncated_stream_is_a_typed_error() {
        let stream = sample_stream();
        for cut in [stream.len() - 1, stream.len() - 9, 8, 5] {
            let mut reader = match TraceReader::new(&stream[..cut]) {
                Ok(reader) => reader,
                Err(err) => {
                    assert!(matches!(err, TraceError::Truncated), "{err}");
                    continue;
                }
            };
            let result = loop {
                match reader.next_record() {
                    Ok(Some(_)) => continue,
                    other => break other,
                }
            };
            assert!(result.is_err(), "cut at {cut} must not verify");
        }
    }

    #[test]
    fn corrupted_payload_fails_digest_verification() {
        let mut stream = sample_stream();
        let index = stream.len() - 40; // somewhere in the record region
        stream[index] ^= 0x01;
        let mut reader = match TraceReader::new(&stream) {
            Ok(reader) => reader,
            Err(_) => return, // corrupting the header is also a typed error
        };
        let result = loop {
            match reader.next_record() {
                Ok(Some(_)) => continue,
                other => break other,
            }
        };
        assert!(result.is_err(), "bit flip must be detected");
    }

    #[test]
    fn varint_round_trip_bounds() {
        let mut buf = Vec::new();
        for value in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            buf.clear();
            write_varint(&mut buf, value);
            let mut reader = ByteReader::new(&buf);
            assert_eq!(reader.read_varint().unwrap(), value);
            assert!(reader.is_empty());
        }
    }

    #[test]
    fn overlong_varint_is_malformed() {
        let bytes = [0xFFu8; 11];
        let mut reader = ByteReader::new(&bytes);
        assert!(matches!(reader.read_varint(), Err(TraceError::Malformed { .. })));
    }

    #[test]
    fn lzss_round_trips_structured_and_incompressible_data() {
        let repetitive: Vec<u8> = (0..4096u32).map(|i| (i % 7) as u8).collect();
        let mut noisy = Vec::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..2048 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            noisy.push((state >> 56) as u8);
        }
        for input in [&repetitive, &noisy, &Vec::new(), &vec![0u8; 1]] {
            let packed = compress(input);
            let unpacked = decompress(&packed, input.len()).unwrap();
            assert_eq!(&unpacked, input);
        }
        assert!(compress(&repetitive).len() < repetitive.len() / 4);
    }

    #[test]
    fn container_round_trip_and_foreign_rejection() {
        let stream = sample_stream();
        let container = compress_container(&stream);
        assert_eq!(decompress_container(&container).unwrap(), stream);
        let err = decompress_container(b"ELF\x7f junk").unwrap_err();
        assert!(matches!(err, TraceError::BadMagic { .. }));
        let mut damaged = container.clone();
        let last = damaged.len() - 1;
        damaged.truncate(last);
        assert!(decompress_container(&damaged).is_err());
    }

    #[test]
    fn writer_rejects_duplicate_topics_and_regressing_ticks() {
        let result = std::panic::catch_unwind(|| {
            TraceWriter::new(&[], &[TopicDecl::new(1, "a", 1), TopicDecl::new(1, "b", 1)])
        });
        assert!(result.is_err());
        let result = std::panic::catch_unwind(|| {
            let mut writer = TraceWriter::new(&[], &[TopicDecl::new(1, "a", 1)]);
            writer.record(1, 5, 0.0, &[]);
            writer.record(1, 4, 0.0, &[]);
        });
        assert!(result.is_err());
    }
}
