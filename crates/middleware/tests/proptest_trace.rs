//! Property tests for the binary trace format's round-trip guarantees.

use proptest::prelude::*;

use mavfi_middleware::trace::{
    compress, compress_container, decompress, decompress_container, read_summary, TopicDecl,
    TraceReader, TraceWriter,
};

// The container format's LZSS parameters.
const LZ_WINDOW: usize = 4096;
const LZ_MIN_MATCH: usize = 3;
const LZ_MAX_MATCH: usize = 18;
const LZ_MAX_CHAIN: usize = 64;
const LZ_HASH_BITS: u32 = 13;

fn lz_hash(bytes: &[u8]) -> usize {
    let key = u32::from(bytes[0]) | u32::from(bytes[1]) << 8 | u32::from(bytes[2]) << 16;
    (key.wrapping_mul(2_654_435_761) >> (32 - LZ_HASH_BITS)) as usize
}

/// The greedy LZSS the container format is defined by, with a full scan of
/// every chain candidate: `compress` must emit exactly its bytes.
fn reference_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
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
            let mut candidate = head[lz_hash(&input[pos..])];
            let mut steps = 0;
            while candidate != usize::MAX && steps < LZ_MAX_CHAIN {
                if pos - candidate <= LZ_WINDOW {
                    let limit = (input.len() - pos).min(LZ_MAX_MATCH);
                    let mut length = 0;
                    while length < limit && input[candidate + length] == input[pos + length] {
                        length += 1;
                    }
                    if length > best_len {
                        best_len = length;
                        best_offset = pos - candidate;
                        if length == LZ_MAX_MATCH {
                            break;
                        }
                    }
                } else {
                    break;
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

/// Compressor inputs of five shapes, picked by `shape`: random bytes; twice
/// as many bytes over an alphabet of `alphabet` symbols (hash chains longer
/// than `LZ_MAX_CHAIN`); random bytes with a repeated piece spliced in; fewer
/// than `LZ_MIN_MATCH` bytes; and a run longer than `LZ_MAX_MATCH` ending
/// `tail % 3` bytes before the end of the input.
fn shaped_input(shape: usize, bytes: Vec<u8>, alphabet: u8, tail: usize) -> Vec<u8> {
    match shape {
        0 => bytes,
        1 => bytes.iter().chain(&bytes).map(|byte| byte % alphabet).collect(),
        2 => {
            let piece: Vec<u8> = bytes.iter().take(usize::from(alphabet) * 5).copied().collect();
            let mut mixed = bytes.clone();
            for _ in 0..tail % 40 {
                mixed.extend_from_slice(&piece);
                mixed.push(alphabet);
            }
            mixed.extend_from_slice(&bytes);
            mixed
        }
        3 => bytes.into_iter().take(tail % LZ_MIN_MATCH).collect(),
        _ => {
            let mut run = bytes;
            let fill = run.last().copied().unwrap_or(alphabet);
            run.extend(std::iter::repeat(fill).take(LZ_MAX_MATCH + 1 + tail % 50));
            run.extend(std::iter::repeat(alphabet).take(tail % 3));
            run
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary record sequences survive a write→read round trip with every
    /// stamp and payload intact and the footer digest verifying.
    #[test]
    fn trace_stream_round_trips(
        records in proptest::collection::vec(
            (0u8..3, 0u64..50, -1.0e6f64..1.0e6, proptest::collection::vec(any::<u8>(), 0..40)),
            0..60,
        ),
        meta in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let topics =
            vec![TopicDecl::new(1, "a", 1), TopicDecl::new(2, "b", 2), TopicDecl::new(9, "c", 1)];
        let ids = [1u8, 2, 9];
        let mut writer = TraceWriter::new(&meta, &topics);
        let mut tick = 0u64;
        let mut written = Vec::new();
        for (slot, advance, sim_time, payload) in records {
            tick += advance;
            let topic = ids[slot as usize];
            writer.record(topic, tick, sim_time, &payload);
            written.push((topic, tick, sim_time.to_bits(), payload));
        }
        let stream = writer.finish();

        let mut reader = TraceReader::new(&stream).unwrap();
        prop_assert_eq!(reader.meta(), &meta[..]);
        let mut read_back = Vec::new();
        while let Some(record) = reader.next_record().unwrap() {
            read_back.push((
                record.topic,
                record.tick,
                record.sim_time.to_bits(),
                record.payload.to_vec(),
            ));
        }
        prop_assert_eq!(&read_back, &written);
        let summary = reader.summary().unwrap();
        prop_assert_eq!(summary.records, written.len() as u64);
        prop_assert_eq!(read_summary(&stream).unwrap(), summary.clone());
    }

    /// LZSS inverts exactly on arbitrary bytes, and the container wrapper
    /// restores the original stream byte-for-byte.
    #[test]
    fn lzss_and_container_round_trip(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let packed = compress(&bytes);
        prop_assert_eq!(&decompress(&packed, bytes.len()).unwrap(), &bytes);
        prop_assert_eq!(&decompress_container(&compress_container(&bytes)).unwrap(), &bytes);
    }

    /// `compress` emits the reference greedy LZSS's bytes exactly: skipping
    /// candidates that cannot win changes no choice.
    #[test]
    fn compress_matches_reference_greedy_lzss(
        shape in 0usize..5,
        bytes in proptest::collection::vec(any::<u8>(), 0..1500),
        alphabet in 1u8..5,
        tail in 0usize..3000,
    ) {
        let input = shaped_input(shape, bytes, alphabet, tail);
        prop_assert_eq!(compress(&input), reference_compress(&input));
    }

    /// Flipping any single byte of a finished stream never panics the
    /// reader: it either fails with a typed error or (for bytes the digest
    /// does not witness, e.g. inside the meta blob) still parses.
    #[test]
    fn corrupted_streams_never_panic(flip_at in 0usize..200, flip_with in 1u8..=255) {
        let topics = vec![TopicDecl::new(1, "pose", 1)];
        let mut writer = TraceWriter::new(b"{\"seed\":3}", &topics);
        for tick in 0..12u64 {
            writer.record(1, tick, tick as f64 * 0.1, &[tick as u8, 0xAB]);
        }
        let mut stream = writer.finish();
        let index = flip_at % stream.len();
        stream[index] ^= flip_with;
        if let Ok(mut reader) = TraceReader::new(&stream) {
            while let Ok(Some(_)) = reader.next_record() {}
        }
    }
}
