//! Property tests for the binary trace format's round-trip guarantees.

use proptest::prelude::*;

use mavfi_middleware::trace::{
    compress, compress_container, decompress, decompress_container, read_summary, TopicDecl,
    TraceReader, TraceWriter,
};

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
