//! Property-based tests over the framed wire format: arbitrary payloads must
//! round-trip exactly, and corrupted frames — truncations, oversized length
//! fields, unknown kind bytes, cut or padded or arbitrary meta records — must
//! be rejected with typed errors rather than panics or mis-parses.  Frames
//! also survive the socket's short writes and drip-fed reads, and the number
//! of `write` and `read` calls a frame costs is pinned.
#![expect(clippy::expect_used, reason = "test helpers fail by panicking")]

use peerstripe_core::ObjectName;
use peerstripe_net::protocol::{
    kind, read_block_reply_into, read_request, read_request_traced, read_response,
    read_response_traced, write_request, write_request_traced, write_response,
    write_response_traced, write_store_block_from, BlockReply, HEADER_LEN, MAGIC,
};
use peerstripe_net::{
    NodeStats, OpLogEntry, RemoteError, Request, Response, WireError, MAX_FRAME, VERSION,
};
use peerstripe_overlay::Id;
use peerstripe_sim::ByteSize;
use peerstripe_telemetry::{CounterExport, HistogramExport, RegistryExport};
use proptest::prelude::*;
use std::io::{BufReader, IoSlice, Read, Write};
use std::sync::Arc;

/// Encode a request to bytes.
fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::new();
    write_request(&mut buf, req).expect("encoding a well-formed request");
    buf
}

/// Encode a response to bytes.
fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::new();
    write_response(&mut buf, resp).expect("encoding a well-formed response");
    buf
}

/// One request of every kind; the named ones cover every name tag.
fn every_request(payload: Vec<u8>) -> Vec<Request> {
    vec![
        Request::Ping,
        Request::GetCapacity,
        Request::StoreBlock {
            key: Id::hash("k"),
            name: ObjectName::block("f", 2, 1),
            size: ByteSize::kb(1),
            payload: Some(payload),
        },
        Request::StoreBlock {
            key: Id::hash("k"),
            name: ObjectName::chunk("f", 2),
            size: ByteSize::kb(1),
            payload: None,
        },
        Request::FetchBlock {
            name: ObjectName::whole_file("f", 3),
        },
        Request::RemoveBlock {
            name: ObjectName::cat("f"),
            size: ByteSize::kb(1),
        },
        Request::Shutdown,
        Request::GetStats,
    ]
}

/// One response of every kind; `Block` and `Error` in each of their shapes.
fn every_response(payload: Vec<u8>) -> Vec<Response> {
    let stats = NodeStats {
        node: Id::hash("node-p"),
        capacity: ByteSize::mb(64),
        used: ByteSize::kb(3),
        objects: 1,
        metrics: RegistryExport::default(),
        op_log: Vec::new(),
    };
    vec![
        Response::Pong {
            node: Id::hash("n"),
        },
        Response::Capacity {
            free: ByteSize::mb(3),
        },
        Response::Stored,
        Response::Block { block: None },
        Response::Block {
            block: Some((ByteSize::kb(1), None)),
        },
        Response::Block {
            block: Some((ByteSize::kb(1), Some(Arc::new(payload)))),
        },
        Response::Removed,
        Response::ShuttingDown,
        Response::Stats {
            stats: Box::new(stats),
        },
        Response::Error(RemoteError::InsufficientSpace),
        Response::Error(RemoteError::AlreadyStored),
        Response::Error(RemoteError::BadRequest {
            detail: "nope".to_string(),
        }),
    ]
}

/// A frame's header, meta record and payload.
fn split_frame(frame: &[u8]) -> (&[u8], &[u8], &[u8]) {
    let meta_len = u32::from_le_bytes(frame[4..8].try_into().expect("a 4-byte field")) as usize;
    let (header, body) = frame.split_at(HEADER_LEN);
    let (meta, payload) = body.split_at(meta_len);
    (header, meta, payload)
}

/// `header`'s frame with `meta` as its record, the length fields kept true.
fn reframe(header: &[u8], meta: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut frame = header[..4].to_vec();
    frame.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(meta);
    frame.extend_from_slice(payload);
    frame
}

/// Read `frame` as a request or a response, as its kind byte says, and as a
/// reply to a `FetchBlock` too when it is a response: every reading.
fn read_every_way(frame: &[u8]) -> Vec<Result<(), WireError>> {
    if frame[3] & 0x80 == 0 {
        return vec![read_request(&mut &frame[..]).map(drop)];
    }
    let (mut head, mut tail) = ([0u8; 4], Vec::new());
    vec![
        read_response(&mut &frame[..]).map(drop),
        read_block_reply_into(&mut &frame[..], &mut head, &mut tail).map(drop),
    ]
}

/// The ways a `StoreBlock` payload is handed over in parts: none at all
/// (an empty payload), `payload` cut at `cuts` (empty parts among them
/// where cuts repeat), a systematic row's header, row and short zero pad,
/// and `payload` as one part.
fn store_parts<'a>(payload: &'a [u8], cuts: &[usize], pad: usize) -> Vec<Vec<&'a [u8]>> {
    const HEADER: [u8; 12] = [1, 0, 0, 0, 4, 0, 0, 0, 9, 0, 0, 0];
    const ZEROS: [u8; 4] = [0; 4];
    let mut at: Vec<usize> = cuts.iter().map(|c| c % (payload.len() + 1)).collect();
    at.sort_unstable();
    let mut cut = Vec::new();
    let mut start = 0;
    for end in at {
        cut.push(&payload[start..end]);
        start = end;
    }
    cut.push(&payload[start..]);
    vec![
        Vec::new(),
        cut,
        vec![&HEADER[..], payload, &ZEROS[..pad.min(ZEROS.len())]],
        vec![payload],
    ]
}

/// The request a `StoreBlock` written from `parts` stands for.
fn stored_from(key: Id, name: &ObjectName, parts: &[&[u8]]) -> Request {
    Request::StoreBlock {
        key,
        name: name.clone(),
        size: ByteSize::bytes(parts.concat().len() as u64),
        payload: Some(parts.concat()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `StoreBlock` written from parts is, byte for byte, the frame of the
    /// request that carries them concatenated, written in one `write` call,
    /// and reads back as that request, traced or not.
    #[test]
    fn a_store_block_from_parts_is_the_frame_of_the_concatenated_payload(
        traced in any::<bool>(),
        rid in any::<u64>(),
        key in any::<u128>(),
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
        cuts in proptest::collection::vec(any::<usize>(), 0..6),
        pad in 0usize..5,
    ) {
        let rid = traced.then_some(rid);
        let name = ObjectName::block("f", 3, 7);
        for parts in store_parts(&payload, &cuts, pad) {
            let want = stored_from(Id(key), &name, &parts);
            let size = ByteSize::bytes(parts.concat().len() as u64);
            let mut owned = Vec::new();
            write_request_traced(&mut owned, &want, rid).unwrap();
            let (writes, frame) = written(|sink| {
                write_store_block_from(sink, Id(key), &name, size, &parts, rid).unwrap();
            });
            prop_assert_eq!(writes, 1);
            prop_assert_eq!(&frame, &owned, "{} parts", parts.len());
            prop_assert_eq!(read_request_traced(&mut frame.as_slice()).unwrap(), (want, rid));
        }
    }

    /// Every strict prefix of a valid meta record, and the record plus one
    /// trailing byte, is a typed `Body` error on every kind — the header's
    /// lengths kept true, so the record itself is what is wrong.
    #[test]
    fn cut_or_padded_meta_records_are_body_errors(
        traced in any::<bool>(),
        rid in any::<u64>(),
        extra in any::<u8>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let rid = traced.then_some(rid);
        let mut frames = Vec::new();
        for req in every_request(payload.clone()) {
            let mut frame = Vec::new();
            write_request_traced(&mut frame, &req, rid).unwrap();
            frames.push(frame);
        }
        for resp in every_response(payload.clone()) {
            let mut frame = Vec::new();
            write_response_traced(&mut frame, &resp, rid).unwrap();
            frames.push(frame);
        }
        for frame in &frames {
            let (header, meta, payload) = split_frame(frame);
            let mut padded = meta.to_vec();
            padded.push(extra);
            let bad = (0..meta.len()).map(|cut| &meta[..cut]).chain([&padded[..]]);
            for record in bad {
                for read in read_every_way(&reframe(header, record, payload)) {
                    prop_assert!(
                        matches!(read, Err(WireError::Body(_))),
                        "kind {:#x}, record {:?} of {:?}: {:?}", header[3], record, meta, read
                    );
                }
            }
        }
    }

    /// Arbitrary bytes as the meta record of every known kind never panic a
    /// reader: each parses or is a typed `Body` error.  Half the records
    /// start with a valid untraced prefix, so the kind's fields see the
    /// arbitrary bytes too.
    #[test]
    fn arbitrary_meta_records_parse_or_are_body_errors(
        record in proptest::collection::vec(any::<u8>(), 0..64),
        prefixed in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        let meta = if prefixed { [&[0u8][..], &record].concat() } else { record };
        let kinds = [
            kind::PING, kind::GET_CAPACITY, kind::STORE_BLOCK, kind::FETCH_BLOCK,
            kind::REMOVE_BLOCK, kind::SHUTDOWN, kind::GET_STATS,
            kind::PONG, kind::CAPACITY, kind::STORED, kind::BLOCK,
            kind::REMOVED, kind::SHUTTING_DOWN, kind::STATS, kind::ERROR,
        ];
        for kind_byte in kinds {
            let header = [&MAGIC.to_le_bytes()[..], &[VERSION, kind_byte]].concat();
            for read in read_every_way(&reframe(&header, &meta, &payload)) {
                prop_assert!(
                    matches!(read, Ok(()) | Err(WireError::Body(_))),
                    "kind {:#x}, record {:?}: {:?}", kind_byte, meta, read
                );
            }
        }
    }

    /// The request id — or its absence — round-trips on every request and
    /// response kind, error replies included.
    #[test]
    fn request_ids_round_trip_on_every_kind(
        traced in any::<bool>(),
        rid in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let rid = traced.then_some(rid);
        for req in every_request(payload.clone()) {
            let mut frame = Vec::new();
            write_request_traced(&mut frame, &req, rid).unwrap();
            prop_assert_eq!(read_request_traced(&mut frame.as_slice()).unwrap(), (req, rid));
        }
        for resp in every_response(payload.clone()) {
            let mut frame = Vec::new();
            write_response_traced(&mut frame, &resp, rid).unwrap();
            prop_assert_eq!(read_response_traced(&mut frame.as_slice()).unwrap(), (resp, rid));
        }
    }

    /// StoreBlock requests round-trip through the wire format for arbitrary
    /// names, keys, sizes, and payload bytes.
    #[test]
    fn store_block_round_trips_arbitrary_payloads(
        file in "[a-z]{1,12}",
        chunk in 0u32..64,
        ecb in 0u32..64,
        key in any::<u128>(),
        size in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
        with_payload in any::<bool>(),
    ) {
        let req = Request::StoreBlock {
            key: Id(key),
            name: ObjectName::block(file, chunk, ecb),
            size: ByteSize::bytes(size),
            payload: with_payload.then_some(payload),
        };
        let bytes = encode_request(&req);
        prop_assert_eq!(read_request(&mut bytes.as_slice()).unwrap(), req);
    }

    /// Block responses round-trip: found/missing, with and without payload
    /// bytes, for arbitrary contents.
    #[test]
    fn block_responses_round_trip_arbitrary_payloads(
        size in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..4096),
        shape in 0u8..3,
    ) {
        let resp = Response::Block {
            block: match shape {
                0 => None,
                1 => Some((ByteSize::bytes(size), None)),
                _ => Some((ByteSize::bytes(size), Some(Arc::new(payload)))),
            },
        };
        let bytes = encode_response(&resp);
        prop_assert_eq!(read_response(&mut bytes.as_slice()).unwrap(), resp);
    }

    /// Every prefix of a valid frame shorter than the whole is a truncation
    /// and must fail as a transport error, never parse or panic.
    #[test]
    fn truncated_frames_are_transport_errors(
        payload in proptest::collection::vec(any::<u8>(), 1..256),
        cut_seed in any::<u64>(),
    ) {
        let name = ObjectName::block("t", 0, 0);
        let req = Request::StoreBlock {
            key: name.key(),
            name,
            size: ByteSize::kb(1),
            payload: Some(payload),
        };
        let bytes = encode_request(&req);
        let cut = (cut_seed as usize) % (bytes.len() - 1) + 1; // 1..len
        let err = read_request(&mut bytes[..cut].to_vec().as_slice()).unwrap_err();
        prop_assert!(err.is_transport(), "cut at {} gave {:?}", cut, err);
    }

    /// A frame that delivers fewer payload bytes than its header declares is
    /// `Truncated` — the un-zeroed read never hands back a short or padded
    /// payload — for requests and responses alike, wherever the cut falls.
    #[test]
    fn short_payloads_are_truncated_not_padded(
        payload in proptest::collection::vec(any::<u8>(), 1..2048),
        missing_seed in any::<u64>(),
    ) {
        let missing = (missing_seed as usize) % payload.len() + 1; // 1..=len
        let name = ObjectName::block("t", 0, 0);
        let req = encode_request(&Request::StoreBlock {
            key: name.key(),
            name,
            size: ByteSize::kb(1),
            payload: Some(payload.clone()),
        });
        let err = read_request(&mut &req[..req.len() - missing]).unwrap_err();
        prop_assert!(matches!(err, WireError::Truncated), "request: {:?}", err);
        let resp = encode_response(&Response::Block {
            block: Some((ByteSize::kb(1), Some(Arc::new(payload)))),
        });
        let err = read_response(&mut &resp[..resp.len() - missing]).unwrap_err();
        prop_assert!(matches!(err, WireError::Truncated), "response: {:?}", err);
    }

    /// A header whose combined length fields exceed MAX_FRAME is rejected
    /// before any body allocation, whatever the excess.
    #[test]
    fn oversized_length_fields_are_rejected(
        meta_len in 0u32..u32::MAX,
        payload_len in 0u32..u32::MAX,
        kind_byte in 1u8..8,
    ) {
        let total = meta_len as u64 + payload_len as u64;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(&MAGIC.to_le_bytes());
        header.push(VERSION);
        header.push(kind_byte);
        header.extend_from_slice(&meta_len.to_le_bytes());
        header.extend_from_slice(&payload_len.to_le_bytes());
        let result = read_request(&mut header.as_slice());
        if total > MAX_FRAME {
            prop_assert!(
                matches!(result, Err(WireError::Oversized(n)) if n == total),
                "lengths {}+{} gave {:?}", meta_len, payload_len, result
            );
        } else if total > 0 {
            // In-bounds lengths with a truncated body are a transport error.
            prop_assert!(result.unwrap_err().is_transport());
        }
    }

    /// Unknown kind bytes are a typed protocol error on both decode paths,
    /// and response kinds never parse as requests (or vice versa).  `0x05` /
    /// `0x85` — the retired repair-read verb, never reassigned — are unknown
    /// kinds like any other, and nothing laxer.
    #[test]
    fn unknown_and_mismatched_kinds_are_typed_errors(drawn in any::<u8>()) {
        const RETIRED: [u8; 2] = [0x05, 0x85];
        let request_kinds = [
            kind::PING, kind::GET_CAPACITY, kind::STORE_BLOCK, kind::FETCH_BLOCK,
            kind::REMOVE_BLOCK, kind::SHUTDOWN, kind::GET_STATS,
        ];
        let response_kinds = [
            kind::PONG, kind::CAPACITY, kind::STORED, kind::BLOCK,
            kind::REMOVED, kind::SHUTTING_DOWN, kind::STATS, kind::ERROR,
        ];
        for kind_byte in [drawn, RETIRED[0], RETIRED[1]] {
            let mut header = Vec::with_capacity(HEADER_LEN);
            header.extend_from_slice(&MAGIC.to_le_bytes());
            header.push(VERSION);
            header.push(kind_byte);
            header.extend_from_slice(&0u32.to_le_bytes());
            header.extend_from_slice(&0u32.to_le_bytes());
            let typed = |err: &WireError| {
                matches!(err, WireError::UnknownKind(k) if *k == kind_byte)
                    || (matches!(err, WireError::Body(_)) && !RETIRED.contains(&kind_byte))
            };
            if !request_kinds.contains(&kind_byte) {
                let err = read_request(&mut header.as_slice()).unwrap_err();
                prop_assert!(typed(&err), "request decode of kind {:#x} gave {:?}", kind_byte, err);
            }
            if !response_kinds.contains(&kind_byte) {
                let err = read_response(&mut header.as_slice()).unwrap_err();
                prop_assert!(typed(&err), "response decode of kind {:#x} gave {:?}", kind_byte, err);
            }
        }
    }

    /// Flipping the magic or version byte of a valid frame yields the
    /// matching typed error, decided before the body is read.
    #[test]
    fn corrupted_headers_fail_with_the_right_variant(
        bad_magic in any::<u16>(),
        bad_version in any::<u8>(),
    ) {
        let mut bytes = encode_request(&Request::Ping);
        if bad_magic != MAGIC {
            let mut corrupted = bytes.clone();
            corrupted[0..2].copy_from_slice(&bad_magic.to_le_bytes());
            let err = read_request(&mut corrupted.as_slice()).unwrap_err();
            prop_assert!(matches!(err, WireError::BadMagic(m) if m == bad_magic));
        }
        if bad_version != VERSION {
            bytes[2] = bad_version;
            let err = read_request(&mut bytes.as_slice()).unwrap_err();
            prop_assert!(matches!(err, WireError::Version(v) if v == bad_version));
        }
    }

    /// Error responses round-trip their typed remote error, including the
    /// free-form detail string.
    #[test]
    fn error_responses_round_trip(detail in "[ -~]{0,120}", which in 0u8..3) {
        let resp = Response::Error(match which {
            0 => RemoteError::InsufficientSpace,
            1 => RemoteError::AlreadyStored,
            _ => RemoteError::BadRequest { detail },
        });
        let bytes = encode_response(&resp);
        prop_assert_eq!(read_response(&mut bytes.as_slice()).unwrap(), resp);
    }

    /// Stats responses round-trip arbitrary telemetry snapshots: exports
    /// with arbitrary counts and op logs with arbitrary ids, durations (including
    /// non-finite ones, which JSON maps through null), and outcomes.
    #[test]
    fn stats_responses_round_trip_arbitrary_snapshots(
        capacity in any::<u64>(),
        used in any::<u64>(),
        objects in any::<u64>(),
        counts in proptest::collection::vec(any::<u32>(), 0..4),
        entries in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let mut metrics = RegistryExport::default();
        for (i, c) in counts.iter().enumerate() {
            let labels = vec![("op".to_string(), format!("op-{i}"))];
            metrics.counters.push(CounterExport {
                name: "node_requests_total".to_string(),
                labels: labels.clone(),
                value: *c as u64,
            });
            metrics.histograms.push(HistogramExport {
                name: "node_request_latency_ms".to_string(),
                labels,
                count: 1,
                sum: *c as f64,
                bounds: vec![1.0, 10.0],
                bucket_counts: vec![0, 0, 1],
            });
        }
        // Each seed expands into one op-log entry: traced/untraced, op,
        // duration, and outcome all derived from its bits.
        let ops = ["ping", "store_block", "fetch_block"];
        let op_log = entries
            .iter()
            .map(|seed| OpLogEntry {
                request_id: (seed & 1 == 0).then_some(seed >> 3),
                node: (seed & 2 == 0).then_some((seed >> 5) as usize % 64),
                op: ops[(*seed as usize >> 2) % ops.len()].to_string(),
                duration_ms: (seed >> 16) as f64 / 128.0,
                outcome: if seed & 2 != 0 { "bad_request" } else { "ok" }.to_string(),
            })
            .collect();
        let resp = Response::Stats {
            stats: Box::new(NodeStats {
                node: Id::hash("node-p"),
                capacity: ByteSize::bytes(capacity),
                used: ByteSize::bytes(used),
                objects,
                metrics,
                op_log,
            }),
        };
        let bytes = encode_response(&resp);
        prop_assert_eq!(read_response(&mut bytes.as_slice()).unwrap(), resp);
    }

    /// Any request id survives a traced round-trip on any request kind, and
    /// traced frames still parse on the untraced path (the id is simply
    /// dropped), so tracing is backward-compatible.
    #[test]
    fn request_ids_round_trip_and_degrade_gracefully(
        traced in any::<bool>(),
        rid_value in any::<u64>(),
        which in 0u8..4,
    ) {
        let rid = traced.then_some(rid_value);
        let name = ObjectName::block("f", 0, 0);
        let req = match which {
            0 => Request::Ping,
            1 => Request::GetStats,
            2 => Request::FetchBlock { name },
            _ => Request::StoreBlock {
                key: name.key(),
                name,
                size: ByteSize::kb(1),
                payload: Some(vec![9; 8]),
            },
        };
        let mut bytes = Vec::new();
        write_request_traced(&mut bytes, &req, rid).unwrap();
        let (back, back_rid) = read_request_traced(&mut bytes.as_slice()).unwrap();
        prop_assert_eq!(&back, &req);
        prop_assert_eq!(back_rid, rid);
        prop_assert_eq!(read_request(&mut bytes.as_slice()).unwrap(), req);

        let resp = Response::Pong { node: Id::hash("n") };
        let mut bytes = Vec::new();
        write_response_traced(&mut bytes, &resp, rid).unwrap();
        let (back, back_rid) = read_response_traced(&mut bytes.as_slice()).unwrap();
        prop_assert_eq!(&back, &resp);
        prop_assert_eq!(back_rid, rid);
        prop_assert_eq!(read_response(&mut bytes.as_slice()).unwrap(), resp);
    }
}

/// A stream that counts the calls made on it: `read` on a source (the
/// provided `read_buf` and `read_vectored` go through it), `write` and
/// `write_vectored` on a sink.
struct Counted<S> {
    inner: S,
    calls: usize,
}

impl<S> Counted<S> {
    fn new(inner: S) -> Counted<S> {
        Counted { inner, calls: 0 }
    }
}

impl<S: Read> Read for Counted<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.calls += 1;
        self.inner.read(buf)
    }
}

impl<S: Write> Write for Counted<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.calls += 1;
        self.inner.write(buf)
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        self.calls += 1;
        self.inner.write_vectored(bufs)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// A frame's name in the count table: its message's variant.
fn variant(message: &impl std::fmt::Debug) -> String {
    let debug = format!("{message:?}");
    debug
        .split([' ', '(', '{'])
        .next()
        .unwrap_or_default()
        .to_string()
}

/// The `write` calls that writing a frame costs, and the frame.
fn written(write: impl FnOnce(&mut Counted<Vec<u8>>)) -> (usize, Vec<u8>) {
    let mut sink = Counted::new(Vec::new());
    write(&mut sink);
    (sink.calls, sink.inner)
}

/// The `read` calls that reading `frame` costs, through a connection's
/// buffer and off the bare stream, when the socket hands over as much of it
/// as each call asks for — as loopback does with a frame written in one call.
/// Both readings must agree on what they read.
fn reads<T: PartialEq + std::fmt::Debug>(
    frame: &[u8],
    mut read: impl FnMut(&mut dyn Read) -> T,
) -> (usize, usize, T) {
    let mut conn = BufReader::new(Counted::new(frame));
    let out = read(&mut conn);
    assert!(conn.buffer().is_empty(), "the frame was read to its end");
    let mut bare = Counted::new(frame);
    assert_eq!(read(&mut bare), out);
    (conn.get_ref().calls, bare.calls, out)
}

/// Every frame, traced or not, with payloads of 0 B, 1 KiB and 1 MiB, leaves
/// in one `write` call.  Read through a connection's buffer, every frame that
/// fits the buffer arrives in one `read` call, the reply to a `FetchBlock`
/// read into the caller's buffers included, and no frame costs more reads
/// than off the bare stream: an RPC without a payload costs four system
/// calls, both ends together.  The table is printed, and the README quotes
/// it: `cargo test -p peerstripe-net --test wire_properties -- --nocapture
/// one_write`.
#[test]
fn every_frame_costs_one_write_and_one_buffered_read_if_it_fits() {
    let capacity = BufReader::new(std::io::empty()).capacity();
    let mut table = std::collections::BTreeMap::new();
    let mut row = |side, name, frame: &[u8], writes, (buffered, bare)| {
        let payload_len = frame.len() - split_frame(frame).1.len() - HEADER_LEN;
        assert_eq!(writes, 1, "{name} with a {payload_len}-byte payload");
        assert!(buffered <= bare, "{name} with a {payload_len}-byte payload");
        if frame.len() <= capacity {
            assert_eq!(buffered, 1, "{name} with a {payload_len}-byte payload");
        }
        let counts = (writes, buffered, bare);
        let seen = table.insert((side, name, payload_len), counts);
        assert!(
            seen.is_none_or(|seen| seen == counts),
            "traced or not, one cost"
        );
    };
    for payload in [0, 1 << 10, 1 << 20].map(|len| vec![0xA5u8; len]) {
        for rid in [None, Some(7)] {
            for req in every_request(payload.clone()) {
                let (writes, frame) =
                    written(|w| write_request_traced(w, &req, rid).expect("a frame"));
                let (buffered, bare, back) = reads(&frame, |mut r| {
                    read_request_traced(&mut r).expect("a request")
                });
                assert_eq!(back, (req.clone(), rid));
                row("request", variant(&req), &frame, writes, (buffered, bare));
            }
            for resp in every_response(payload.clone()) {
                let (writes, frame) =
                    written(|w| write_response_traced(w, &resp, rid).expect("a frame"));
                let (buffered, bare, back) = reads(&frame, |mut r| {
                    read_response_traced(&mut r).expect("a response")
                });
                assert_eq!(back, (resp.clone(), rid));
                row("response", variant(&resp), &frame, writes, (buffered, bare));
                if matches!(&resp, Response::Block { block: Some((_, Some(p))) } if p.len() >= 12) {
                    // The gateway's read: the payload lands in the caller's
                    // buffers, reserved as a read reserves its result.
                    let land = |mut r: &mut dyn Read| {
                        let (mut head, mut tail) = ([0u8; 12], Vec::with_capacity(payload.len()));
                        let reply = read_block_reply_into(&mut r, &mut head, &mut tail);
                        assert!(matches!(reply, Ok(BlockReply::Landed)), "{reply:?}");
                        [&head[..], &tail].concat()
                    };
                    let (buffered, bare, landed) = reads(&frame, land);
                    assert_eq!(landed, payload);
                    row(
                        "response",
                        "Block, landed".to_string(),
                        &frame,
                        writes,
                        (buffered, bare),
                    );
                }
            }
        }
    }
    println!("system calls per frame (reads through a {capacity}-byte buffer, and bare):");
    println!("| frame | payload B | writes | reads | bare reads |\n|---|---|---|---|---|");
    for ((side, name, payload_len), (writes, buffered, bare)) in &table {
        println!("| {side} `{name}` | {payload_len} | {writes} | {buffered} | {bare} |");
    }
}

/// A socket that takes or yields at most a scheduled number of bytes a call
/// (cycling through `steps`), and answers `Interrupted` where `interrupts`
/// says so, never twice in a row.
struct Dribble<'a> {
    data: &'a [u8],
    out: Vec<u8>,
    steps: Vec<usize>,
    interrupts: Vec<bool>,
    calls: usize,
    interrupted: bool,
}

impl<'a> Dribble<'a> {
    fn new(data: &'a [u8], steps: Vec<usize>, interrupts: Vec<bool>) -> Dribble<'a> {
        Dribble {
            data,
            out: Vec::new(),
            steps,
            interrupts,
            calls: 0,
            interrupted: false,
        }
    }

    /// This call's step, or `Interrupted`.
    fn step(&mut self) -> std::io::Result<usize> {
        let call = self.calls;
        self.calls += 1;
        self.interrupted = self.interrupts[call % self.interrupts.len()] && !self.interrupted;
        if self.interrupted {
            return Err(std::io::ErrorKind::Interrupted.into());
        }
        Ok(self.steps[call % self.steps.len()])
    }
}

impl Read for Dribble<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step()?.min(buf.len()).min(self.data.len());
        let (given, rest) = self.data.split_at(n);
        buf[..n].copy_from_slice(given);
        self.data = rest;
        Ok(n)
    }
}

impl Write for Dribble<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    /// Takes across slice boundaries, so a short write can end anywhere.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        let step = self.step()?;
        let mut room = step;
        for buf in bufs {
            let n = room.min(buf.len());
            self.out.extend_from_slice(&buf[..n]);
            room -= n;
        }
        Ok(step - room)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Every frame of every kind, traced and untraced, with `payload` where a
/// kind carries one, as `(frame, is a request)`.
fn every_frame(payload: &[u8]) -> Vec<(Vec<u8>, bool)> {
    let mut frames = Vec::new();
    for rid in [None, Some(0x0102_0304)] {
        for req in every_request(payload.to_vec()) {
            let mut frame = Vec::new();
            write_request_traced(&mut frame, &req, rid).expect("a frame");
            frames.push((frame, true));
        }
        for resp in every_response(payload.to_vec()) {
            let mut frame = Vec::new();
            write_response_traced(&mut frame, &resp, rid).expect("a frame");
            frames.push((frame, false));
        }
    }
    frames
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Written through a socket that takes 1–64 bytes a call and sometimes
    /// answers `Interrupted`, every frame comes out as the bytes of a
    /// one-shot encoding: a short write continues exactly where it stopped.
    #[test]
    fn short_and_interrupted_writes_send_the_one_shot_bytes(
        steps in proptest::collection::vec(1usize..65, 1..16),
        interrupts in proptest::collection::vec(any::<bool>(), 1..16),
        traced in any::<bool>(),
        rid in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let rid = traced.then_some(rid);
        let sink = || Dribble::new(&[], steps.clone(), interrupts.clone());
        for req in every_request(payload.clone()) {
            let mut one_shot = Vec::new();
            write_request_traced(&mut one_shot, &req, rid).expect("a frame");
            let mut socket = sink();
            write_request_traced(&mut socket, &req, rid).expect("a frame");
            prop_assert_eq!(socket.out, one_shot);
        }
        for resp in every_response(payload.clone()) {
            let mut one_shot = Vec::new();
            write_response_traced(&mut one_shot, &resp, rid).expect("a frame");
            let mut socket = sink();
            write_response_traced(&mut socket, &resp, rid).expect("a frame");
            prop_assert_eq!(socket.out, one_shot);
        }
        // A short write of a frame written from parts goes on in the part it
        // stopped in.
        let (key, name) = (Id::hash("k"), ObjectName::block("f", 0, 1));
        for parts in store_parts(&payload, &steps, interrupts.len()) {
            let req = stored_from(key, &name, &parts);
            let mut one_shot = Vec::new();
            write_request_traced(&mut one_shot, &req, rid).expect("a frame");
            let mut socket = sink();
            let size = ByteSize::bytes(parts.concat().len() as u64);
            write_store_block_from(&mut socket, key, &name, size, &parts, rid).expect("a frame");
            prop_assert_eq!(socket.out, one_shot);
        }
    }

    /// Frames read back to back through one `BufReader` over a socket that
    /// yields 1–n bytes a call, and sometimes `Interrupted`, round-trip.
    #[test]
    fn frames_drip_fed_through_a_buffer_round_trip(
        steps in proptest::collection::vec(1usize..9001, 1..16),
        interrupts in proptest::collection::vec(any::<bool>(), 1..16),
        payload in proptest::collection::vec(any::<u8>(), 0..20_000),
    ) {
        let frames = every_frame(&payload);
        let stream: Vec<u8> = frames.iter().flat_map(|(frame, _)| frame.clone()).collect();
        let mut conn = BufReader::new(Dribble::new(&stream, steps, interrupts));
        for (frame, is_request) in &frames {
            if *is_request {
                let read = read_request_traced(&mut conn).expect("a request");
                prop_assert_eq!(read, read_request_traced(&mut frame.as_slice()).expect("a request"));
            } else {
                let read = read_response_traced(&mut conn).expect("a response");
                prop_assert_eq!(read, read_response_traced(&mut frame.as_slice()).expect("a response"));
            }
        }
        let mut rest = Vec::new();
        prop_assert_eq!(conn.read_to_end(&mut rest).expect("the end"), 0);
    }
}

/// A socket that takes nothing (`Ok(0)`) fails the write with a typed
/// `WriteZero` error instead of spinning.
#[test]
fn a_socket_that_takes_nothing_is_a_write_zero_error() {
    let store = Request::StoreBlock {
        key: Id::hash("k"),
        name: ObjectName::block("f", 0, 0),
        size: ByteSize::kb(1),
        payload: Some(vec![1; 64]),
    };
    for req in [Request::Ping, store] {
        let mut socket = Dribble::new(&[], vec![0], vec![false]);
        let err = write_request(&mut socket, &req).expect_err("nothing was taken");
        assert!(
            matches!(&err, WireError::Io(e) if e.kind() == std::io::ErrorKind::WriteZero),
            "{err:?}"
        );
        assert!(err.is_transport());
        assert!(socket.out.is_empty());
    }
}

/// A `Block` reply read into the caller's buffers through a connection's
/// buffer, its 12-byte row header and the row starting at every offset of a
/// buffered read, and the row running past that read: `head` and `tail` get
/// exactly the payload, and a reply cut short anywhere in the payload leaves
/// `tail` as it was.  A reply before it in the stream moves the row through
/// the first buffered read; a short first read moves the reply's own start
/// to the second.
#[test]
fn a_block_reply_lands_whole_wherever_its_row_starts_in_the_buffer() {
    let capacity = BufReader::new(std::io::empty()).capacity();
    let payload: Vec<u8> = (0..capacity as u32 + 3000)
        .map(|i| (i % 253) as u8)
        .collect();
    let mut reply = Vec::new();
    let block = Some((ByteSize::kb(1), Some(Arc::new(payload.clone()))));
    write_response(&mut reply, &Response::Block { block }).expect("a frame");
    let row_at = reply.len() - payload.len();
    let refusal = |len| {
        encode_response(&Response::Error(RemoteError::BadRequest {
            detail: "d".repeat(len),
        }))
    };
    // (bytes before the reply, bytes the first read yields): behind the
    // shortest reply before it, the row starts at every offset of the second
    // read up to where it starts in the first; then a longer reply before it
    // moves it on through the first read, up to straddling its end.
    let start = refusal(0).len() + row_at;
    let short_first = (1..=start).map(|first| (refusal(0), first));
    let lead = (1..=capacity - start + 12).map(|len| (refusal(len), capacity));
    for (before, first) in short_first.chain(lead) {
        let stream = [&before[..], &reply].concat();
        let start = before.len() + row_at;
        let cut = start + (start * 7919 + first) % payload.len();
        for end in [stream.len(), cut] {
            let socket = Dribble::new(&stream[..end], vec![first, capacity], vec![false]);
            let mut conn = BufReader::new(socket);
            read_response(&mut conn).expect("the reply before");
            let (mut head, mut tail) = ([0u8; 12], vec![0xEE]);
            let landed = read_block_reply_into(&mut conn, &mut head, &mut tail);
            let at = format!("row at byte {start}, first read {first} bytes, cut at {end}");
            if end == stream.len() {
                assert_eq!(landed.expect("a landed row"), BlockReply::Landed, "{at}");
                assert_eq!(head[..], payload[..12], "{at}");
                assert_eq!((tail[0], &tail[1..]), (0xEE, &payload[12..]), "{at}");
            } else {
                let err = landed.expect_err("a cut reply");
                assert!(matches!(err, WireError::Truncated), "{at}: {err:?}");
                assert_eq!(tail, [0xEE], "{at}");
            }
        }
    }
}
