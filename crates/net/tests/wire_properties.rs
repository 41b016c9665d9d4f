//! Property-based tests over the framed wire format: arbitrary payloads must
//! round-trip exactly, and corrupted frames — truncations, oversized length
//! fields, unknown kind bytes, cut or padded or arbitrary meta records — must
//! be rejected with typed errors rather than panics or mis-parses.
#![expect(clippy::expect_used, reason = "test helpers fail by panicking")]

use peerstripe_core::ObjectName;
use peerstripe_net::protocol::{
    kind, read_block_reply_into, read_request, read_request_traced, read_response,
    read_response_traced, write_request, write_request_traced, write_response,
    write_response_traced, HEADER_LEN, MAGIC,
};
use peerstripe_net::{
    NodeStats, OpLogEntry, RemoteError, Request, Response, WireError, MAX_FRAME, VERSION,
};
use peerstripe_overlay::Id;
use peerstripe_sim::ByteSize;
use peerstripe_telemetry::MetricsRegistry;
use proptest::prelude::*;
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
        metrics: MetricsRegistry::new().export(),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

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

    /// Stats responses round-trip arbitrary telemetry snapshots: live
    /// registry exports and op logs with arbitrary ids, durations (including
    /// non-finite ones, which JSON maps through null), and outcomes.
    #[test]
    fn stats_responses_round_trip_arbitrary_snapshots(
        capacity in any::<u64>(),
        used in any::<u64>(),
        objects in any::<u64>(),
        counts in proptest::collection::vec(any::<u32>(), 0..4),
        entries in proptest::collection::vec(any::<u64>(), 0..8),
    ) {
        let mut metrics = MetricsRegistry::new();
        for (i, c) in counts.iter().enumerate() {
            let op = format!("op-{i}");
            let h = metrics.counter("node_requests_total", &[("op", &op)]);
            metrics.inc(h, *c as u64);
            let lat = metrics.histogram("node_request_latency_ms", &[("op", &op)], &[1.0, 10.0]);
            metrics.observe(lat, *c as f64);
        }
        // Each seed expands into one op-log entry: traced/untraced, op,
        // duration, and outcome all derived from its bits.
        let ops = ["ping", "store_block", "fetch_block"];
        let op_log = entries
            .iter()
            .map(|seed| {
                let slow = seed & 2 != 0;
                OpLogEntry {
                    request_id: (seed & 1 == 0).then_some(seed >> 3),
                    op: ops[(*seed as usize >> 2) % ops.len()].to_string(),
                    duration_ms: (seed >> 16) as f64 / 128.0,
                    outcome: if slow { "bad_request" } else { "ok" }.to_string(),
                    slow,
                }
            })
            .collect();
        let resp = Response::Stats {
            stats: Box::new(NodeStats {
                node: Id::hash("node-p"),
                capacity: ByteSize::bytes(capacity),
                used: ByteSize::bytes(used),
                objects,
                metrics: metrics.export(),
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
