//! Stand-alone probes: a layer's public functions timed on their own, at
//! the exact chunk and block size a ring workload uses, after its traced
//! rounds.  They put a ceiling on what a change to that layer can gain.

use crate::stats::median;
use peerstripe_core::client::{pack_payload, unpack_payload};
use peerstripe_core::{CodingPolicy, ObjectName};
use peerstripe_erasure::EncodedBlock;
use peerstripe_net::protocol::{read_request, write_request};
use peerstripe_net::{NodeConfig, NodeService, Request};
use peerstripe_sim::{ByteSize, DetRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median wall time of `f` in milliseconds: at least five calls, and as many
/// more as fit in 60 ms.
fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let budget = Duration::from_millis(60);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || started.elapsed() < budget {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    median(&samples)
}

/// Seeded bytes: the same seed gives the same buffer.
pub fn seeded_bytes(rng: &mut DetRng, len: usize) -> Vec<u8> {
    let mut out = vec![0u8; len];
    let mut words = out.chunks_exact_mut(8);
    for w in &mut words {
        w.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    for b in words.into_remainder() {
        *b = rng.next_u64() as u8;
    }
    out
}

/// Per-chunk costs of the byte path's pure-compute steps.
pub struct CodecProbe {
    pub encode_ms: f64,
    pub decode_ms: f64,
    pub decode_degraded_ms: f64,
    pub reencode_ms: f64,
    /// Packing all of a chunk's placed blocks.
    pub pack_ms: f64,
    /// Unpacking all of a chunk's placed blocks.
    pub unpack_ms: f64,
    /// One placed block's packed payload, for the node and frame probes.
    pub block_payload: Vec<u8>,
}

/// Time the codec and payload packing the client runs for one chunk of
/// `chunk_bytes`, spread over the policy's placed blocks as the client does.
pub fn codec_probe(coding: &CodingPolicy, source_blocks: usize, chunk: &[u8]) -> CodecProbe {
    let codec = coding.codec(source_blocks);
    let placed = coding.placed_blocks();
    let encoded = codec.encode(chunk);
    // The client deals codec blocks round-robin over the placed blocks.
    let mut groups: Vec<Vec<EncodedBlock>> = vec![Vec::new(); placed];
    for (i, b) in encoded.iter().enumerate() {
        groups[i % placed].push(b.clone());
    }
    let payloads: Vec<Vec<u8>> = groups.iter().map(|g| pack_payload(g)).collect();
    // One placed block lost: its codec blocks are the missing ones.
    let survivors: Vec<EncodedBlock> = groups[1..].concat();
    let missing: Vec<u32> = groups[0].iter().map(|b| b.index).collect();

    CodecProbe {
        encode_ms: median_ms(|| codec.encode(chunk)),
        decode_ms: median_ms(|| codec.decode(&encoded, chunk.len())),
        decode_degraded_ms: median_ms(|| codec.decode(&survivors, chunk.len())),
        reencode_ms: median_ms(|| codec.reencode(&survivors, chunk.len(), &missing)),
        pack_ms: median_ms(|| groups.iter().map(|g| pack_payload(g)).collect::<Vec<_>>()),
        unpack_ms: median_ms(|| {
            payloads
                .iter()
                .map(|p| unpack_payload(p))
                .collect::<Vec<_>>()
        }),
        block_payload: payloads.into_iter().next().unwrap_or_default(),
    }
}

/// `(store_us, fetch_us)`: one block stored into and fetched from a
/// `NodeService` in-process — the daemon's handler without socket or frame.
pub fn node_inproc_us(payload: &[u8]) -> (f64, f64) {
    let mut node = NodeService::new(&NodeConfig::named("probe", ByteSize::mb(256)));
    let name = ObjectName::block("probe", 0, 0);
    let size = ByteSize::bytes(payload.len() as u64);
    let mut store_ms = Vec::new();
    let mut fetch_ms = Vec::new();
    for _ in 0..40 {
        let req = Request::StoreBlock {
            key: name.key(),
            name: name.clone(),
            size,
            payload: Some(payload.to_vec()),
        };
        let t = Instant::now();
        black_box(node.handle(req));
        store_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(node.handle(Request::FetchBlock { name: name.clone() }));
        fetch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        node.handle(Request::RemoveBlock {
            name: name.clone(),
            size,
        });
    }
    (median(&store_ms) * 1e3, median(&fetch_ms) * 1e3)
}

/// `(frame_MBps, small_frames_per_s)`: a `StoreBlock` frame of one block
/// and a `GetCapacity` frame, each written to and parsed back from a `Vec`.
pub fn protocol_probe(payload: &[u8]) -> (f64, f64) {
    let name = ObjectName::block("probe", 0, 0);
    let big = Request::StoreBlock {
        key: name.key(),
        name,
        size: ByteSize::bytes(payload.len() as u64),
        payload: Some(payload.to_vec()),
    };
    let round_trip = |req: &Request| {
        let mut wire = Vec::new();
        write_request(&mut wire, req).expect("a Vec accepts every write");
        read_request(&mut wire.as_slice()).expect("a frame just written parses")
    };
    let big_ms = median_ms(|| round_trip(&big));
    // A small frame takes well under a microsecond: time them a thousand
    // at a go so the clock reads do not show.
    let small_ms = median_ms(|| {
        for _ in 0..1000 {
            black_box(round_trip(&Request::GetCapacity));
        }
    });
    (
        payload.len() as f64 / 1e6 / (big_ms / 1e3),
        1000.0 * 1e3 / small_ms,
    )
}
