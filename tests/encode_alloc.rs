//! Allocation budget of the store path's encode, pinned with the counting
//! global allocator of `counting_alloc`: a chunk's bytes land directly in the
//! payloads that are pushed, so storing a 4 MiB RS(5, 3) chunk makes one
//! large allocation per placed block and nothing else that grows with the
//! chunk.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running beside it would be counted too.

mod counting_alloc;

use counting_alloc::{counted, Counting};
use peerstripe::core::{ClusterConfig, CodingPolicy, PeerStripe, PeerStripeConfig};
use peerstripe::sim::{ByteSize, DetRng};
use peerstripe::trace::CapacityModel;

#[global_allocator]
static GLOBAL: Counting = Counting;

fn seeded(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

#[test]
fn a_chunk_is_encoded_into_one_allocation_per_placed_block() {
    let coding = CodingPolicy::ReedSolomon { data: 5, parity: 3 };

    // The codec alone, into buffers the caller owns: no allocation that
    // grows with the chunk — the same few small ones (coefficient tables,
    // row lists) at 1 MiB and at 4 MiB.
    let codec = coding.codec(16);
    let rows: Vec<u32> = (0..codec.encoded_blocks() as u32).collect();
    let mut per_size = Vec::new();
    for len in [1usize << 20, 4 << 20] {
        let chunk = seeded(len, 1);
        let mut bufs = vec![vec![0u8; codec.block_size(len)]; rows.len()];
        let mut out: Vec<&mut [u8]> = bufs.iter_mut().map(Vec::as_mut_slice).collect();
        let (large, small, small_bytes, _) =
            counted(|| codec.encode_rows_into(&chunk, &rows, &mut out));
        assert_eq!(large, 0, "encode_rows_into at {len} bytes");
        assert!(small_bytes < 16 * 1024, "{small_bytes} bytes at {len}");
        per_size.push((small, small_bytes));
    }
    assert_eq!(
        per_size[0], per_size[1],
        "small allocations grew with the chunk"
    );

    // The client: one 4 MiB chunk through `store_data`, with the parity
    // blocks computed on the scoped worker.  Exactly `placed_blocks` large
    // allocations — the payloads, sized exactly and handed to the backend as
    // they are — and small ones that do not depend on the chunk's size.
    let mut stores = Vec::new();
    for len in [2usize << 20, 4 << 20] {
        let cluster = ClusterConfig {
            nodes: 24,
            capacity: CapacityModel::Fixed(ByteSize::mb(64)),
            track_objects: true,
        }
        .build(&mut DetRng::new(7));
        let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default().with_coding(coding));
        let data = seeded(len, 2);
        let (large, small, _, _) = counted(|| assert!(ps.store_data("f", &data).is_stored()));
        let manifest = ps.manifest("f").expect("stored");
        assert_eq!(manifest.chunks.len(), 1, "one chunk");
        assert_eq!(large, coding.placed_blocks(), "large allocations at {len}");
        let block = codec.block_size(len) as u64;
        assert!(manifest
            .all_blocks()
            .all(|b| b.size.as_u64() == 4 + 8 + block));
        assert_eq!(ps.retrieve_data("f").as_deref(), Some(&data[..]));
        stores.push(small);
    }
    assert_eq!(
        stores[0], stores[1],
        "small allocations grew with the chunk"
    );
}
