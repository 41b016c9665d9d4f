//! Allocation budget of the store path's encode, pinned with the counting
//! global allocator of `counting_alloc`: a systematic row is sent from the
//! caller's bytes and every computed payload is encoded into a buffer the
//! client keeps from chunk to chunk, so over the simulator — which keeps a
//! copy of what it is handed — a 4 MiB RS(5, 3) store makes one large
//! allocation per placed block for the cluster, one per parity payload the
//! first time only, and nothing else that grows with the chunk.
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
fn a_store_allocates_the_clusters_copies_and_its_parity_buffers_once() {
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

    // The client: one chunk a file through `store_data`, the parity blocks
    // computed on the store's encode worker.  The simulator takes the
    // provided `store_block_from`, which gathers each payload's parts into
    // the cluster's copy: `placed_blocks` large allocations a store.  The
    // client's own are its parity buffers, allocated by its first store and
    // kept: a second store of the same size makes the cluster's copies only.
    let parity = coding.placed_blocks() - coding.min_blocks_needed();
    let (mut firsts, mut seconds) = (Vec::new(), Vec::new());
    for len in [2usize << 20, 4 << 20] {
        let cluster = ClusterConfig {
            nodes: 24,
            capacity: CapacityModel::Fixed(ByteSize::mb(64)),
            track_objects: true,
        }
        .build(&mut DetRng::new(7));
        let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default().with_coding(coding));
        let block = codec.block_size(len) as u64;
        for (file, seed, large_allocs, small_allocs) in [
            ("f", 2, coding.placed_blocks() + parity, &mut firsts),
            ("g", 3, coding.placed_blocks(), &mut seconds),
        ] {
            let data = seeded(len, seed);
            let (large, small, _, _) = counted(|| assert!(ps.store_data(file, &data).is_stored()));
            let manifest = ps.manifest(file).expect("stored");
            assert_eq!(manifest.chunks.len(), 1, "one chunk");
            assert_eq!(large, large_allocs, "large allocations of {file} at {len}");
            assert!(manifest
                .all_blocks()
                .all(|b| b.size.as_u64() == 4 + 8 + block));
            assert_eq!(ps.retrieve_data(file).as_deref(), Some(&data[..]));
            small_allocs.push(small);
        }
    }
    assert_eq!(
        firsts[0], firsts[1],
        "small allocations of a first store grew with the chunk"
    );
    assert_eq!(
        seconds[0], seconds[1],
        "small allocations of a second store grew with the chunk"
    );
}
