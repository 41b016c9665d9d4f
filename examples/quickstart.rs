//! Quick start: build a contributory storage pool, store a file that no single
//! participant could hold, read part of it back, and survive a failure.
//!
//! Run with: `cargo run --example quickstart`
#![expect(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "an example stops at the first failed step"
)]

use peerstripe::core::{ClusterConfig, CodingPolicy, PeerStripe, PeerStripeConfig, StorageSystem};
use peerstripe::sim::{ByteSize, DetRng};
use peerstripe::trace::{CapacityModel, FileRecord};

fn main() {
    // 1. Sixty-four desktops join the overlay, each contributing a few hundred
    //    megabytes of spare disk (kept small so the byte-level demo is instant).
    let mut rng = DetRng::new(2026);
    let cluster = ClusterConfig {
        nodes: 64,
        capacity: CapacityModel::Uniform {
            lo: ByteSize::mb(64),
            hi: ByteSize::mb(256),
        },
        track_objects: true,
    }
    .build(&mut rng);
    println!(
        "pool: {} nodes, {} contributed in total",
        cluster.node_count(),
        cluster.total_capacity()
    );

    // 2. Create a PeerStripe instance with the paper's (2,3) XOR coding so every
    //    chunk survives the loss of one of its blocks.
    let mut storage = PeerStripe::new(
        cluster,
        PeerStripeConfig::default().with_coding(CodingPolicy::xor_2_3()),
    );

    // 3. Store real bytes: a 4 MB "medical image" (any single block of it is
    //    spread over several contributors).
    let image: Vec<u8> = (0..4 * 1024 * 1024u32)
        .map(|i| ((i.wrapping_mul(2654435761)) >> 24) as u8)
        .collect();
    let outcome = storage.store_data("mri-scan-0007", &image);
    println!("store outcome: {:?}", outcome);
    assert!(outcome.is_stored());

    let manifest = storage
        .manifest("mri-scan-0007")
        .expect("manifest recorded");
    println!(
        "placed as {} chunk(s) over {} distinct nodes (CAT replicated on {} nodes)",
        manifest.chunks.len(),
        manifest
            .all_blocks()
            .map(|b| b.node)
            .collect::<std::collections::BTreeSet<_>>()
            .len(),
        manifest.cat_nodes.len()
    );

    // 4. Read a byte range back — only the chunks covering the range are touched.
    let slice = storage
        .retrieve_range_data("mri-scan-0007", 1_000_000, 64)
        .expect("range read");
    assert_eq!(slice, &image[1_000_000..1_000_064]);
    println!("range read of 64 bytes at offset 1,000,000 verified");

    // 5. Fail a node that holds one of the blocks; the file stays available and
    //    the lost block is regenerated elsewhere.
    let victim = manifest.chunks[0].blocks[0].node;
    let takeover = storage.backend_mut().fail_node(victim).expect("takeover");
    println!(
        "node {victim} failed; file still available: {}",
        storage.is_file_available("mri-scan-0007")
    );
    let report = storage.handle_node_failure(victim, &takeover);
    println!(
        "recovery: {} block(s) regenerated ({}), {} chunk(s) lost",
        report.blocks_regenerated, report.bytes_regenerated, report.chunks_lost
    );

    // 6. The data still reads back bit-for-bit after the failure and recovery.
    let restored = storage.retrieve_data("mri-scan-0007").expect("full read");
    assert_eq!(restored, image);
    println!("full read-back verified after failure + recovery");

    // 7. The metadata path scales to files no participant could hold: store a
    //    2 GB dataset descriptor (sizes only, no payload) and inspect the CAT.
    let big = FileRecord::new("climate-ensemble.tar", ByteSize::gb(2));
    assert!(storage.store_file(&big).is_stored());
    let chunks = storage
        .manifest("climate-ensemble.tar")
        .unwrap()
        .chunks
        .len();
    println!("2 GB dataset stored as {chunks} varying-size chunks");
}
