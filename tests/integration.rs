//! Cross-crate integration tests: full store → churn → recover → retrieve cycles
//! and the paper's headline qualitative claims at small scale.

use peerstripe::baselines::{Cfs, Past};
use peerstripe::core::{
    ClusterConfig, CodingPolicy, DamageLedger, PeerStripe, PeerStripeConfig, StorageSystem,
};
use peerstripe::multicast::{BulletConfig, BulletSim, MulticastTree};
use peerstripe::sim::{ByteSize, DetRng};
use peerstripe::trace::{CapacityModel, FileRecord, TraceConfig};

fn cluster(nodes: usize, capacity: ByteSize, seed: u64) -> peerstripe::core::StorageCluster {
    let mut rng = DetRng::new(seed);
    ClusterConfig {
        nodes,
        capacity: CapacityModel::Fixed(capacity),
        track_objects: true,
    }
    .build(&mut rng)
}

#[test]
fn peerstripe_stores_what_past_cannot() {
    // The headline capability: a file larger than any contributor.
    let file = FileRecord::new("telescope-run.raw", ByteSize::gb(5));

    let mut past = Past::new(cluster(40, ByteSize::gb(1), 1));
    assert!(
        !past.store_file(&file).is_stored(),
        "PAST cannot store a 5 GB file on 1 GB nodes"
    );

    let mut ours = PeerStripe::new(cluster(40, ByteSize::gb(1), 1), PeerStripeConfig::default());
    assert!(
        ours.store_file(&file).is_stored(),
        "PeerStripe stripes it over many nodes"
    );
    assert!(ours.is_file_available("telescope-run.raw"));

    let mut cfs = Cfs::new(cluster(40, ByteSize::gb(1), 1), 5);
    assert!(
        cfs.store_file(&file).is_stored(),
        "CFS can also store it, with many more chunks"
    );
    let cfs_chunks = cfs.metrics().mean_chunks_per_file();
    let our_chunks = ours.metrics().mean_chunks_per_file();
    assert!(
        cfs_chunks > 10.0 * our_chunks,
        "CFS needs far more chunks ({cfs_chunks}) than PeerStripe ({our_chunks})"
    );
}

#[test]
fn full_lifecycle_store_fail_recover_retrieve() {
    // Byte-level lifecycle across overlay + erasure + storage + recovery.
    let mut ps = PeerStripe::new(
        cluster(50, ByteSize::mb(300), 2),
        PeerStripeConfig::default().with_coding(CodingPolicy::xor_2_3()),
    );
    let mut rng = DetRng::new(3);
    let data: Vec<u8> = (0..1_500_000).map(|_| rng.next_u32() as u8).collect();
    assert!(ps.store_data("genome.fasta", &data).is_stored());

    // Fail three nodes holding blocks, recovering after each failure.
    for _ in 0..3 {
        let victim = ps
            .manifest("genome.fasta")
            .unwrap()
            .all_blocks()
            .map(|b| b.node)
            .next()
            .unwrap();
        let takeover = ps.backend_mut().fail_node(victim).unwrap();
        let report = ps.handle_node_failure(victim, &takeover);
        assert_eq!(
            report.chunks_lost, 0,
            "coding + recovery must not lose chunks"
        );
        assert!(ps.is_file_available("genome.fasta"));
    }
    assert_eq!(ps.retrieve_data("genome.fasta").unwrap(), data);
}

#[test]
fn availability_ordering_matches_figure_10() {
    let nodes = 300;
    let files = nodes * 10;
    let mut unavailable = Vec::new();
    for coding in [
        CodingPolicy::None,
        CodingPolicy::xor_2_3(),
        CodingPolicy::online_default(),
    ] {
        let mut rng = DetRng::new(5);
        let c = ClusterConfig::scaled(nodes).build(&mut rng);
        let mut ps = PeerStripe::new(c, PeerStripeConfig::default().with_coding(coding));
        let trace = TraceConfig::scaled(files).generate(6);
        for f in &trace.files {
            let _ = ps.store_file(f);
        }
        let mut ledger = DamageLedger::build(ps.manifests());
        let mut fail_rng = DetRng::new(7);
        for (node, _) in ps.backend_mut().fail_random(nodes / 10, &mut fail_rng) {
            ledger.node_down(node);
        }
        unavailable.push(ledger.unavailable_pct());
    }
    assert!(
        unavailable[0] > unavailable[1],
        "no coding loses more than XOR: {unavailable:?}"
    );
    assert!(
        unavailable[1] >= unavailable[2],
        "XOR loses at least as much as online: {unavailable:?}"
    );
}

#[test]
fn multicast_tree_from_overlay_disseminates_replicas() {
    // Build a locality-aware tree over a real overlay and push a chunk through it.
    let mut rng = DetRng::new(8);
    let cluster = ClusterConfig::scaled(200).build(&mut rng);
    let overlay = cluster.overlay();
    let source = overlay.random_alive(&mut rng).unwrap();
    let replicas: Vec<_> = overlay
        .ring()
        .k_closest(peerstripe::overlay::Id::hash("block_0_1"), 32)
        .into_iter()
        .map(|(_, n)| n)
        .collect();
    let tree = MulticastTree::locality_aware(overlay, source, &replicas, 2);
    assert!(tree.len() >= 32);
    let run = BulletSim::new(
        tree,
        BulletConfig {
            packets: 200,
            ransub_fraction: 0.16,
            per_epoch_budget: 4,
            upload_budget: 6,
            max_epochs: 5_000,
        },
    )
    .run(&mut rng);
    assert!(
        run.completed_at.is_some(),
        "all replicas receive the whole chunk"
    );
}

#[test]
fn metadata_and_byte_paths_agree_on_placement_shape() {
    let mut ps = PeerStripe::new(
        cluster(30, ByteSize::mb(64), 9),
        PeerStripeConfig::default(),
    );
    let mut rng = DetRng::new(10);
    let data: Vec<u8> = (0..4_000_000).map(|_| rng.next_u32() as u8).collect();
    assert!(ps.store_data("bytes.bin", &data).is_stored());
    assert!(ps
        .store_file(&FileRecord::new("meta.bin", ByteSize::bytes(4_000_000)))
        .is_stored());
    let bytes_chunks = ps.manifest("bytes.bin").unwrap().chunks.len();
    let meta_chunks = ps.manifest("meta.bin").unwrap().chunks.len();
    // Both paths size chunks from the same getCapacity probes, so the chunk
    // counts must be in the same ballpark (they probe different key sequences,
    // so exact equality is not expected).
    assert!(
        bytes_chunks.abs_diff(meta_chunks) <= 2,
        "{bytes_chunks} vs {meta_chunks}"
    );
}

#[test]
fn cat_reconstruction_survives_total_cat_loss() {
    let mut ps = PeerStripe::new(
        cluster(40, ByteSize::mb(400), 11),
        PeerStripeConfig::default(),
    );
    assert!(ps
        .store_file(&FileRecord::new("reconstruct-me", ByteSize::gb(2)))
        .is_stored());
    let original: Vec<ByteSize> = ps
        .manifest("reconstruct-me")
        .unwrap()
        .chunks
        .iter()
        .map(|c| c.size)
        .filter(|s| !s.is_zero())
        .collect();
    let rebuilt = ps.reconstruct_cat("reconstruct-me");
    let rebuilt_sizes: Vec<ByteSize> = rebuilt.iter().copied().filter(|s| !s.is_zero()).collect();
    assert_eq!(rebuilt_sizes, original);
    assert_eq!(rebuilt.into_iter().sum::<ByteSize>(), ByteSize::gb(2));
}

#[test]
fn every_system_places_exactly_the_bytes_its_cluster_holds() {
    // PAST, CFS and PeerStripe fill identically seeded, object-tracking
    // clusters past capacity.  A refused store must leave nothing behind, so
    // after every store the cluster holds exactly the bytes the system
    // reports as placed.
    let nodes = 24;
    let trace = TraceConfig::scaled(nodes * 200).generate(3);
    let build = || {
        let mut rng = DetRng::new(3);
        ClusterConfig::scaled(nodes).build(&mut rng)
    };
    let mut past = Past::new(build());
    let mut cfs = Cfs::new(build(), 8);
    let mut ours = PeerStripe::new(build(), PeerStripeConfig::default());
    let systems = [
        ("PAST", &mut past as &mut dyn StorageSystem),
        ("CFS", &mut cfs),
        ("PeerStripe", &mut ours),
    ];
    for (label, system) in systems {
        for file in &trace.files {
            let _ = system.store_file(file);
            assert_eq!(
                system.cluster().total_used(),
                system.metrics().bytes_placed,
                "{label} after {}",
                file.name
            );
        }
        assert!(
            system.metrics().files_failed > 0,
            "{label} never refused a store"
        );
    }
}

/// Over the in-memory wire, where the gateway writes each `StoreBlock` from
/// the parts the client hands it — a systematic row from the caller's bytes,
/// a parity row from a buffer the client keeps — every placed block holds
/// `pack_payload` of its codec row, one `store_block` RPC each.  So do the
/// blocks rebuilt after a daemon that held both kinds stops.  The file
/// is two 2 MiB chunks and a 1234-byte one: five rows divide none of them,
/// so each chunk's last rows carry padding.
#[test]
fn every_block_sent_over_the_wire_holds_its_packed_codec_row() {
    use peerstripe::core::client::pack_payload;
    use peerstripe::core::{FileManifest, StorageBackend};
    use peerstripe::net::{MemWire, RingGateway};
    use peerstripe::placement::ClusterView;

    let coding = CodingPolicy::ReedSolomon { data: 5, parity: 3 };
    let (wire, gateway) = MemWire::ring_of(8, ByteSize::mb(64));
    let config = PeerStripeConfig {
        coding,
        max_chunk_size: Some(ByteSize::mb(2)),
        ..PeerStripeConfig::default()
    };
    let mut ps = PeerStripe::new(gateway, config);
    let mut rng = DetRng::new(11);
    let data: Vec<u8> = (0..(4 << 20) + 1234)
        .map(|_| rng.next_u32() as u8)
        .collect();
    assert!(ps.store_data("f", &data).is_stored());

    let codec = coding.codec(16);
    // Every block on a live daemon, checked; the manifest returned.
    let check = |ps: &PeerStripe<RingGateway<MemWire>>| -> FileManifest {
        let manifest = ps.manifest("f").expect("stored").clone();
        let mut start = 0;
        for chunk in &manifest.chunks {
            let len = chunk.size.as_u64() as usize;
            assert_ne!(len % 5, 0, "a chunk its rows divide");
            let rows = codec.encode(&data[start..start + len]);
            assert_eq!(chunk.blocks.len(), rows.len());
            for (position, (block, row)) in chunk.blocks.iter().zip(&rows).enumerate() {
                if !ps.backend().is_alive(block.node) {
                    continue;
                }
                let want = pack_payload(std::slice::from_ref(row));
                let held = ps.backend().fetch_block(block.node, &block.name);
                let held = held.and_then(|b| b.payload).expect("a payload");
                assert!(*held == want, "chunk {} position {position}", chunk.chunk);
                assert_eq!(block.size.as_u64(), want.len() as u64);
            }
            start += len;
        }
        assert_eq!(start, data.len());
        manifest
    };
    let manifest = check(&ps);
    let store_rpcs: u64 = ps
        .backend()
        .export_metrics()
        .counters
        .iter()
        .filter(|c| c.name == "gateway_rpc_total" && c.labels.iter().any(|l| l.1 == "store_block"))
        .map(|c| c.value)
        .sum();
    let placed = manifest.all_blocks().count() + manifest.cat_nodes.len();
    assert_eq!(
        store_rpcs, placed as u64,
        "one store_block RPC a placed block"
    );

    // A daemon that holds a source row and a parity row, and no more of any
    // chunk than it tolerates losing.
    let positions = |n| {
        let held = manifest
            .chunks
            .iter()
            .flat_map(|c| c.blocks.iter().enumerate());
        held.filter(move |(_, b)| b.node == n).map(|(p, _)| p)
    };
    let victim = (0..8)
        .find(|&n| {
            let tolerated = manifest
                .chunks
                .iter()
                .all(|c| c.blocks_on(n).count() <= coding.tolerable_losses());
            tolerated && positions(n).any(|p| p < 5) && positions(n).any(|p| p >= 5)
        })
        .expect("a daemon holding both kinds of row");
    wire.stop(victim);
    let takeover = ps.backend_mut().mark_failed(victim).expect("a ring member");
    let report = ps.handle_node_failure(victim, &takeover);
    assert_eq!(report.chunks_lost, 0);
    let repaired = check(&ps);
    let rebuilt: Vec<usize> = manifest
        .chunks
        .iter()
        .zip(&repaired.chunks)
        .flat_map(|(before, after)| {
            let pairs = before.blocks.iter().zip(&after.blocks).enumerate();
            pairs.filter(|(_, (b, a))| b.name != a.name).map(|(p, _)| p)
        })
        .collect();
    assert_eq!(rebuilt.len() as u64, report.blocks_regenerated);
    assert!(
        rebuilt.iter().any(|&p| p < 5) && rebuilt.iter().any(|&p| p >= 5),
        "rebuilt positions {rebuilt:?}"
    );
    assert_eq!(ps.retrieve_data("f").as_deref(), Some(&data[..]));
}

/// CFS's placement work in the small-scale, seed-42 store comparison, as an
/// exact count: every block placement attempt (each salt of each 4 MB block)
/// charges one routed lookup, so the count is what CFS's Figure 7 curve
/// cost.  A count does not flake the way a timing does: a change to the
/// overlay's search may make an attempt cheaper, never add or drop one.
#[test]
fn cfs_placement_attempts_are_pinned_at_small_scale() {
    use peerstripe::experiments::storesim::{run_store_comparison, StoreSimConfig, SystemKind};
    use peerstripe::experiments::Scale;

    let cmp = run_store_comparison(&StoreSimConfig::at_scale(Scale::Small, 42));
    assert_eq!(cmp.run(SystemKind::Cfs).lookups, 2_532_659, "CFS lookups");
}
