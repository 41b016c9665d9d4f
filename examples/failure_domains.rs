//! Failure-domain-aware placement: why spreading blocks over labs matters.
//!
//! Desktop-grid nodes fail in groups — a lab powers down, a switch dies.  This
//! example deploys the same files twice over a 64-node pool organised into
//! eight labs: once through the classic oblivious DHT placement and once
//! through the `domain-spread` strategy, then powers an entire lab down and
//! compares what stays retrievable.
//!
//! Run with `cargo run --example failure_domains`.
#![expect(
    clippy::unwrap_used,
    reason = "an example stops at the first failed step"
)]

use peerstripe::core::{ClusterConfig, CodingPolicy, PeerStripe, PeerStripeConfig, StorageSystem};
use peerstripe::placement::{PlacementStrategy, SpreadReport, StrategyKind, Topology};
use peerstripe::sim::{ByteSize, DetRng};
use peerstripe::trace::{CapacityModel, FileRecord};

fn deploy(strategy: Box<dyn PlacementStrategy>, topology: &Topology) -> PeerStripe {
    let mut rng = DetRng::new(2026);
    let cluster = ClusterConfig {
        nodes: 64,
        capacity: CapacityModel::Fixed(ByteSize::gb(2)),
        track_objects: true,
    }
    .build(&mut rng);
    let mut ps = PeerStripe::with_placement(
        cluster,
        // 8 blocks per chunk, any 4 recover it: up to 4 losses tolerated, so
        // the domain cap is 4 blocks per lab.
        PeerStripeConfig::default().with_coding(CodingPolicy::Online {
            placed: 8,
            tolerable: 4,
            overhead: 1.03,
        }),
        strategy,
        Some(topology.clone()),
    );
    for i in 0..30 {
        assert!(ps
            .store_file(&FileRecord::new(format!("dataset-{i}"), ByteSize::mb(300)))
            .is_stored());
    }
    ps
}

fn main() {
    // 64 nodes in 4 labs of 16: each lab shares a switch and a breaker.
    let topology = Topology::uniform_groups(64, 16);
    println!(
        "pool: 64 nodes, {} labs of {} (one failure domain each)\n",
        topology.domain_count(),
        topology.members(0).len()
    );

    for kind in [StrategyKind::OverlayRandom, StrategyKind::DomainSpread] {
        let mut ps = deploy(kind.build(2026), &topology);
        let cap = ps.domain_cap();

        // How diverse did the placement come out?
        let mut spread = SpreadReport::new(cap);
        for i in 0..30 {
            let manifest = ps.manifest(&format!("dataset-{i}")).unwrap();
            for chunk in manifest.chunks.iter().filter(|c| !c.size.is_zero()) {
                spread.record_chunk(chunk.blocks.iter().map(|b| b.domain));
            }
        }

        // A whole lab powers down.
        for &node in topology.members(3) {
            ps.backend_mut().fail_node(node);
        }
        let available = (0..30)
            .filter(|i| ps.is_file_available(&format!("dataset-{i}")))
            .count();

        println!("{}:", kind.label());
        println!(
            "  worst chunk concentration: {} blocks in one lab (cap {})",
            spread.max_in_one_domain, cap
        );
        println!(
            "  chunks a single-lab outage can kill: {}",
            spread.cap_violations
        );
        println!("  files retrievable after lab 3 powers down: {available}/30\n");
    }
}
