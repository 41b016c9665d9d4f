//! Benchmarks placement decision throughput: chunk-placement plans and repair
//! target picks per second for every strategy at 1 000, 10 000 and 100 000
//! nodes.
//!
//! `overlay-random` is a pure routing walk (O(log n) per block);
//! `domain-spread` adds per-domain accounting and, when the routed domain is
//! over-used, a fallback over the cluster's per-domain index (O(domains) on
//! the store path, a count over one tier of domains on the repair path);
//! `capacity-weighted` is O(nodes) per draw by construction.  This bench is
//! the regression guard for keeping the store path's decision cost
//! negligible next to the transfer it sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use peerstripe_core::ClusterConfig;
use peerstripe_overlay::Id;
use peerstripe_placement::{RepairRequest, StrategyKind, Topology};
use peerstripe_sim::{ByteSize, DetRng};
use std::time::Duration;

const BLOCKS_PER_CHUNK: usize = 8;
const DOMAIN_CAP: usize = 4;

fn bench_placement_decide(c: &mut Criterion) {
    let mut group = c.benchmark_group("placement_decide");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(5));
    for nodes in [1_000usize, 10_000, 100_000] {
        let mut rng = DetRng::new(7);
        let mut base = ClusterConfig::scaled(nodes).build(&mut rng);
        let topology = Topology::synthetic(nodes, 4, 8, 7);
        // Handed over the way a client or the engine does it, so strategies
        // find the cluster's per-domain index.
        base.adopt_topology(&topology);
        for kind in StrategyKind::ALL {
            // Chunk-placement planning: one 8-block plan per iteration, fresh
            // keys per chunk (the store path's hot decision).
            group.bench_function(format!("plan_chunk/{}/{nodes}_nodes", kind.label()), |b| {
                let mut cluster = base.clone();
                let mut strategy = kind.build(7);
                let mut chunk = 0u64;
                b.iter(|| {
                    chunk += 1;
                    let keys: Vec<Id> = (0..BLOCKS_PER_CHUNK as u64)
                        .map(|ecb| Id::hash(&format!("bench-file_{chunk}_{ecb}")))
                        .collect();
                    strategy
                        .plan_chunk(&mut cluster, Some(&topology), &keys, DOMAIN_CAP)
                        .map(|picks| picks.len())
                })
            });
            // Repair targeting: one replacement pick against a half-placed
            // chunk (the maintenance engine's hot decision).
            group.bench_function(
                format!("repair_targets/{}/{nodes}_nodes", kind.label()),
                |b| {
                    let cluster = base.clone();
                    let mut strategy = kind.build(7);
                    let mut rng = DetRng::new(11);
                    let holders: Vec<usize> = (0..BLOCKS_PER_CHUNK - 1).map(|i| i * 7).collect();
                    let request = RepairRequest {
                        want: 1,
                        size: ByteSize::mb(8),
                        holders: &holders,
                        domain_cap: DOMAIN_CAP,
                    };
                    b.iter(|| {
                        strategy
                            .repair_targets(&cluster, Some(&topology), &request, &mut rng)
                            .len()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_placement_decide);
criterion_main!(benches);
