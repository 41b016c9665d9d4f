//! Benchmarks the repair subsystem's event throughput: how many maintenance
//! events per second the scheduler/engine sustains at 1 000 and 10 000 nodes.
//!
//! The engine's per-event cost is O(blocks touched), so events/sec should stay
//! roughly flat as the population grows — this bench is the regression guard
//! for that property.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use peerstripe_experiments::bench_snapshot::{deploy, engine_of};
use peerstripe_sim::SimTime;
use std::time::Duration;

/// Events/sec of the maintenance engine driving 24 h of churn.
fn bench_repair_schedule(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_schedule");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(10));
    for nodes in [1_000usize, 10_000] {
        let (cluster, manifests) = deploy(nodes, 42);
        group.bench_function(format!("churn_24h/{nodes}_nodes"), |b| {
            b.iter_batched(
                || engine_of(cluster.clone(), &manifests, 42),
                |mut engine| {
                    engine.run_for(SimTime::from_secs(24 * 3_600));
                    engine.events_processed()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_repair_schedule);
criterion_main!(benches);
