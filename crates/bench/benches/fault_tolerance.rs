//! Benches regenerating Figure 10 (availability under churn), Table 2
//! (erasure-code cost) and Table 3 (regeneration under churn).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use peerstripe_core::churn::{AvailabilityTracker, RegenerationSim};
use peerstripe_core::{ClusterConfig, CodingPolicy, PeerStripe, PeerStripeConfig, StorageSystem};
use peerstripe_erasure::{measure_code, ErasureCode, NullCode, OnlineCode, XorCode};
use peerstripe_sim::{ByteSize, DetRng};
use peerstripe_trace::TraceConfig;
use std::time::Duration;

/// Build a loaded deployment once per measurement batch.
fn deploy(coding: CodingPolicy, nodes: usize, files: usize, seed: u64) -> PeerStripe {
    let mut rng = DetRng::new(seed);
    let cluster = ClusterConfig::scaled(nodes).build(&mut rng);
    let mut ps = PeerStripe::new(cluster, PeerStripeConfig::default().with_coding(coding));
    let trace = TraceConfig::scaled(files).generate(seed ^ 0xc0de);
    for file in &trace.files {
        let _ = ps.store_file(file);
    }
    ps
}

/// Figure 10: fail 10% of the nodes one by one and track unavailable files.
fn bench_fig10_availability(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_availability");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(6));
    for coding in [
        CodingPolicy::None,
        CodingPolicy::xor_2_3(),
        CodingPolicy::online_default(),
    ] {
        group.bench_function(format!("fail_10pct/{}", coding.label()), |b| {
            b.iter_batched(
                || deploy(coding, 150, 150 * 10, 7),
                |mut ps| {
                    let mut tracker = AvailabilityTracker::build(ps.manifests());
                    let sizes = AvailabilityTracker::file_sizes(ps.manifests());
                    let mut rng = DetRng::new(8);
                    for (node, _) in ps.cluster_mut().fail_random(15, &mut rng) {
                        tracker.fail_node(node, &sizes);
                    }
                    tracker.unavailable_pct()
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

/// Table 2: encode + decode one chunk under each codec.
fn bench_table2_erasure(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2_erasure_codes");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    let chunk = ByteSize::kb(512);
    let blocks = 512;
    let null = NullCode::new(blocks);
    let xor = XorCode::new(2, blocks);
    let online = OnlineCode::with_overhead(blocks, 0.01, 3, 1.05);
    let codes: Vec<(&str, &dyn ErasureCode)> =
        vec![("null", &null), ("xor", &xor), ("online", &online)];
    for (name, code) in codes {
        group.bench_function(format!("encode_decode/{name}"), |b| {
            b.iter(|| measure_code(code, chunk, 1, 5))
        });
    }
    group.finish();
}

/// Table 3: fail 10% of the nodes with regeneration.
fn bench_table3_regeneration(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_churn_regeneration");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(6));
    group.bench_function("fail_10pct_with_recovery", |b| {
        b.iter_batched(
            || deploy(CodingPolicy::online_default(), 150, 150 * 10, 9),
            |mut ps| {
                let mut sim = RegenerationSim::build(ps.manifests());
                let mut rng = DetRng::new(10);
                sim.fail_fraction(ps.cluster_mut(), 0.10, &mut rng)
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fig10_availability,
    bench_table2_erasure,
    bench_table3_regeneration
);
criterion_main!(benches);
