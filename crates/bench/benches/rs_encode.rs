//! Benches the Reed–Solomon encode into caller-owned row buffers (the
//! `RowArena` the `rs_encode` snapshot measures through): the `scalar`
//! reference kernel vs the wide-lane `nibble64` kernel on one thread vs
//! `nibble64` with a column-span worker per CPU at 1–4 MB chunks (the ≥5×
//! single-core kernel speedup at 1 MB is an acceptance gate), with the online
//! code's encode at the same chunk sizes as the paper's point of comparison.

use criterion::{criterion_group, criterion_main, Criterion};
use peerstripe_erasure::{ErasureCode, Gf256Kernel, OnlineCode, ReedSolomonCode};
use peerstripe_experiments::coding::{cpus, RowArena};
use peerstripe_sim::{ByteSize, DetRng};
use std::time::Duration;

fn chunk(size: ByteSize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    (0..size.as_u64()).map(|_| rng.next_u32() as u8).collect()
}

/// RS(64, 96): 64 data + 32 parity blocks, 50 % parity work per byte — the
/// regime where both the kernel speedup and the column-span split pay off.
fn bench_rs_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_encode");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    let scalar = ReedSolomonCode::new(64, 32).with_kernel(Gf256Kernel::Scalar);
    let fast = ReedSolomonCode::new(64, 32).with_kernel(Gf256Kernel::Nibble64);
    for mb in [1u64, 2, 4] {
        let data = chunk(ByteSize::mb(mb), mb);
        let mut arena = RowArena::new(&fast, data.len());
        group.bench_function(format!("serial_scalar/{mb}MB"), |b| {
            b.iter(|| arena.encode(&scalar, &data, 1))
        });
        group.bench_function(format!("serial_nibble64/{mb}MB"), |b| {
            b.iter(|| arena.encode(&fast, &data, 1))
        });
        group.bench_function(format!("parallel/{mb}MB"), |b| {
            b.iter(|| arena.encode(&fast, &data, cpus()))
        });
    }
    group.finish();
}

/// The online code encoding the same chunks: sub-optimal recovery, but cheaper
/// encoding — the paper's Table 2 trade-off at bench granularity.
fn bench_online_comparison(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_vs_online_encode");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5));
    let online = OnlineCode::with_overhead(96, 0.01, 3, 1.25);
    for mb in [1u64, 4] {
        let data = chunk(ByteSize::mb(mb), mb + 10);
        group.bench_function(format!("online/{mb}MB"), |b| {
            b.iter(|| online.encode(&data))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rs_kernels, bench_online_comparison);
criterion_main!(benches);
