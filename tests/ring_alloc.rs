//! Allocation budget of the identifier ring, pinned with the counting global
//! allocator of `counting_alloc`: building an overlay is one sort into a
//! fixed set of tables whatever its size, a routed lookup allocates nothing,
//! and `k_closest` allocates its result only.
//!
//! One `#[test]` only: the counters are process-wide, and a second test
//! running beside it would be counted too.

mod counting_alloc;

use counting_alloc::{counted, Counting};
use peerstripe::overlay::{Id, OverlaySim};
use peerstripe::sim::DetRng;
use std::hint::black_box;

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Every allocation `f` makes on this thread, large or small.
fn allocations(f: impl FnOnce()) -> usize {
    counted(f).3
}

#[test]
fn the_ring_allocates_its_tables_and_results_only() {
    let mut rng = DetRng::new(7);
    let mut sim = OverlaySim::new(10_000, &mut rng);
    let keys: Vec<Id> = (0..1_000).map(|_| Id::random(&mut rng)).collect();
    let victims: Vec<usize> = (0..1_000).map(|_| rng.index(10_000)).collect();

    // The node table, the members handed to the sort, the ring's three
    // columns (ids, nodes, liveness marks) and its radix index over the
    // sorted ids: six, at any size.
    for n in [1_000, 10_000] {
        let mut rng = DetRng::new(42);
        let built = allocations(|| drop(black_box(OverlaySim::new(n, &mut rng))));
        assert_eq!(built, 6, "OverlaySim::new at {n} nodes");
    }

    // Churn clears and sets liveness marks in place.
    let churn = allocations(|| {
        for &v in &victims {
            black_box(sim.fail(v));
        }
    });
    assert_eq!(churn, 0, "failing nodes");
    let routed = allocations(|| {
        for &key in &keys {
            black_box(sim.route(key));
        }
    });
    assert_eq!(routed, 0, "route over a churned ring");
    let closest = allocations(|| {
        for &key in &keys {
            black_box(sim.ring().k_closest(key, 3));
        }
    });
    assert_eq!(closest, keys.len(), "k_closest(key, 3): its result only");
    let rejoined = allocations(|| {
        for &v in &victims {
            sim.rejoin(v);
        }
    });
    assert_eq!(rejoined, 0, "rejoining nodes");
    assert_eq!(sim.alive_nodes().count(), 10_000);
}
