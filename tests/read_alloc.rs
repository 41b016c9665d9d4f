//! Allocation budget of the read path, pinned with the counting global
//! allocator of `counting_alloc`: a fetched row lands where the caller reads
//! it, so reading a four-chunk RS(5, 3) file off live daemons makes one large
//! allocation — the result, reserved once with room for the last row's
//! padding — and never moves it.  No reply buffer, no buffer to decode into.
//!
//! One `#[test]` only: the counters are process-wide (the in-process
//! daemons' threads are counted too), and a second test running beside it
//! would be as well.

mod counting_alloc;

use counting_alloc::{counted, Counting, LARGE};
use peerstripe::core::{CodingPolicy, PeerStripe, PeerStripeConfig};
use peerstripe::net::{
    GatewayConfig, NodeConfig, NodeEndpoint, NodeServer, NodeService, RingGateway,
};
use peerstripe::overlay::Id;
use peerstripe::sim::{ByteSize, DetRng};

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_whole_file_read_allocates_its_result_once_and_nothing_else_that_is_large() {
    let coding = CodingPolicy::ReedSolomon { data: 5, parity: 3 };
    let mut nodes = Vec::new();
    let mut endpoints = Vec::new();
    for node in 0..8 {
        let name = format!("node-{node}");
        let service = NodeService::new(&NodeConfig::named(&name, ByteSize::mb(64)));
        let server = NodeServer::bind("127.0.0.1:0", service).expect("binding a localhost daemon");
        endpoints.push(NodeEndpoint {
            node,
            id: Id::hash(&name),
            addr: server.local_addr(),
        });
        nodes.push(std::thread::spawn(move || server.run()));
    }
    // Four chunks of 1 MiB: five rows of 209 716 bytes are the chunk and four
    // bytes of padding, so a result reserved at the file's exact size would
    // be outgrown by the last row of the last chunk.
    let chunk = 1usize << 20;
    let config = PeerStripeConfig {
        coding,
        max_chunk_size: Some(ByteSize::bytes(chunk as u64)),
        ..PeerStripeConfig::default()
    };
    let gateway = RingGateway::connect(&endpoints, GatewayConfig::default());
    let mut ps = PeerStripe::new(gateway, config);
    let mut rng = DetRng::new(3);
    let data: Vec<u8> = (0..4 * chunk).map(|_| rng.next_u32() as u8).collect();
    assert!(ps.store_data("f", &data).is_stored());
    let manifest = ps.manifest("f").expect("stored");
    assert_eq!(manifest.chunks.len(), 4, "four chunks");
    assert!(manifest.chunks.iter().all(|c| c.size.as_u64() % 5 != 0));
    assert!(manifest
        .chunks
        .iter()
        .all(|c| c.size.as_u64() / 5 >= LARGE as u64));

    // A buffer reallocated counts as one more large allocation.
    let mut read = None;
    let (large, _, _, _) = counted(|| read = ps.retrieve_data("f"));
    assert_eq!(read.as_deref(), Some(&data[..]));
    assert_eq!(large, 1, "large allocations of a four-chunk read");

    for (node, serving) in nodes.into_iter().enumerate() {
        assert!(ps.backend().shutdown_node(node), "stopping a daemon");
        serving
            .join()
            .expect("a daemon's thread")
            .expect("a daemon's server");
    }
}
