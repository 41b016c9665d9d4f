//! End-to-end networked deployment test: the acceptance path of the
//! networked subsystem.
//!
//! Spawns eight real `peerstripe-node` daemon processes on localhost, stores
//! a file through the unchanged `PeerStripe` client + placement + erasure
//! stack over the TCP gateway, kills one daemon with a real signal, reads
//! the file back degraded, runs the repair path, and reads it again.
#![expect(clippy::expect_used, reason = "test helpers fail by panicking")]

use peerstripe_core::{
    ChunkPlacement, CodingPolicy, FileManifest, ObjectName, PeerStripe, PeerStripeConfig,
    StorageBackend,
};
use peerstripe_net::{GatewayConfig, LocalRing, RingGateway};
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_placement::ClusterView;
use peerstripe_sim::{ByteSize, DetRng};
use std::path::Path;

const NODES: usize = 8;
const FILE: &str = "trace/alpha.bin";

fn spawn_ring() -> LocalRing {
    let bin = Path::new(env!("CARGO_BIN_EXE_peerstripe-node"));
    LocalRing::spawn(bin, NODES, ByteSize::mb(64)).expect("spawning localhost daemons")
}

fn client(ring: &LocalRing) -> PeerStripe<RingGateway> {
    let gateway = ring.gateway(GatewayConfig::default());
    PeerStripe::new(
        gateway,
        PeerStripeConfig {
            // 5+3 Reed-Solomon: every chunk spreads over all 8 nodes, so any
            // single kill loses exactly one block per chunk and stays three
            // losses inside the recovery margin.
            coding: CodingPolicy::ReedSolomon { data: 5, parity: 3 },
            ..PeerStripeConfig::default()
        },
    )
}

fn test_bytes(len: usize) -> Vec<u8> {
    let mut rng = DetRng::new(42);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// The size of every placed block, chunk by chunk, in manifest order.
fn block_sizes(manifest: &FileManifest) -> Vec<Vec<ByteSize>> {
    let sizes = |c: &ChunkPlacement| c.blocks.iter().map(|b| b.size).collect();
    manifest.chunks.iter().map(sizes).collect()
}

#[test]
fn file_survives_a_real_node_kill_via_degraded_read_and_repair() {
    let mut ring = spawn_ring();
    let mut client = client(&ring);
    let data = test_bytes(256 * 1024);

    assert!(client.store_data(FILE, &data).is_stored());
    assert_eq!(client.retrieve_data(FILE).as_deref(), Some(&data[..]));

    // Kill a daemon that holds two blocks of one chunk (overlay-random
    // placement on eight nodes collocates some) and no more of any chunk than
    // the code tolerates losing: repair must then rebuild two placements of
    // one chunk.  The gateway still routes to it until the failure is
    // declared.
    let manifest = client.manifest(FILE).expect("manifests are tracked");
    let held = |n: NodeRef| manifest.chunks.iter().map(move |c| c.blocks_on(n).count());
    let victim: NodeRef = (0..NODES)
        .find(|&n| held(n).any(|h| h == 2) && held(n).all(|h| h <= 3))
        .expect("some node holds two blocks of a chunk");
    let sizes_before = block_sizes(manifest);
    ring.kill(victim).expect("killing the victim daemon");
    assert!(!ring.is_running(victim));

    // Degraded read: fetches to the dead node fail over TCP, and the erasure
    // decoder reconstructs every chunk from the surviving blocks.
    assert_eq!(
        client.retrieve_data(FILE).as_deref(),
        Some(&data[..]),
        "degraded read with one daemon down"
    );

    // Declare the failure and run the repair path: lost blocks are
    // regenerated from survivors and re-placed on live daemons.
    let takeover = client
        .backend_mut()
        .mark_failed(victim)
        .expect("victim was a ring member");
    let report = client.handle_node_failure(victim, &takeover);
    assert_eq!(report.chunks_lost, 0, "no chunk may be unrecoverable");
    assert!(
        report.blocks_regenerated > 0,
        "the victim held blocks, so repair must regenerate some"
    );

    // Post-repair the file reads back whole, and availability agrees.
    assert_eq!(client.retrieve_data(FILE).as_deref(), Some(&data[..]));
    assert!(client.is_file_available(FILE));

    // Every replacement took its lost block's place and is one block's
    // worth: no empty object, none carrying two placements' codec blocks.
    let manifest = client.manifest(FILE).expect("manifests are tracked");
    assert!(manifest.all_blocks().all(|b| b.node != victim));
    assert_eq!(block_sizes(manifest), sizes_before);

    // The gateway's telemetry saw the whole story: store/fetch RPCs plus the
    // errors from talking to the killed daemon.
    let export = client.backend().export_metrics();
    let fetches: u64 = export
        .counters
        .iter()
        .filter(|c| {
            c.name == "gateway_rpc_total"
                && c.labels
                    .iter()
                    .any(|(k, v)| k == "op" && v == "fetch_block")
        })
        .map(|c| c.value)
        .sum();
    let errors: u64 = export
        .counters
        .iter()
        .filter(|c| c.name == "gateway_rpc_errors")
        .map(|c| c.value)
        .sum();
    assert!(fetches > 0, "fetch RPCs must be counted");
    assert!(errors > 0, "RPCs against the killed daemon must be counted");
}

/// Every CAT holder of every file answers a fetch of `file.CAT` with the
/// CAT's size, and holds none of them twice.
fn assert_cat_copies_answer(client: &PeerStripe<RingGateway>) {
    for manifest in client.manifests().iter() {
        let name = ObjectName::cat(manifest.name.clone());
        assert_eq!(manifest.cat_nodes.len(), 2, "{name}: primary and replica");
        assert_ne!(manifest.cat_nodes[0], manifest.cat_nodes[1]);
        for &node in &manifest.cat_nodes {
            let copy = client.backend().fetch_block(node, &name);
            assert_eq!(
                copy.map(|b| b.size),
                Some(manifest.cat_size()),
                "node {node} answers to {name}"
            );
        }
    }
}

#[test]
fn cat_copies_answer_to_their_name_and_are_rehomed_on_a_real_kill() {
    let mut ring = spawn_ring();
    let mut client = client(&ring);
    let files: Vec<(String, Vec<u8>)> = (0..6)
        .map(|i| (format!("trace/cat-{i}.bin"), test_bytes(16 * 1024 + i)))
        .collect();
    for (name, data) in &files {
        assert!(client.store_data(name, data).is_stored());
    }
    assert_cat_copies_answer(&client);

    // Kill a CAT holder that no chunk needs more than the code tolerates.
    let holds_cat = |n: NodeRef| {
        let manifests = client.manifests().iter();
        manifests.filter(|m| m.cat_nodes.contains(&n)).count() as u64
    };
    let safe = |n: NodeRef| {
        let chunks = client.manifests().iter().flat_map(|m| m.chunks.iter());
        chunks.map(|c| c.blocks_on(n).count()).all(|held| held <= 3)
    };
    let victim: NodeRef = (0..NODES)
        .find(|&n| holds_cat(n) > 0 && safe(n))
        .expect("some safe node holds a CAT copy");
    let rehomed = holds_cat(victim);
    ring.kill(victim).expect("killing the victim daemon");
    let takeover = client
        .backend_mut()
        .mark_failed(victim)
        .expect("victim was a ring member");
    let report = client.handle_node_failure(victim, &takeover);
    assert_eq!(report.chunks_lost, 0);
    assert_eq!(report.cats_replicated, rehomed);

    // The fresh copies are on live daemons (the dead one answers no
    // fetch), under the name they answer to.
    assert_cat_copies_answer(&client);
    for (name, data) in &files {
        assert_eq!(client.retrieve_data(name).as_deref(), Some(&data[..]));
    }
}

#[test]
fn surviving_daemons_hold_the_regenerated_bytes() {
    let mut ring = spawn_ring();
    let mut client = client(&ring);
    let data = test_bytes(64 * 1024);

    assert!(client.store_data(FILE, &data).is_stored());
    let victim: NodeRef = 0;
    ring.kill(victim).expect("killing the victim daemon");
    let takeover = client.backend_mut().mark_failed(victim).unwrap();
    client.handle_node_failure(victim, &takeover);

    // A fresh gateway over only the survivors (no state carried over) can
    // still assemble the file: the regenerated blocks live on real daemons,
    // not in any client-side cache.
    let survivors: Vec<_> = ring
        .endpoints()
        .into_iter()
        .filter(|e| e.node != victim)
        .collect();
    drop(client);
    let fresh = RingGateway::connect(&survivors, GatewayConfig::default());
    let mut live = 0;
    let mut free_total = ByteSize::ZERO;
    for e in &survivors {
        if fresh.ping(e.node) {
            live += 1;
        }
        free_total += fresh.report_of(e.node);
    }
    assert_eq!(live, NODES - 1);
    // With nothing stored the survivors would report their full contributed
    // capacity; the stored + regenerated blocks eat into it.
    let full = ByteSize::mb(64 * (NODES as u64 - 1));
    assert!(
        free_total < full,
        "survivors must hold block bytes ({free_total} free of {full})"
    );
}

/// Each endpoint is the daemon its id names: the announcement read for
/// member `i` is `node-<i>`'s, whatever order the daemons came up in.
#[test]
fn every_endpoint_is_the_daemon_its_id_names() {
    let ring = spawn_ring();
    let endpoints = ring.endpoints();
    let gateway = ring.gateway(GatewayConfig::default());
    assert_eq!(endpoints.len(), NODES);
    let addrs: std::collections::BTreeSet<_> = endpoints.iter().map(|e| e.addr).collect();
    assert_eq!(
        addrs.len(),
        NODES,
        "every daemon listens on its own address"
    );
    for (i, e) in endpoints.iter().enumerate() {
        let id = Id::hash(&format!("node-{i}"));
        assert_eq!((e.node, e.id), (i, id));
        let stats = gateway.get_stats(i).expect("scraping the daemon");
        assert_eq!(stats.node, id, "the daemon at {} is node-{i}", e.addr);
    }
}

/// A daemon that fails to announce itself must not leave any daemon of the
/// ring running — those started before it, itself, or those started after
/// it.  A stub stands in for the daemon binary: it logs `pid name`, then
/// `exec`s the real daemon — except as `node-2`, where it waits (up to 5 s)
/// until `node-3` has logged, prints a wrong line and sleeps.
#[cfg(unix)]
#[test]
fn a_daemon_that_fails_to_start_takes_the_spawned_ring_down() {
    use std::os::unix::fs::PermissionsExt;

    let dir = std::env::temp_dir().join(format!("peerstripe-ring-leak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the stub's directory");
    let log = dir.join("pids");
    let stub = dir.join("stub-node");
    let script = format!(
        r#"#!/bin/sh
for arg in "$@"; do case $arg in node-*) name=$arg ;; esac; done
echo "$$ $name" >> '{log}'
if [ "$name" = node-2 ]; then
  tries=0
  while ! grep -q ' node-3$' '{log}' && [ $tries -lt 50 ]; do
    sleep 0.1; tries=$((tries + 1))
  done
  echo 'not listening'; exec sleep 60
fi
exec '{bin}' "$@"
"#,
        log = log.display(),
        bin = env!("CARGO_BIN_EXE_peerstripe-node"),
    );
    std::fs::write(&stub, script).expect("writing the stub");
    std::fs::set_permissions(&stub, std::fs::Permissions::from_mode(0o755))
        .expect("making the stub executable");

    let spawned = LocalRing::spawn(&stub, 4, ByteSize::mb(8));

    let logged = std::fs::read_to_string(&log).expect("reading the logged pids");
    let started: Vec<(&str, &str)> = logged.lines().filter_map(|l| l.split_once(' ')).collect();
    let leaked: Vec<&str> = started
        .iter()
        .map(|&(pid, _)| pid)
        .filter(|pid| signal(pid, "-0"))
        .collect();
    for pid in &leaked {
        signal(pid, "-9");
    }
    let _ = std::fs::remove_dir_all(&dir);

    let error = spawned.err().expect("node-2 never announced an address");
    let mut names: Vec<&str> = started.iter().map(|&(_, name)| name).collect();
    names.sort_unstable();
    assert_eq!(
        names,
        ["node-0", "node-1", "node-2", "node-3"],
        "every daemon started, node-3 too"
    );
    assert_eq!(leaked, Vec::<&str>::new(), "daemons left running");
    assert!(
        error.to_string().starts_with("node-2: "),
        "the error names its daemon: {error}"
    );
}

/// Send `pid` the signal `flag` (`-0` probes); true if it was delivered.
#[cfg(unix)]
fn signal(pid: &str, flag: &str) -> bool {
    let kill = std::process::Command::new("kill")
        .args([flag, pid])
        .output();
    kill.is_ok_and(|out| out.status.success())
}
