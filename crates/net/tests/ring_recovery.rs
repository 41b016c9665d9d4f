//! End-to-end networked deployment test: the acceptance path of the
//! networked subsystem.
//!
//! Spawns eight real `peerstripe-node` daemon processes on localhost, stores
//! a file through the unchanged `PeerStripe` client + placement + erasure
//! stack over the TCP gateway, kills one daemon with a real signal, reads
//! the file back degraded, runs the repair path, and reads it again.
#![expect(clippy::expect_used, reason = "test helpers fail by panicking")]

use peerstripe_core::{ChunkPlacement, CodingPolicy, FileManifest, PeerStripe, PeerStripeConfig};
use peerstripe_net::{GatewayConfig, LocalRing, RingGateway};
use peerstripe_overlay::NodeRef;
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

#[test]
fn every_gateway_rpc_is_attributed_across_a_real_kill() {
    let mut ring = spawn_ring();
    let mut client = client(&ring);
    let data = test_bytes(128 * 1024);

    assert!(client.store_data(FILE, &data).is_stored());
    assert_eq!(client.retrieve_data(FILE).as_deref(), Some(&data[..]));

    // Scrape every daemon before the kill: SIGKILL destroys the victim's
    // op log, so its entries must be captured while it is still alive.
    let mut node_rids = std::collections::BTreeSet::new();
    for e in ring.endpoints() {
        let stats = client.backend().get_stats(e.node).expect("pre-kill scrape");
        for entry in &stats.op_log {
            if let Some(rid) = entry.request_id {
                node_rids.insert(rid);
            }
        }
    }

    let manifest = client.manifest(FILE).expect("manifests are tracked");
    let victim: NodeRef = (0..NODES)
        .find(|&n| {
            manifest
                .chunks
                .iter()
                .any(|c| c.blocks_on(n).next().is_some())
        })
        .expect("at least one node holds a block");
    ring.kill(victim).expect("killing the victim daemon");

    assert_eq!(client.retrieve_data(FILE).as_deref(), Some(&data[..]));
    let takeover = client.backend_mut().mark_failed(victim).unwrap();
    let report = client.handle_node_failure(victim, &takeover);
    assert_eq!(report.chunks_lost, 0);
    assert_eq!(client.retrieve_data(FILE).as_deref(), Some(&data[..]));

    // Re-scrape the survivors: their logs now also cover the degraded read
    // and the repair traffic.
    for e in ring.endpoints() {
        if e.node != victim {
            let stats = client.backend().get_stats(e.node).expect("survivor scrape");
            for entry in &stats.op_log {
                if let Some(rid) = entry.request_id {
                    node_rids.insert(rid);
                }
            }
        }
    }

    // The join: every successful gateway op-log entry's request id must
    // appear in some node's op log; failed entries are attributed by their
    // error kind (the node never saw them, or died before answering).
    let log = client.backend().op_log();
    assert!(!log.is_empty(), "the run must have logged RPCs");
    let unattributed: Vec<_> = log
        .iter()
        .filter(|e| e.is_ok())
        .filter(|e| !e.request_id.is_some_and(|r| node_rids.contains(&r)))
        .collect();
    assert!(
        unattributed.is_empty(),
        "{} unattributed RPCs, e.g. {:?}",
        unattributed.len(),
        unattributed.first()
    );
    // The kill shows up as error-kind entries, not as silent gaps.
    assert!(
        log.iter().any(|e| !e.is_ok()),
        "RPCs against the killed daemon must appear with an error outcome"
    );
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
        free_total = free_total.saturating_add(fresh.report_of(e.node));
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

/// A daemon that fails to announce itself must not leave the ring's earlier
/// daemons, or itself, running.  A stub stands in for the daemon binary: it
/// logs its pid, then `exec`s the real daemon — except as `node-2`, where it
/// prints a wrong line and sleeps.
#[cfg(unix)]
#[test]
fn a_daemon_that_fails_to_start_takes_the_spawned_ring_down() {
    use std::os::unix::fs::PermissionsExt;

    let dir = std::env::temp_dir().join(format!("peerstripe-ring-leak-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("creating the stub's directory");
    let log = dir.join("pids");
    let stub = dir.join("stub-node");
    let script = format!(
        "#!/bin/sh\necho $$ >> '{log}'\ncase \" $* \" in\n  *\" node-2 \"*) echo 'not listening'; exec sleep 60 ;;\nesac\nexec '{bin}' \"$@\"\n",
        log = log.display(),
        bin = env!("CARGO_BIN_EXE_peerstripe-node"),
    );
    std::fs::write(&stub, script).expect("writing the stub");
    std::fs::set_permissions(&stub, std::fs::Permissions::from_mode(0o755))
        .expect("making the stub executable");

    let spawned = LocalRing::spawn(&stub, 4, ByteSize::mb(8));

    let pids = std::fs::read_to_string(&log).expect("reading the logged pids");
    let pids: Vec<&str> = pids.split_whitespace().collect();
    let leaked: Vec<&str> = pids
        .iter()
        .copied()
        .filter(|pid| signal(pid, "-0"))
        .collect();
    for pid in &leaked {
        signal(pid, "-9");
    }
    let _ = std::fs::remove_dir_all(&dir);

    assert!(spawned.is_err(), "node-2 never announced an address");
    assert_eq!(pids.len(), 3, "node-0, node-1 and the stub as node-2");
    assert_eq!(leaked, Vec::<&str>::new(), "daemons left running");
}

/// Send `pid` the signal `flag` (`-0` probes); true if it was delivered.
#[cfg(unix)]
fn signal(pid: &str, flag: &str) -> bool {
    let kill = std::process::Command::new("kill")
        .args([flag, pid])
        .output();
    kill.is_ok_and(|out| out.status.success())
}
