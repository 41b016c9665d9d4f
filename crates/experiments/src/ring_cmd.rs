//! `repro ring` — the networked deployment harness.
//!
//! Spawns a localhost ring of real `peerstripe-node` daemon processes,
//! drives the unchanged `PeerStripe` client + placement + erasure stack
//! against them through the TCP gateway, kills one daemon, and verifies the
//! file survives a degraded read and the repair path.  The gateway scrapes
//! every daemon's `GetStats` once before the kill and once after the repair,
//! so the report is also the ring's cluster-health report: per-node
//! reachability and occupancy, and per-op calls, errors and p50 / p99 from
//! both sides of the wire.

use crate::Scale;
use peerstripe_core::{CodingPolicy, PeerStripe, PeerStripeConfig};
use peerstripe_net::{
    node_binary, AccountNames, GatewayConfig, LocalRing, NodeEndpoint, NodeStats, RingGateway,
    WireError,
};
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_sim::{ByteSize, DetRng, TableBuilder};
use peerstripe_telemetry::RegistryExport;
use serde::Serialize;
use std::collections::BTreeSet;

/// Parameters of one `repro ring` run.
#[derive(Debug, Clone)]
pub struct RingCmdConfig {
    /// Number of daemon processes to spawn.
    pub nodes: usize,
    /// Contributed capacity per daemon.
    pub node_capacity: ByteSize,
    /// Size of the file stored through the gateway.
    pub file_size: ByteSize,
    /// Seed for the file's deterministic contents.
    pub seed: u64,
}

impl RingCmdConfig {
    /// Ring sizing per scale: enough daemons that a (5, 3) Reed-Solomon
    /// chunk always spreads wider than any single failure.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        let (nodes, file_size) = match scale {
            Scale::Small => (8, ByteSize::kb(256)),
            Scale::Medium => (12, ByteSize::mb(1)),
            Scale::Paper => (16, ByteSize::mb(4)),
        };
        RingCmdConfig {
            nodes,
            node_capacity: ByteSize::mb(64),
            file_size,
            seed,
        }
    }
}

/// One operation's calls, errors and latency quantiles, from one side of
/// the wire.
#[derive(Debug, Clone, Serialize)]
pub struct OpStat {
    /// Wire operation name (`store_block`, `fetch_block`, ...).
    pub op: String,
    /// Calls observed.
    pub calls: u64,
    /// Calls that failed.
    pub errors: u64,
    /// Estimated median latency in milliseconds (bucket upper edge).
    pub p50_ms: f64,
    /// Estimated 99th-percentile latency in milliseconds.
    pub p99_ms: f64,
}

/// Per-op rows of an account's metrics export, in op order; ops never
/// called are dropped.
fn op_stats(export: &RegistryExport, names: &AccountNames) -> Vec<OpStat> {
    fn op_of(labels: &[(String, String)]) -> Option<&str> {
        labels
            .iter()
            .find(|(k, _)| k == "op")
            .map(|(_, v)| v.as_str())
    }
    let count = |name: &str, op: &str| -> u64 {
        export
            .counters
            .iter()
            .filter(|c| c.name == name && op_of(&c.labels) == Some(op))
            .map(|c| c.value)
            .sum()
    };
    export
        .counters
        .iter()
        .filter(|c| c.name == names.calls && c.value > 0)
        .filter_map(|c| op_of(&c.labels))
        .map(|op| {
            let latency = export
                .histograms
                .iter()
                .find(|h| h.name == names.latency && op_of(&h.labels) == Some(op));
            let quantile = |q| latency.map_or(0.0, |h| h.quantile(q));
            OpStat {
                op: op.to_string(),
                calls: count(names.calls, op),
                errors: count(names.errors, op),
                p50_ms: quantile(0.5),
                p99_ms: quantile(0.99),
            }
        })
        .collect()
}

/// One daemon's scrape health across the two rounds.
#[derive(Debug, Clone, Serialize)]
pub struct NodeHealth {
    /// The node's reference (its index in the endpoint table).
    pub node: NodeRef,
    /// The node's name under the shared `node-<i>` convention.
    pub name: String,
    /// The node's overlay identifier.
    pub id: Id,
    /// True when the round after the repair reached the node.
    pub live: bool,
    /// True when neither round reached the node.
    pub unreachable: bool,
    /// True when the round before the kill reached the node and the one
    /// after the repair did not.
    pub stale: bool,
    /// Rounds that reached the node.
    pub scrapes: u64,
}

/// One daemon as the last round that reached it saw it.
#[derive(Debug, Clone, Serialize)]
pub struct NodeRow {
    /// Scrape health: live, stale (answered before, not in the latest
    /// round — the victim) or unreachable (never answered).
    pub health: NodeHealth,
    /// Server-side per-op rows of `stats`.
    pub ops: Vec<OpStat>,
    /// The latest snapshot — the victim's is the one taken before the kill;
    /// `None` when no round reached the node.
    pub stats: Option<NodeStats>,
}

/// Everything one `repro ring` run measured.
#[derive(Debug, Clone, Serialize)]
pub struct RingReport {
    /// Daemons spawned.
    pub nodes: usize,
    /// Bytes stored through the gateway.
    pub file_bytes: u64,
    /// Which daemon was killed.
    pub victim: NodeRef,
    /// Wall-clock milliseconds to store the file.
    pub store_ms: f64,
    /// Wall-clock milliseconds to read it back with all daemons live.
    pub fetch_ms: f64,
    /// Wall-clock milliseconds to read it back with the victim dead.
    pub degraded_fetch_ms: f64,
    /// Wall-clock milliseconds for the repair path.
    pub repair_ms: f64,
    /// Blocks the repair path regenerated.
    pub blocks_regenerated: u64,
    /// Chunks the repair path could not recover (must be 0).
    pub chunks_lost: u64,
    /// Whether every read returned the original bytes.
    pub recovered: bool,
    /// Daemons the scrape round before the kill reached (all of them).
    pub reached_before_kill: usize,
    /// The gateway's per-op rows.
    pub gateway_ops: Vec<OpStat>,
    /// The gateway account's full metrics export (counters + histograms).
    pub metrics: RegistryExport,
    /// Every daemon, in node order: one scrape round before the kill, one
    /// after the repair.
    pub node_health: Vec<NodeRow>,
    /// RPCs the gateway logged (shutdowns excluded by construction).
    pub gateway_rpcs_logged: u64,
    /// Successful gateway RPCs whose request id joins no node op-log entry.
    /// Must be 0: every RPC is attributed either by a node-side log entry or
    /// by its own error kind.
    pub unattributed_rpcs: u64,
}

impl RingReport {
    /// Names of the nodes the scrapes flag: never reached, or a survivor
    /// that stopped answering.  Only the victim may be stale.
    pub fn unhealthy_nodes(&self) -> Vec<&str> {
        self.node_health
            .iter()
            .map(|n| &n.health)
            .filter(|h| h.unreachable || (h.stale && h.node != self.victim))
            .map(|h| h.name.as_str())
            .collect()
    }
}

/// Count successful gateway op-log entries whose request id appears in no
/// node op log — the networked analogue of the unattributed-loss check.
fn unattributed_count(gateway_log: &[peerstripe_net::OpLogEntry], nodes: &[NodeRow]) -> u64 {
    let node_rids: BTreeSet<u64> = nodes
        .iter()
        .filter_map(|n| n.stats.as_ref())
        .flat_map(|s| s.op_log.iter().filter_map(|e| e.request_id))
        .collect();
    gateway_log
        .iter()
        .filter(|e| e.is_ok())
        .filter(|e| !e.request_id.is_some_and(|r| node_rids.contains(&r)))
        .count() as u64
}

/// One scrape round: every endpoint's `GetStats` through the gateway.
fn scrape(gateway: &RingGateway, endpoints: &[NodeEndpoint]) -> Vec<Result<NodeStats, WireError>> {
    endpoints
        .iter()
        .map(|e| gateway.get_stats(e.node))
        .collect()
}

/// Each node's row from its two scrapes, `before` the kill and `after` the
/// repair (one per endpoint, in endpoint order); a row's snapshot is the
/// newest answer.
fn node_rows(
    endpoints: &[NodeEndpoint],
    before: Vec<Result<NodeStats, WireError>>,
    after: Vec<Result<NodeStats, WireError>>,
) -> Vec<NodeRow> {
    endpoints
        .iter()
        .zip(before.into_iter().zip(after))
        .map(|(e, (before, after))| {
            let health = NodeHealth {
                node: e.node,
                name: format!("node-{}", e.node),
                id: e.id,
                live: after.is_ok(),
                unreachable: before.is_err() && after.is_err(),
                stale: before.is_ok() && after.is_err(),
                scrapes: u64::from(before.is_ok()) + u64::from(after.is_ok()),
            };
            let stats = after.or(before).ok();
            NodeRow {
                ops: stats
                    .as_ref()
                    .map_or_else(Vec::new, |s| op_stats(&s.metrics, &AccountNames::NODE)),
                health,
                stats,
            }
        })
        .collect()
}

/// Milliseconds elapsed while running `f`, paired with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    #[expect(
        clippy::disallowed_methods,
        reason = "the ring harness measures real store/fetch latency on live TCP daemons"
    )]
    let start = std::time::Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64() * 1e3)
}

/// Deterministic file contents for `seed`.
fn file_bytes(size: ByteSize, seed: u64) -> Vec<u8> {
    let mut rng = DetRng::new(seed);
    (0..size.as_u64()).map(|_| rng.next_u64() as u8).collect()
}

/// Run the full store → kill → degraded read → repair → read cycle against
/// a freshly spawned localhost ring.
pub fn run_ring(config: &RingCmdConfig) -> Result<RingReport, String> {
    let bin = node_binary().ok_or_else(|| {
        "peerstripe-node binary not found; build it with \
         `cargo build -p peerstripe-net --bin peerstripe-node` \
         or point PEERSTRIPE_NODE_BIN at it"
            .to_string()
    })?;
    let mut ring = LocalRing::spawn(&bin, config.nodes, config.node_capacity)
        .map_err(|e| format!("spawning {} daemons: {e}", config.nodes))?;
    let gateway = ring.gateway(GatewayConfig::default());
    let mut client = PeerStripe::new(
        gateway,
        PeerStripeConfig {
            coding: CodingPolicy::ReedSolomon { data: 5, parity: 3 },
            ..PeerStripeConfig::default()
        },
    );

    let name = "ring/payload.bin";
    let data = file_bytes(config.file_size, config.seed);

    let (outcome, store_ms) = timed(|| client.store_data(name, &data));
    if !outcome.is_stored() {
        return Err(format!("store failed: {outcome:?}"));
    }
    let (fetched, fetch_ms) = timed(|| client.retrieve_data(name));
    let whole_ok = fetched.as_deref() == Some(&data[..]);

    // Kill a daemon that holds blocks of the file (overlay-random placement
    // need not touch every node).
    let victim = {
        let manifest = client
            .manifest(name)
            .ok_or("manifest tracking is required")?;
        (0..config.nodes)
            .find(|&n| {
                manifest
                    .chunks
                    .iter()
                    .any(|c| c.blocks_on(n).next().is_some())
            })
            .ok_or("no node holds any block")?
    };
    // One scrape round before the kill: the SIGKILL takes the victim's op
    // log and counters with it, so its server-side story must be captured
    // while it is still alive.
    let endpoints = ring.endpoints();
    let before = scrape(client.backend(), &endpoints);
    let reached_before_kill = before.iter().filter(|s| s.is_ok()).count();
    ring.kill(victim).map_err(|e| format!("kill: {e}"))?;

    let (degraded, degraded_fetch_ms) = timed(|| client.retrieve_data(name));
    let degraded_ok = degraded.as_deref() == Some(&data[..]);

    let takeover = client
        .backend_mut()
        .mark_failed(victim)
        .ok_or("victim was not a ring member")?;
    let (report, repair_ms) = timed(|| client.handle_node_failure(victim, &takeover));

    let (reread, _) = timed(|| client.retrieve_data(name));
    let recovered = whole_ok && degraded_ok && reread.as_deref() == Some(&data[..]);

    // One round after the repair: the survivors' logs now also cover the
    // degraded read and the repair; the victim fails it, keeps its pre-kill
    // snapshot and shows as stale.
    let after = scrape(client.backend(), &endpoints);
    let node_health = node_rows(&endpoints, before, after);

    let export = client.backend().export_metrics();
    let gateway_log = client.backend().op_log();
    let unattributed_rpcs = unattributed_count(&gateway_log, &node_health);

    // Gracefully shut the survivors down (the ring's Drop kills whatever is
    // left).
    for e in &endpoints {
        if e.node != victim {
            client.backend().shutdown_node(e.node);
        }
    }

    Ok(RingReport {
        nodes: config.nodes,
        file_bytes: config.file_size.as_u64(),
        victim,
        store_ms,
        fetch_ms,
        degraded_fetch_ms,
        repair_ms,
        blocks_regenerated: report.blocks_regenerated,
        chunks_lost: report.chunks_lost,
        recovered,
        reached_before_kill,
        gateway_ops: op_stats(&export, &AccountNames::GATEWAY),
        metrics: export,
        node_health,
        gateway_rpcs_logged: gateway_log.len() as u64,
        unattributed_rpcs,
    })
}

/// A node's scrape status, as the report prints it.
fn status(health: &NodeHealth) -> &'static str {
    if health.unreachable {
        "unreachable"
    } else if health.stale {
        "stale"
    } else {
        "live"
    }
}

/// Human-readable report.
pub fn render_ring_text(report: &RingReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "networked ring: {} daemons, {} file, victim node {}\n",
        report.nodes,
        ByteSize::bytes(report.file_bytes),
        report.victim
    ));
    out.push_str(&format!(
        "  store {:.1} ms | fetch {:.1} ms | degraded fetch {:.1} ms | repair {:.1} ms\n",
        report.store_ms, report.fetch_ms, report.degraded_fetch_ms, report.repair_ms
    ));
    out.push_str(&format!(
        "  regenerated {} blocks, lost {} chunks, recovered: {}\n",
        report.blocks_regenerated, report.chunks_lost, report.recovered
    ));
    out.push_str(&format!(
        "  {} of {} daemons reached before the kill; {} gateway RPCs logged, {} unattributed\n\n",
        report.reached_before_kill,
        report.nodes,
        report.gateway_rpcs_logged,
        report.unattributed_rpcs
    ));

    let mut nodes = TableBuilder::new(
        "Daemons after the repair (the victim as scraped before the kill)",
        &[
            "node", "status", "used", "capacity", "objects", "reqs", "errors",
        ],
    );
    let mut ops = TableBuilder::new(
        "Per-op RPCs: the gateway, then each daemon's server side",
        &["side", "op", "calls", "errors", "p50 ms", "p99 ms"],
    );
    let mut op_rows = |side: &str, stats: &[OpStat]| {
        for s in stats {
            ops.row(&[
                side.to_string(),
                s.op.clone(),
                s.calls.to_string(),
                s.errors.to_string(),
                format!("{:.3}", s.p50_ms),
                format!("{:.3}", s.p99_ms),
            ]);
        }
    };
    op_rows("gateway", &report.gateway_ops);
    for row in &report.node_health {
        let mut cells = vec![row.health.name.clone(), status(&row.health).to_string()];
        match &row.stats {
            Some(s) => {
                let sum = |name: &str| -> u64 {
                    s.metrics
                        .counters
                        .iter()
                        .filter(|c| c.name == name)
                        .map(|c| c.value)
                        .sum()
                };
                cells.extend([
                    s.used.to_string(),
                    s.capacity.to_string(),
                    s.objects.to_string(),
                    sum(AccountNames::NODE.calls).to_string(),
                    sum(AccountNames::NODE.errors).to_string(),
                ]);
            }
            None => cells.extend(std::iter::repeat_n("-".to_string(), 5)),
        }
        nodes.row(&cells);
        op_rows(&row.health.name, &row.ops);
    }
    out.push_str(&nodes.render());
    out.push('\n');
    out.push_str(&ops.render());
    out
}

/// Machine-readable report (the `--format json` / `--out` artifact).
pub fn render_ring_json(report: &RingReport) -> String {
    serde_json::to_string(report).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Where each column of a rendered table line starts: after a run of
    /// two or more spaces (a cell may hold a single space, `51.21 KB`).
    fn column_starts(line: &str) -> Vec<usize> {
        let b = line.as_bytes();
        (0..b.len())
            .filter(|&i| {
                b[i] != b' ' && (i == 0 || (i >= 2 && b[i - 1] == b' ' && b[i - 2] == b' '))
            })
            .collect()
    }

    #[test]
    fn scrape_rounds_flag_unreachable_and_stale_nodes() {
        use peerstripe_net::{NodeConfig, NodeServer, NodeService};
        let mut nodes = Vec::new();
        let mut endpoints = Vec::new();
        for node in 0..3 {
            let name = format!("node-{node}");
            let service = NodeService::new(&NodeConfig::named(&name, ByteSize::mb(16)));
            let running = NodeServer::bind("127.0.0.1:0", service).unwrap().spawn();
            endpoints.push(NodeEndpoint {
                node,
                id: Id::hash(&name),
                addr: running.local_addr(),
            });
            nodes.push(running);
        }
        let gateway = RingGateway::connect(&endpoints, GatewayConfig::default());
        assert!(gateway.ping(1));
        // Node 2 stops before the first round: never reached.
        nodes.remove(2).stop().unwrap();
        let before = scrape(&gateway, &endpoints);
        let first = before[1].as_ref().unwrap().clone();
        // Node 1 answered once, then stops: stale, on its first snapshot.
        nodes.remove(1).stop().unwrap();
        let after = scrape(&gateway, &endpoints);
        let rows = node_rows(&endpoints, before, after);

        let flags = |h: &NodeHealth| (h.live, h.unreachable, h.stale, h.scrapes);
        assert_eq!(flags(&rows[0].health), (true, false, false, 2));
        assert_eq!(flags(&rows[1].health), (false, false, true, 1));
        assert_eq!(flags(&rows[2].health), (false, true, false, 0));
        assert_eq!(rows[1].stats.as_ref(), Some(&first));
        assert!(first.op_log.iter().any(|e| e.op == "ping"));
        assert!(rows[2].stats.is_none() && rows[2].ops.is_empty());
        for n in nodes {
            n.stop().unwrap();
        }
    }

    #[test]
    fn small_ring_stores_and_recovers() {
        if node_binary().is_none() {
            // The daemon binary is built by `cargo build -p peerstripe-net`;
            // without it there is nothing to spawn.
            eprintln!("skipping: peerstripe-node binary not built");
            return;
        }
        let report = run_ring(&RingCmdConfig::at_scale(Scale::Small, 42)).unwrap();
        assert!(report.recovered);
        assert_eq!(report.chunks_lost, 0);
        assert!(report.blocks_regenerated > 0);
        assert!(report.gateway_rpcs_logged > 0);
        // Every logged RPC joins a node op-log entry by request id (or failed
        // with an error kind).
        assert_eq!(report.unattributed_rpcs, 0);

        // Cluster health: every daemon answered before the kill; afterwards
        // exactly the victim is stale, holding its pre-kill op log.
        assert_eq!(report.reached_before_kill, report.nodes);
        assert_eq!(report.node_health.len(), report.nodes);
        assert!(report.unhealthy_nodes().is_empty());
        for row in &report.node_health {
            let h = &row.health;
            assert!(!h.unreachable, "{}", h.name);
            assert_eq!(h.stale, h.node == report.victim, "{}", h.name);
            assert_eq!(h.scrapes, if h.stale { 1 } else { 2 }, "{}", h.name);
            let stats = row.stats.as_ref().expect("every node was scraped");
            if h.stale {
                assert!(!stats.op_log.is_empty(), "the victim's pre-kill op log");
            }
        }

        // Per-op rows on both sides of the wire saw the stores; quantiles
        // come from the shared bucket edges.
        let stored = |ops: &[OpStat]| ops.iter().any(|r| r.op == "store_block" && r.calls > 0);
        assert!(stored(&report.gateway_ops));
        assert!(report.node_health.iter().any(|n| stored(&n.ops)));
        for row in report
            .gateway_ops
            .iter()
            .chain(report.node_health.iter().flat_map(|n| &n.ops))
        {
            assert!(row.p50_ms <= row.p99_ms, "{row:?}");
        }

        let json = render_ring_json(&report);
        assert!(json.contains("gateway_rpc_latency_ms"), "{json}");
        assert!(json.contains("node_requests_total"), "{json}");
        assert!(json.contains("\"stale\":true"), "{json}");

        // Both tables are aligned: every row starts its columns where the
        // header does.
        let text = render_ring_text(&report);
        let lines: Vec<&str> = text.lines().collect();
        let mut tables = 0;
        for (i, line) in lines.iter().enumerate() {
            if !line.starts_with("---") {
                continue;
            }
            tables += 1;
            let header = column_starts(lines[i - 1]);
            let rows: Vec<&&str> = lines[i + 1..]
                .iter()
                .take_while(|l| !l.is_empty())
                .collect();
            assert!(!rows.is_empty(), "{text}");
            for row in rows {
                assert_eq!(column_starts(row), header, "{row}\n{text}");
            }
        }
        assert_eq!(tables, 2, "{text}");
    }
}
