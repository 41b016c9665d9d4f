//! `repro ring` — the networked deployment harness.
//!
//! [`run_cycle`] is the one store → fetch → stop a holder → degraded fetch
//! → repair → fetch cycle, over any transport; [`run_ring`] drives it
//! against a localhost ring of real `peerstripe-node` processes, killing
//! one with a signal.  After each phase the gateway scrapes every daemon's
//! `GetStats`, so the report holds each phase's work (RPCs by op and
//! outcome, each daemon's objects and bytes) and is also the ring's
//! cluster-health report: per-node reachability and occupancy before the
//! kill and after the repair, and per-op calls, errors and p50 / p99 from
//! both sides of the wire.

use crate::clock::timed;
use crate::Scale;
use peerstripe_core::{CodingPolicy, PeerStripe, PeerStripeConfig};
use peerstripe_net::{
    node_binary, AccountNames, GatewayConfig, LocalRing, NodeStats, RingGateway, Transport,
    WireError,
};
use peerstripe_overlay::{Id, NodeRef};
use peerstripe_sim::{ByteSize, DetRng, TableBuilder};
use peerstripe_telemetry::RegistryExport;
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet};

/// Contributed capacity of every daemon of the ring.
pub const NODE_CAPACITY: ByteSize = ByteSize::mb(64);

/// Parameters of one `repro ring` run.
#[derive(Debug, Clone)]
pub struct RingCmdConfig {
    /// Number of daemons in the ring.
    pub nodes: usize,
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

/// One phase of the cycle and its work: the gateway's RPCs by op and
/// outcome, and each daemon's objects and bytes as the scrape after the
/// phase found them (`None`: the scrape failed).
#[derive(Debug, Clone, Serialize)]
pub struct Phase {
    /// `store`, `fetch`, `degraded fetch` or `repair`.
    pub name: &'static str,
    /// RPC count per `(op, outcome)`, in that order.
    pub rpcs: Vec<((String, String), u64)>,
    /// The nodes the phase's failed RPCs went to, as the gateway's op log
    /// names them, each once and in order.
    pub failed_on: Vec<Option<NodeRef>>,
    /// `(objects, bytes)` per daemon, in node order.
    pub held: Vec<Option<(u64, u64)>>,
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
    /// Wall-clock milliseconds to bring the ring up: every daemon started
    /// and its address announced (0 over a transport that spawns nothing).
    pub spawn_ms: f64,
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
    /// CAT copies the repair path stored afresh for the victim's.
    pub cats_replicated: u64,
    /// Whether every read returned the original bytes.
    pub recovered: bool,
    /// Daemons the scrape round before the kill reached (all of them).
    pub reached_before_kill: usize,
    /// The gateway's per-op rows.
    pub gateway_ops: Vec<OpStat>,
    /// The gateway account's full metrics export (counters + histograms).
    pub metrics: RegistryExport,
    /// Every daemon, in node order: the scrape round before the kill, and
    /// the one after the repair.
    pub node_health: Vec<NodeRow>,
    /// Each phase's work, in cycle order.
    pub phases: Vec<Phase>,
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

/// One scrape round: the `GetStats` answer of each node, in node order.
type Round = Vec<Result<NodeStats, WireError>>;

/// Each node's row from its two scrapes, `before` the kill and `after` the
/// repair; a row's snapshot is the newest answer.
fn node_rows(before: Round, after: Round) -> Vec<NodeRow> {
    let rounds = before.into_iter().zip(after).enumerate();
    rounds
        .map(|(node, (before, after))| {
            let name = format!("node-{node}");
            let health = NodeHealth {
                node,
                id: Id::hash(&name),
                name,
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

/// Phase `name`'s work: the gateway's RPCs after its first `*logged`
/// op-log entries, by op and outcome, and a scrape round of nodes
/// `0..nodes`, which is returned too.
fn phase<T: Transport>(
    gateway: &RingGateway<T>,
    logged: &mut usize,
    nodes: usize,
    name: &'static str,
) -> (Phase, Round) {
    let log = gateway.op_log();
    let (mut rpcs, mut failed_on) = (BTreeMap::new(), BTreeSet::new());
    for e in log.iter().skip(*logged) {
        *rpcs.entry((e.op.clone(), e.outcome.clone())).or_default() += 1;
        if !e.is_ok() {
            failed_on.insert(e.node);
        }
    }
    *logged = log.len();
    let round: Round = (0..nodes).map(|node| gateway.get_stats(node)).collect();
    let held = |s: &Result<NodeStats, _>| s.as_ref().ok().map(|s| (s.objects, s.used.as_u64()));
    let phase = Phase {
        name,
        rpcs: rpcs.into_iter().collect(),
        failed_on: failed_on.into_iter().collect(),
        held: round.iter().map(held).collect(),
    };
    (phase, round)
}

/// Run the store → fetch → stop → degraded fetch → repair → fetch cycle over
/// `gateway`, a ring of `config.nodes` daemons of [`NODE_CAPACITY`] each;
/// `stop_node` takes away the lowest-numbered daemon holding a block.
pub fn run_cycle<T: Transport>(
    gateway: RingGateway<T>,
    stop_node: impl FnOnce(NodeRef),
    config: &RingCmdConfig,
) -> Result<RingReport, String> {
    let mut client = PeerStripe::new(
        gateway,
        PeerStripeConfig {
            coding: CodingPolicy::ReedSolomon { data: 5, parity: 3 },
            ..PeerStripeConfig::default()
        },
    );
    let (name, nodes, mut logged) = ("ring/payload.bin", config.nodes, 0);
    let mut rng = DetRng::new(config.seed);
    let data: Vec<u8> = (0..config.file_size.as_u64())
        .map(|_| rng.next_u64() as u8)
        .collect();

    let (outcome, store_ms) = timed(|| client.store_data(name, &data));
    if !outcome.is_stored() {
        return Err(format!("store failed: {outcome:?}"));
    }
    let (store, _) = phase(client.backend(), &mut logged, nodes, "store");
    let (fetched, fetch_ms) = timed(|| client.retrieve_data(name));
    let whole_ok = fetched.as_deref() == Some(&data[..]);
    // This round is the one before the kill: a SIGKILL takes the victim's
    // op log and counters with it.
    let (fetch, before) = phase(client.backend(), &mut logged, nodes, "fetch");
    let reached_before_kill = before.iter().filter(|s| s.is_ok()).count();

    // Overlay-random placement need not touch every node.
    let manifest = client.manifest(name).ok_or("manifests are tracked")?;
    let victim = manifest.all_blocks().map(|b| b.node).min();
    let victim = victim.ok_or("no node holds any block")?;
    stop_node(victim);

    let (degraded, degraded_fetch_ms) = timed(|| client.retrieve_data(name));
    let degraded_ok = degraded.as_deref() == Some(&data[..]);
    let (degraded, _) = phase(client.backend(), &mut logged, nodes, "degraded fetch");

    let takeover = client.backend_mut().mark_failed(victim);
    let takeover = takeover.ok_or("victim was not a ring member")?;
    let (report, repair_ms) = timed(|| client.handle_node_failure(victim, &takeover));
    let (repair, _) = phase(client.backend(), &mut logged, nodes, "repair");

    let reread = client.retrieve_data(name).as_deref() == Some(&data[..]);
    let recovered = whole_ok && degraded_ok && reread && client.is_file_available(name);
    // The round after the repair: the survivors' logs now also cover the
    // degraded read and the repair; the victim fails it, keeps its pre-kill
    // snapshot and shows as stale.
    let (last, after) = phase(client.backend(), &mut logged, nodes, "fetch");
    let node_health = node_rows(before, after);

    let export = client.backend().export_metrics();
    let gateway_log = client.backend().op_log();
    let unattributed_rpcs = unattributed_count(&gateway_log, &node_health);

    Ok(RingReport {
        nodes,
        file_bytes: config.file_size.as_u64(),
        victim,
        spawn_ms: 0.0,
        store_ms,
        fetch_ms,
        degraded_fetch_ms,
        repair_ms,
        blocks_regenerated: report.blocks_regenerated,
        chunks_lost: report.chunks_lost,
        cats_replicated: report.cats_replicated,
        recovered,
        reached_before_kill,
        gateway_ops: op_stats(&export, &AccountNames::GATEWAY),
        metrics: export,
        node_health,
        phases: vec![store, fetch, degraded, repair, last],
        gateway_rpcs_logged: gateway_log.len() as u64,
        unattributed_rpcs,
    })
}

/// Run [`run_cycle`] against a freshly spawned localhost ring of daemon
/// processes, killing the victim with a signal.
pub fn run_ring(config: &RingCmdConfig) -> Result<RingReport, String> {
    let bin = node_binary().ok_or_else(|| {
        "peerstripe-node binary not found; build it with \
         `cargo build -p peerstripe-net --bin peerstripe-node` \
         or point PEERSTRIPE_NODE_BIN at it"
            .to_string()
    })?;
    let (ring, spawn_ms) = timed(|| LocalRing::spawn(&bin, config.nodes, NODE_CAPACITY));
    let mut ring = ring.map_err(|e| format!("spawning {} daemons: {e}", config.nodes))?;
    let mut killed = Ok(());
    let gateway = ring.gateway(GatewayConfig::default());
    let report = run_cycle(gateway, |victim| killed = ring.kill(victim), config)?;
    killed.map_err(|e| format!("kill: {e}"))?;
    // Shut the survivors down gracefully; the ring's Drop kills the rest.
    let gateway = ring.gateway(GatewayConfig::default());
    for node in (0..config.nodes).filter(|&n| ring.is_running(n)) {
        gateway.shutdown_node(node);
    }
    Ok(RingReport { spawn_ms, ..report })
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
        "  spawn {:.1} ms | store {:.1} ms | fetch {:.1} ms | degraded fetch {:.1} ms | repair {:.1} ms\n",
        report.spawn_ms,
        report.store_ms,
        report.fetch_ms,
        report.degraded_fetch_ms,
        report.repair_ms
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
    out.push_str("\nWork per phase: gateway RPCs by op and outcome, then each daemon's contents\n");
    out + &render_phases(report)
}

/// Each phase's work, then the recovery: the cycle's counts, with no
/// timings, so a run over any transport renders the same bytes.
pub fn render_phases(report: &RingReport) -> String {
    let mut out = String::new();
    for phase in &report.phases {
        out.push_str(&format!("{}\n", phase.name));
        for ((op, outcome), n) in &phase.rpcs {
            out.push_str(&format!("  rpc {op:<12} {outcome:<3} {n:>2}\n"));
        }
        for (node, held) in phase.held.iter().enumerate() {
            let held = held.map_or("down".into(), |(o, b)| format!("{o} objects {b} bytes"));
            out.push_str(&format!("  node-{node} {held}\n"));
        }
    }
    out.push_str(&format!(
        "regenerated {} blocks, lost {} chunks, re-homed {} CAT copies, recovered: {}\n",
        report.blocks_regenerated, report.chunks_lost, report.cats_replicated, report.recovered
    ));
    out
}

/// Machine-readable report (the `--format json` / `--out` artifact).
pub fn render_ring_json(report: &RingReport) -> String {
    serde_json::to_string(report).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_rounds_flag_unreachable_and_stale_nodes() {
        let (wire, gateway) = peerstripe_net::MemWire::ring_of(3, ByteSize::mb(16));
        assert!(gateway.ping(1));
        // Node 2 stops before the first round: never reached.
        wire.stop(2);
        let scrape = || phase(&gateway, &mut 0, 3, "scrape").1;
        let before = scrape();
        let first = before[1].as_ref().unwrap().clone();
        // Node 1 answered once, then stops: stale, on its first snapshot.
        wire.stop(1);
        let after = scrape();
        let rows = node_rows(before, after);

        let flags = |h: &NodeHealth| (h.live, h.unreachable, h.stale, h.scrapes);
        assert_eq!(flags(&rows[0].health), (true, false, false, 2));
        assert_eq!(flags(&rows[1].health), (false, false, true, 1));
        assert_eq!(flags(&rows[2].health), (false, true, false, 0));
        assert_eq!(rows[1].health.id, first.node, "the daemon's own id");
        assert_eq!(rows[1].stats.as_ref(), Some(&first));
        assert!(first.op_log.iter().any(|e| e.op == "ping"));
        assert!(rows[2].stats.is_none() && rows[2].ops.is_empty());
    }
}
