//! Cluster-wide scraping: every daemon's latest stats and its health.
//!
//! A [`ClusterMonitor`] polls each node in an endpoint table with a
//! `GetStats` frame — a fresh dial per scrape, so the monitor sees exactly
//! what a new client would — and keeps the latest [`NodeStats`] snapshot per
//! node ([`ClusterMonitor::latest`]).
//!
//! Health is judged per node from scrape history: a node that has never
//! answered is **unreachable**; one that answered before but failed its
//! latest scrape is **stale** (it may be briefly overloaded or freshly
//! dead — the distinction matters to a dashboard).  Scraping is read-only by
//! construction: `GetStats` is excluded from node-side instrumentation, so
//! repeated scrapes of an idle ring return byte-identical snapshots — the
//! determinism the monitor tests pin down.

use crate::gateway::NodeEndpoint;
use crate::protocol::{NodeStats, Request, Response};
use crate::server::call;
use peerstripe_overlay::{Id, NodeRef};
use serde::Serialize;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::Duration;

/// Monitor tunables.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Dial timeout and per-scrape socket read/write timeout.
    pub timeout: Duration,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            timeout: Duration::from_secs(5),
        }
    }
}

/// One node's scrape health, as the monitor sees it.
#[derive(Debug, Clone, Serialize)]
pub struct NodeHealth {
    /// The node's reference (its index in the endpoint table).
    pub node: NodeRef,
    /// The node's name under the shared `node-<i>` convention.
    pub name: String,
    /// The node's overlay identifier.
    pub id: Id,
    /// True when the latest scrape round reached the node.
    pub live: bool,
    /// True when no scrape round has ever reached the node.
    pub unreachable: bool,
    /// True when the node answered before but failed its latest scrape.
    pub stale: bool,
    /// Successful scrapes so far.
    pub scrapes: u64,
}

/// Per-node scrape state.
struct ScrapeState {
    endpoint: NodeEndpoint,
    scrapes: u64,
    last_ok: bool,
    latest: Option<NodeStats>,
}

/// Scrapes every daemon's `Stats` and judges each node's health from them.
pub struct ClusterMonitor {
    states: BTreeMap<NodeRef, ScrapeState>,
    timeout: Duration,
    rounds: u64,
}

impl ClusterMonitor {
    /// A monitor over the given endpoints.  No connection is made until the
    /// first [`scrape_round`](ClusterMonitor::scrape_round).
    pub fn new(endpoints: &[NodeEndpoint], config: MonitorConfig) -> ClusterMonitor {
        let states = endpoints
            .iter()
            .map(|ep| {
                (
                    ep.node,
                    ScrapeState {
                        endpoint: *ep,
                        scrapes: 0,
                        last_ok: false,
                        latest: None,
                    },
                )
            })
            .collect();
        ClusterMonitor {
            states,
            timeout: config.timeout,
            rounds: 0,
        }
    }

    /// Scrape one node with a fresh connection.
    fn scrape_one(&self, endpoint: &NodeEndpoint) -> Option<NodeStats> {
        let stream = TcpStream::connect_timeout(&endpoint.addr, self.timeout).ok()?;
        let _ = stream.set_read_timeout(Some(self.timeout));
        let _ = stream.set_write_timeout(Some(self.timeout));
        let mut stream = stream;
        match call(&mut stream, &Request::GetStats) {
            Ok(Response::Stats { stats }) => Some(*stats),
            _ => None,
        }
    }

    /// Scrape every node once; returns how many answered this round.
    pub fn scrape_round(&mut self) -> usize {
        self.rounds += 1;
        let mut reached = 0;
        let endpoints: Vec<NodeEndpoint> = self.states.values().map(|s| s.endpoint).collect();
        for ep in endpoints {
            let result = self.scrape_one(&ep);
            let Some(state) = self.states.get_mut(&ep.node) else {
                continue;
            };
            match result {
                Some(stats) => {
                    state.scrapes += 1;
                    state.last_ok = true;
                    state.latest = Some(stats);
                    reached += 1;
                }
                None => state.last_ok = false,
            }
        }
        reached
    }

    /// Scrape rounds run so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Per-node health, in node order.
    pub fn health(&self) -> Vec<NodeHealth> {
        self.states
            .iter()
            .map(|(&node, state)| NodeHealth {
                node,
                name: format!("node-{node}"),
                id: state.endpoint.id,
                live: state.last_ok,
                unreachable: state.scrapes == 0,
                stale: state.scrapes > 0 && !state.last_ok,
                scrapes: state.scrapes,
            })
            .collect()
    }

    /// Nodes no scrape round has ever reached.
    pub fn unreachable(&self) -> Vec<NodeRef> {
        self.health()
            .into_iter()
            .filter(|h| h.unreachable)
            .map(|h| h.node)
            .collect()
    }

    /// Nodes that answered before but failed their latest scrape.
    pub fn stale(&self) -> Vec<NodeRef> {
        self.health()
            .into_iter()
            .filter(|h| h.stale)
            .map(|h| h.node)
            .collect()
    }

    /// The latest snapshot scraped from a node, if any round reached it.
    pub fn latest(&self, node: NodeRef) -> Option<&NodeStats> {
        self.states.get(&node).and_then(|s| s.latest.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeConfig, NodeService};
    use crate::server::{NodeServer, RunningNode, ServerConfig};
    use peerstripe_sim::ByteSize;

    fn ring_of(n: usize) -> (Vec<RunningNode>, Vec<NodeEndpoint>) {
        let mut nodes = Vec::new();
        let mut endpoints = Vec::new();
        for i in 0..n {
            let name = format!("node-{i}");
            let service = NodeService::new(&NodeConfig::named(&name, ByteSize::mb(16)));
            let running = NodeServer::bind("127.0.0.1:0", service, ServerConfig::default())
                .unwrap()
                .spawn();
            endpoints.push(NodeEndpoint {
                node: i,
                id: Id::hash(&name),
                addr: running.local_addr(),
            });
            nodes.push(running);
        }
        (nodes, endpoints)
    }

    #[test]
    fn two_scrapes_of_an_idle_ring_render_byte_identical_json() {
        let (nodes, endpoints) = ring_of(3);
        let mut monitor = ClusterMonitor::new(&endpoints, MonitorConfig::default());
        let snapshots = |monitor: &ClusterMonitor| -> Vec<String> {
            (0..3)
                .map(|i| serde_json::to_string(monitor.latest(i).unwrap()).unwrap())
                .collect()
        };
        assert_eq!(monitor.scrape_round(), 3);
        let first = snapshots(&monitor);
        assert_eq!(monitor.scrape_round(), 3);
        let second = snapshots(&monitor);
        assert_eq!(first, second, "scraping must not perturb what it reads");
        assert!(monitor.unreachable().is_empty());
        assert!(monitor.stale().is_empty());
        for n in nodes {
            n.stop().unwrap();
        }
    }

    #[test]
    fn dead_nodes_are_flagged_unreachable_or_stale() {
        let (mut nodes, endpoints) = ring_of(3);
        // Node 2 dies before the first round: never scraped => unreachable.
        nodes.remove(2).stop().unwrap();
        let mut monitor = ClusterMonitor::new(&endpoints, MonitorConfig::default());
        assert_eq!(monitor.scrape_round(), 2);
        assert_eq!(monitor.unreachable(), vec![2]);
        assert!(monitor.stale().is_empty());
        // Node 1 dies after answering once => stale, not unreachable.
        nodes.remove(1).stop().unwrap();
        assert_eq!(monitor.scrape_round(), 1);
        assert_eq!(monitor.unreachable(), vec![2]);
        assert_eq!(monitor.stale(), vec![1]);
        let health = monitor.health();
        assert!(health[0].live && health[0].scrapes == 2);
        assert!(!health[1].live && health[1].scrapes == 1);
        for n in nodes {
            n.stop().unwrap();
        }
    }
}
