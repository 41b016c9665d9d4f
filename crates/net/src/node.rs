//! The per-node daemon's service logic: a [`NodeService`] owns one
//! [`StorageNode`] — the same node-local store the simulator gives every
//! cluster member — and answers the wire protocol's requests against it.
//!
//! Keeping the service separate from the TCP plumbing means the exact same
//! request handling is exercised in-process by unit tests and over real
//! sockets by the daemon.
//!
//! A node's one account of itself is its [`NodeStats`]: capacity, used and
//! objects from the store, per-op request counters, latency histograms and
//! typed-error counters from its registry, and a bounded op log whose
//! per-request durations are the record of slow requests.

use crate::gateway::{LATENCY_BUCKETS_MS, NODE_OP_LOG_CAPACITY};
use crate::protocol::{NodeStats, OpLogEntry, RemoteError, Request, Response};
use peerstripe_core::{NodeStoreError, StoredObject};
use peerstripe_overlay::Id;
use peerstripe_sim::ByteSize;
use peerstripe_telemetry::{CounterHandle, HistogramHandle, MetricsRegistry};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// The wire operations a node instruments, as metric label values.
/// `get_stats` is deliberately absent: a stats scrape must not perturb the
/// stats it reads, so repeated scrapes of an idle node are byte-identical.
const OPS: &[&str] = &[
    "ping",
    "get_capacity",
    "store_block",
    "fetch_block",
    "remove_block",
    "shutdown",
];

/// The typed-error kinds a node counts, pre-registered so the registry's
/// shape does not depend on which errors a run happened to hit.
const ERROR_KINDS: &[&str] = &["insufficient_space", "already_stored", "bad_request"];

/// Configuration of one node daemon.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The node's overlay identifier.
    pub id: Id,
    /// Contributed capacity.
    pub capacity: ByteSize,
}

impl NodeConfig {
    /// A node named by hashing `name` into the id space — the convention the
    /// localhost ring harness and the daemon CLI share, so a gateway can
    /// recompute every daemon's id from its index.
    pub fn named(name: &str, capacity: ByteSize) -> Self {
        NodeConfig {
            id: Id::hash(name),
            capacity,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct OpHandles {
    total: CounterHandle,
    latency: HistogramHandle,
}

/// The request handler a daemon serves: one node's storage and identity,
/// plus its own observability: a metrics registry (per-op counters and
/// latency histograms, typed-error counters) and a bounded log of recent
/// requests.
#[derive(Debug)]
pub struct NodeService {
    id: Id,
    store: peerstripe_core::StorageNode,
    metrics: MetricsRegistry,
    op_handles: BTreeMap<&'static str, OpHandles>,
    error_handles: BTreeMap<&'static str, CounterHandle>,
    op_log: VecDeque<OpLogEntry>,
}

impl NodeService {
    /// Create a service with an empty store.
    pub fn new(config: &NodeConfig) -> Self {
        let mut metrics = MetricsRegistry::new();
        let mut op_handles = BTreeMap::new();
        for op in OPS {
            op_handles.insert(
                *op,
                OpHandles {
                    total: metrics.counter("node_requests_total", &[("op", op)]),
                    latency: metrics.histogram(
                        "node_request_latency_ms",
                        &[("op", op)],
                        LATENCY_BUCKETS_MS,
                    ),
                },
            );
        }
        let mut error_handles = BTreeMap::new();
        for kind in ERROR_KINDS {
            error_handles.insert(
                *kind,
                metrics.counter("node_errors_total", &[("kind", kind)]),
            );
        }
        NodeService {
            id: config.id,
            store: peerstripe_core::StorageNode::new(config.capacity, true),
            metrics,
            op_handles,
            error_handles,
            op_log: VecDeque::new(),
        }
    }

    /// The wire label of a request, for metrics and the op log.
    fn op_name(req: &Request) -> &'static str {
        match req {
            Request::Ping => "ping",
            Request::GetCapacity => "get_capacity",
            Request::StoreBlock { .. } => "store_block",
            Request::FetchBlock { .. } => "fetch_block",
            Request::RemoveBlock { .. } => "remove_block",
            Request::Shutdown => "shutdown",
            Request::GetStats => "get_stats",
        }
    }

    /// The op-log outcome string of a response: `"ok"` or the error kind.
    fn outcome_of(resp: &Response) -> &'static str {
        match resp {
            Response::Error(RemoteError::InsufficientSpace) => "insufficient_space",
            Response::Error(RemoteError::AlreadyStored) => "already_stored",
            Response::Error(RemoteError::BadRequest { .. }) => "bad_request",
            _ => "ok",
        }
    }

    /// Snapshot the node's observability state (the `Stats` reply body).
    pub fn stats(&self) -> NodeStats {
        NodeStats {
            node: self.id,
            capacity: self.store.capacity(),
            used: self.store.used(),
            objects: self.store.object_count(),
            metrics: self.metrics.export(),
            op_log: self.op_log.iter().cloned().collect(),
        }
    }

    /// Answer one request (untraced).
    pub fn handle(&mut self, req: Request) -> Response {
        self.handle_traced(req, None)
    }

    /// Answer one request carrying an optional request id, recording per-op
    /// metrics and an op-log entry.  `GetStats` is answered without touching
    /// either, so a scrape observes the node instead of perturbing it.
    /// Never fails: malformed or refused operations produce typed
    /// [`Response::Error`] replies.
    pub fn handle_traced(&mut self, req: Request, rid: Option<u64>) -> Response {
        if matches!(req, Request::GetStats) {
            return Response::Stats {
                stats: Box::new(self.stats()),
            };
        }
        let op = Self::op_name(&req);
        #[expect(
            clippy::disallowed_methods,
            reason = "node-side request latency is real service time on the network path"
        )]
        let start = std::time::Instant::now();
        let resp = self.handle_inner(req);
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        let outcome = Self::outcome_of(&resp);
        if let Some(h) = self.op_handles.get(op) {
            self.metrics.inc(h.total, 1);
            self.metrics.observe(h.latency, elapsed_ms);
        }
        if outcome != "ok" {
            if let Some(&h) = self.error_handles.get(outcome) {
                self.metrics.inc(h, 1);
            }
        }
        if self.op_log.len() == NODE_OP_LOG_CAPACITY {
            self.op_log.pop_front();
        }
        self.op_log.push_back(OpLogEntry {
            request_id: rid,
            op: op.to_string(),
            duration_ms: elapsed_ms,
            outcome: outcome.to_string(),
        });
        resp
    }

    /// The storage semantics of each request, free of instrumentation.
    fn handle_inner(&mut self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong { node: self.id },
            Request::GetCapacity => Response::Capacity {
                free: self.store.free(),
            },
            Request::StoreBlock {
                key,
                name,
                size,
                payload,
            } => match self.store.store(
                key,
                StoredObject {
                    name,
                    size,
                    payload: payload.map(Arc::new),
                },
            ) {
                Ok(()) => Response::Stored,
                Err(NodeStoreError::InsufficientSpace) => {
                    Response::Error(RemoteError::InsufficientSpace)
                }
                Err(NodeStoreError::AlreadyStored) => Response::Error(RemoteError::AlreadyStored),
            },
            Request::FetchBlock { name } => Response::Block {
                block: self
                    .store
                    .get(name.key())
                    .map(|obj| (obj.size, obj.payload.clone())),
            },
            // The store tracks every object it holds, so a remove of one it
            // does not hold — a resend of a remove already applied — frees
            // nothing.
            Request::RemoveBlock { name, .. } => {
                self.store.remove(name.key());
                Response::Removed
            }
            // The server layer intercepts Shutdown before dispatch; answering
            // here keeps the service total.
            Request::Shutdown => Response::ShuttingDown,
            // `handle_traced` answers GetStats before dispatch (a scrape must
            // not instrument itself); answering here keeps the match total.
            Request::GetStats => Response::Stats {
                stats: Box::new(self.stats()),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peerstripe_core::ObjectName;

    fn service() -> NodeService {
        NodeService::new(&NodeConfig::named("node-0", ByteSize::mb(10)))
    }

    #[test]
    fn capacity_store_fetch_remove_cycle() {
        let mut svc = service();
        assert_eq!(
            svc.handle(Request::GetCapacity),
            Response::Capacity {
                free: ByteSize::mb(10)
            }
        );
        let name = ObjectName::block("f", 0, 1);
        let store = Request::StoreBlock {
            key: name.key(),
            name: name.clone(),
            size: ByteSize::mb(2),
            payload: Some(vec![5, 6]),
        };
        assert_eq!(svc.handle(store.clone()), Response::Stored);
        assert_eq!(
            svc.handle(store),
            Response::Error(RemoteError::AlreadyStored)
        );
        assert_eq!(
            svc.handle(Request::FetchBlock { name: name.clone() }),
            Response::Block {
                block: Some((ByteSize::mb(2), Some(Arc::new(vec![5, 6]))))
            }
        );
        assert_eq!(
            svc.handle(Request::RemoveBlock {
                name: name.clone(),
                size: ByteSize::mb(2)
            }),
            Response::Removed
        );
        assert_eq!(
            svc.handle(Request::FetchBlock { name }),
            Response::Block { block: None }
        );
        assert_eq!(svc.stats().used, ByteSize::ZERO);
    }

    #[test]
    fn oversized_store_is_refused_with_a_typed_error() {
        let mut svc = service();
        let name = ObjectName::block("f", 0, 0);
        assert_eq!(
            svc.handle(Request::StoreBlock {
                key: name.key(),
                name,
                size: ByteSize::mb(100),
                payload: None,
            }),
            Response::Error(RemoteError::InsufficientSpace)
        );
    }

    #[test]
    fn removing_a_block_the_node_does_not_hold_frees_nothing() {
        let mut svc = service();
        let sizes = [ByteSize::mb(1), ByteSize::mb(2), ByteSize::mb(3)];
        let names: Vec<ObjectName> = (0..3).map(|i| ObjectName::block("f", 0, i)).collect();
        for (name, &size) in names.iter().zip(&sizes) {
            let store = Request::StoreBlock {
                key: name.key(),
                name: name.clone(),
                size,
                payload: None,
            };
            assert_eq!(svc.handle(store), Response::Stored);
        }
        // Block 0 removed twice (a resent rollback), then a name never stored.
        let removes = [
            (names[0].clone(), sizes[0]),
            (names[0].clone(), sizes[0]),
            (ObjectName::block("other", 0, 0), ByteSize::mb(4)),
        ];
        for (name, size) in removes {
            let reply = svc.handle(Request::RemoveBlock { name, size });
            assert_eq!(reply, Response::Removed);
        }
        let stats = svc.stats();
        assert_eq!(stats.objects, 2);
        assert_eq!(stats.used, sizes[1] + sizes[2]);
    }

    #[test]
    fn the_op_log_keeps_the_newest_requests() {
        let mut svc = service();
        let total = NODE_OP_LOG_CAPACITY + 5;
        for rid in 0..total as u64 {
            assert!(matches!(
                svc.handle_traced(Request::Ping, Some(rid)),
                Response::Pong { .. }
            ));
        }
        let log = svc.stats().op_log;
        assert_eq!(log.len(), NODE_OP_LOG_CAPACITY);
        let kept: Vec<Option<u64>> = log.iter().map(|e| e.request_id).collect();
        let newest: Vec<Option<u64>> = (5..total as u64).map(Some).collect();
        assert_eq!(kept, newest, "oldest first, the first five evicted");
    }
}
